//! ASCII log-log plots of the harness CSVs — eyeball the paper's curve
//! shapes from a terminal.
//!
//! ```text
//! cargo run --release -p bench --bin plot -- --csv results/fig12.csv
//! cargo run --release -p bench --bin plot -- --csv results/fig13.csv
//! ```
//!
//! For `fig12.csv` the series are plotted per `n` panel (time vs M);
//! for `fig13.csv` per `m` panel (time vs N); other CSVs get a generic
//! second-vs-later-columns treatment.

use bench::plot::{parse_csv, render_loglog, Series};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut csv_path = String::from("results/fig12.csv");
    while let Some(a) = args.next() {
        let parsed = match a.as_str() {
            "--csv" => args.next().ok_or_else(|| "--csv needs a file".to_string()),
            other => Err(format!("unknown argument {other}")),
        };
        csv_path = bench::exit_on_error(parsed);
    }
    let text = match std::fs::read_to_string(&csv_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {csv_path}: {e} (run the figure binary first)");
            std::process::exit(1);
        }
    };
    let (header, rows) = parse_csv(&text);
    if rows.is_empty() {
        eprintln!("{csv_path}: no data rows");
        std::process::exit(1);
    }

    // Figure CSVs start with a panel column (n or m), then the sweep
    // variable, then the time series columns.
    let panel_col = 0usize;
    let x_col = 1usize;
    let series_cols: Vec<usize> = (2..header.len())
        .filter(|&c| header[c].ends_with("_us"))
        .collect();
    if series_cols.is_empty() {
        eprintln!("{csv_path}: no *_us series columns found in {header:?}");
        std::process::exit(1);
    }

    let mut panels: Vec<String> = Vec::new();
    for r in &rows {
        if !panels.contains(&r[panel_col]) {
            panels.push(r[panel_col].clone());
        }
    }
    let glyphs = ['s', 'm', 'o', 'd', 'z'];
    for panel in panels {
        println!(
            "\n=== {} = {} : time [us] vs {} ===",
            header[panel_col], panel, header[x_col]
        );
        let mut series: Vec<Series> = Vec::new();
        for (si, &c) in series_cols.iter().enumerate() {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r[panel_col] == panel)
                .filter_map(|r| {
                    let x: f64 = r.get(x_col)?.parse().ok()?;
                    let y: f64 = r.get(c)?.parse().ok()?;
                    Some((x, y))
                })
                .collect();
            series.push(Series {
                name: header[c].clone(),
                glyph: glyphs[si % glyphs.len()],
                points,
            });
        }
        print!("{}", render_loglog(&series, 64, 18));
    }
}
