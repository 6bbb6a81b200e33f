//! Minimal ASCII chart renderer for the figure CSVs — log-log scatter
//! with one glyph per series, so the paper's curve *shapes* (crossovers,
//! flat regions, slope breaks) can be eyeballed straight from a
//! terminal.

/// One named data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Glyph used for the series' points.
    pub glyph: char,
    /// `(x, y)` samples; non-positive values are skipped (log axes).
    pub points: Vec<(f64, f64)>,
}

/// Render a log-log ASCII chart of the given series.
///
/// `width`/`height` are the plotting-area dimensions in characters;
/// axes and legend are added around it.
pub fn render_loglog(series: &[Series], width: usize, height: usize) -> String {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(x, y)| x > 0.0 && y > 0.0)
        .collect();
    if pts.is_empty() || width < 8 || height < 4 {
        return String::from("(no plottable data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    // Pad degenerate ranges.
    if x0 == x1 {
        x1 = x0 * 2.0;
    }
    if y0 == y1 {
        y1 = y0 * 2.0;
    }
    let (lx0, lx1) = (x0.log10(), x1.log10());
    let (ly0, ly1) = (y0.log10(), y1.log10());

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            if x <= 0.0 || y <= 0.0 {
                continue;
            }
            let cx = ((x.log10() - lx0) / (lx1 - lx0) * (width - 1) as f64).round() as usize;
            let cy = ((y.log10() - ly0) / (ly1 - ly0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            // First-writer keeps the cell unless it's the same series
            // re-plotting (later series show through as their glyph on
            // exact overlap anyway).
            if grid[row][col] == ' ' {
                grid[row][col] = s.glyph;
            } else if grid[row][col] != s.glyph {
                grid[row][col] = '*'; // overlap marker
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!("y: {y0:.3e} .. {y1:.3e} (log)\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    out.push_str(&format!("x: {x0:.3e} .. {x1:.3e} (log)\n"));
    for s in series {
        out.push_str(&format!("  {} {}\n", s.glyph, s.name));
    }
    out
}

/// Parse a harness CSV (`results/*.csv`): first line is the header;
/// returns `(header_fields, rows)`.
pub fn parse_csv(text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .unwrap_or("")
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let rows = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(|s| s.trim().to_string()).collect())
        .collect();
    (header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_distinct_series() {
        let series = vec![
            Series {
                name: "linear".into(),
                glyph: 'o',
                points: (1..=10).map(|i| (i as f64, 10.0 * i as f64)).collect(),
            },
            Series {
                name: "flat".into(),
                glyph: 'x',
                points: (1..=10).map(|i| (i as f64, 5.0)).collect(),
            },
        ];
        let chart = render_loglog(&series, 40, 12);
        assert!(chart.contains('o'));
        assert!(chart.contains('x'));
        assert!(chart.contains("linear"));
        assert!(chart.contains("x: 1.000e0"));
        // The flat series stays on one row.
        let x_rows: Vec<&str> = chart
            .lines()
            .filter(|l| l.contains('x') && l.starts_with('|'))
            .collect();
        assert_eq!(x_rows.len(), 1, "{chart}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(render_loglog(&[], 40, 10).contains("no plottable"));
        let s = vec![Series {
            name: "dot".into(),
            glyph: 'd',
            points: vec![(1.0, 1.0)],
        }];
        assert!(render_loglog(&s, 40, 10).contains('d'));
        let neg = vec![Series {
            name: "neg".into(),
            glyph: 'n',
            points: vec![(-1.0, 2.0)],
        }];
        assert!(render_loglog(&neg, 40, 10).contains("no plottable"));
    }

    #[test]
    fn csv_parsing() {
        let (h, rows) = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
        assert_eq!(h, vec!["a", "b", "c"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][2], "6");
    }
}
