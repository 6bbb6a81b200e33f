//! Reproduction harness utilities shared by the per-figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper: it sweeps the paper's parameter grid, runs the modeled
//! GPU solver / baselines / CPU model, verifies every solution's
//! residual, prints an aligned text table and writes a CSV under
//! `results/`.

pub mod history;
pub mod plot;
pub mod series;
pub mod table;

/// Parse the common CLI flags of the figure binaries: `--fast` shrinks
/// the sweep for smoke testing; `--out DIR` overrides the CSV directory.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Reduced problem sizes for CI/smoke runs.
    pub fast: bool,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
}

impl HarnessArgs {
    /// Parse from `std::env::args`; exits 1 naming the argument when
    /// one is unknown or lacks its value.
    pub fn parse() -> Self {
        exit_on_error(Self::parse_from(std::env::args().skip(1)))
    }

    /// Parse `--fast` and `--out DIR` from `args` (program name
    /// already stripped). Anything else is an error naming it.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut fast = false;
        let mut out_dir = std::path::PathBuf::from("results");
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fast" => fast = true,
                "--out" => out_dir = args.next().ok_or("--out needs a directory")?.into(),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self { fast, out_dir })
    }

    /// Write `rows` as CSV to `<out_dir>/<name>.csv` (creating the
    /// directory), echoing the path.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{name}.csv"));
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        body.push_str(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        std::fs::write(&path, body)?;
        println!("\n[csv] {}", path.display());
        Ok(())
    }
}

/// Unwrap a harness binary's parsed arguments, or print `error: ...`
/// and exit 1.
pub fn exit_on_error<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_from_accepts_fast_and_out() {
        let a = parse("").unwrap();
        assert!(!a.fast);
        assert_eq!(a.out_dir, std::path::PathBuf::from("results"));
        let a = parse("--out csv --fast").unwrap();
        assert!(a.fast);
        assert_eq!(a.out_dir, std::path::PathBuf::from("csv"));
    }

    #[test]
    fn parse_from_rejects_and_names_unknown_arguments() {
        assert_eq!(
            parse("--fast --check baseline.json").unwrap_err(),
            "unknown argument --check"
        );
        assert_eq!(parse("fast").unwrap_err(), "unknown argument fast");
        assert_eq!(parse("--out").unwrap_err(), "--out needs a directory");
    }
}
