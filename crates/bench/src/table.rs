//! Minimal aligned-text table printer for the figure binaries.

/// A simple column-aligned table accumulated row by row.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<I: IntoIterator<Item = T>, T: Into<String>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row<I: IntoIterator<Item = T>, T: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity must match header");
        self.rows.push(row);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with right-aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = h.chars().count();
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>w$}", cell, w = width[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &width
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The rows as CSV lines (no header).
    pub fn csv_rows(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.join(",")).collect()
    }

    /// The header as a CSV line.
    pub fn csv_header(&self) -> String {
        self.header.join(",")
    }
}

/// Format microseconds compactly (µs below 1 ms, else ms).
pub fn fmt_us(us: f64) -> String {
    if us < 1000.0 {
        format!("{us:.1}")
    } else {
        format!("{:.0}", us)
    }
}

/// Format a speedup ratio.
pub fn fmt_x(r: f64) -> String {
    format!("{r:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["M", "time"]);
        t.row(["64", "123.4"]);
        t.row(["16384", "9.9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("time"));
        assert!(lines[2].ends_with("123.4"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_round_trip() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.csv_header(), "a,b");
        assert_eq!(t.csv_rows(), vec!["1,2".to_string()]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["1"]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_us(12.34), "12.3");
        assert_eq!(fmt_us(12345.6), "12346");
        assert_eq!(fmt_x(8.25), "8.2x");
    }
}
