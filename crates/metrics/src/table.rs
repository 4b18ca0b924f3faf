//! Plain-text table rendering for experiment output.
//!
//! Every terminal report (`prft-lab` listings, scenario and equilibrium
//! tables, the claims table) prints through this, so they are uniform and
//! diff-friendly.

use std::fmt;

/// A simple column-aligned ASCII table.
///
/// # Example
/// ```
/// use prft_metrics::AsciiTable;
/// let mut t = AsciiTable::new(vec!["protocol", "msgs", "bytes"]);
/// t.row(vec!["pRFT".into(), "1024".into(), "9.3e6".into()]);
/// let s = t.render();
/// assert!(s.contains("protocol"));
/// assert!(s.contains("pRFT"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl AsciiTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<&str>) -> Self {
        AsciiTable {
            header: header.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_string());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row's arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let render_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, width) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                s.push(' ');
                s.push_str(cell);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s
        };
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

impl fmt::Display for AsciiTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = AsciiTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "sep, header, sep, row, sep");
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "uniform width");
        assert!(s.contains("| xxxxxxx | 1           |"));
    }

    #[test]
    fn title_is_prepended() {
        let t = AsciiTable::new(vec!["x"]).with_title("Table 1: bounds");
        assert!(t.render().starts_with("Table 1: bounds\n"));
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = AsciiTable::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        AsciiTable::new(vec!["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn unicode_width_by_chars() {
        let mut t = AsciiTable::new(vec!["σ"]);
        t.row(vec!["σ_Fork".into()]);
        let s = t.render();
        assert!(s.contains("σ_Fork"));
    }
}
