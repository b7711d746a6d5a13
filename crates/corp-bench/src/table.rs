//! Minimal aligned text-table rendering for experiment output.

use serde::Serialize;
use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Serialize)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are already formatted).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Borrow of the raw rows (tests and downstream processing).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Borrow of the header labels.
    pub fn header(&self) -> &[String] {
        &self.header
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| name  | value |"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_row_width() {
        let mut t = TextTable::new("Demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn tracks_length() {
        let mut t = TextTable::new("Demo", &["a"]);
        assert!(t.is_empty());
        t.push_row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
    }
}
