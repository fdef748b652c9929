//! Plain-text table rendering for the experiment harness.
//!
//! Every table and figure of the paper is regenerated as text: a header,
//! aligned columns, and (from the harness) a JSON sidecar. This module owns
//! the text part.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
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

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width - cell.chars().count();
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = !cell.is_empty()
                    && cell.chars().any(|c| c.is_ascii_digit())
                    && cell
                        .chars()
                        .all(|c| c.is_ascii_digit() || "+-.%eE()–".contains(c));
                if numeric {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    if i + 1 < cols {
                        for _ in 0..pad {
                            out.push(' ');
                        }
                    }
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a count in millions with one decimal ("1234567" → "1.2").
pub fn fmt_millions(x: f64) -> String {
    format!("{:.1}", x / 1.0e6)
}

/// Formats a count in thousands with one decimal.
pub fn fmt_thousands(x: f64) -> String {
    format!("{:.1}", x / 1.0e3)
}

/// Formats a fraction as a percentage with one decimal.
pub fn fmt_percent(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Name", "IPs"]);
        t.row(["WIKI", "5.5"]);
        t.row(["IPING", "320.3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric column right-aligned: both rows end at same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].ends_with("320.3"));
    }

    #[test]
    #[should_panic]
    fn ragged_row_panics() {
        TextTable::new(["A", "B"]).row(["only-one"]);
    }

    #[test]
    fn single_letters_left_aligned() {
        let mut t = TextTable::new(["Network", "Value"]);
        t.row(["E", "1.0"]);
        t.row(["LongName", "22.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with('E'), "{s}");
        // Numbers with signs/parens still right-align.
        let mut t2 = TextTable::new(["A", "B"]);
        t2.row(["x", "15.5(-10.2)"]);
        t2.row(["y", "1.0"]);
        let s2 = t2.render();
        assert!(s2.lines().last().unwrap().ends_with("1.0"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_millions(6_300_000.0), "6.3");
        assert_eq!(fmt_thousands(1_234.0), "1.2");
        assert_eq!(fmt_percent(0.451), "45.1");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(["X"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
