//! Aligned plain-text and CSV table rendering.
//!
//! Every experiment prints its results through this type so that the rows in
//! `EXPERIMENTS.md` and the example binaries all share one format.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Cell alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple rectangular results table.
///
/// # Examples
///
/// ```
/// use bitdissem_stats::Table;
///
/// let mut t = Table::new(["n", "median T"]);
/// t.row(["128", "412.0"]);
/// t.row(["256", "930.5"]);
/// let text = t.render();
/// assert!(text.contains("median T"));
/// assert_eq!(t.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers. Columns default to
    /// right alignment except the first (label) column.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Self { headers, rows: Vec::new(), aligns }
    }

    /// Overrides the per-column alignment.
    ///
    /// # Panics
    ///
    /// Panics if the number of alignments differs from the number of
    /// columns.
    pub fn set_aligns(&mut self, aligns: Vec<Align>) {
        assert_eq!(aligns.len(), self.headers.len(), "one alignment per column");
        self.aligns = aligns;
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the number of columns.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row length must match header count");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sorts data rows lexicographically (used to make multi-threaded
    /// experiment output deterministic).
    pub fn sort_rows(&mut self) {
        self.rows.sort();
    }

    /// Renders an aligned plain-text table with a header separator.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                match aligns[i] {
                    Align::Left => line.push_str(&format!("{cell:<width$}", width = widths[i])),
                    Align::Right => line.push_str(&format!("{cell:>width$}", width = widths[i])),
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths, &self.aligns));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }

    /// Renders RFC-4180-style CSV (cells containing commas, quotes or
    /// newlines are quoted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats a float with a sensible number of significant digits for tables.
#[must_use]
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "12345"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header separator line is dashes.
        assert!(lines[1].chars().all(|c| c == '-'));
        // Value column right-aligned: "1" ends at the same column as "12345".
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn row_length_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn sort_rows_is_deterministic() {
        let mut t = Table::new(["k"]);
        t.row(["b"]);
        t.row(["a"]);
        t.sort_rows();
        assert!(t.render().find("a").unwrap() < t.render().find("b").unwrap());
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(["x"]);
        t.row(["1"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn set_aligns_overrides() {
        let mut t = Table::new(["a", "b"]);
        t.set_aligns(vec![Align::Right, Align::Left]);
        t.row(["1", "x"]);
        let text = t.render();
        assert!(text.contains('1'));
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1.5), "1.500");
        assert_eq!(fmt_num(123.456), "123.5");
        assert!(fmt_num(1.0e7).contains('e'));
        assert!(fmt_num(1.0e-5).contains('e'));
        assert_eq!(fmt_num(f64::INFINITY), "inf");
    }
}
