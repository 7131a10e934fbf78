//! Minimal plain-text table rendering for experiment output.

use std::fmt::{Display, Write as _};

/// One `{name} {policy} misses= mpki= ipc=` result line, without a
/// trailing newline: the shape `trace replay`, `submit` and the engine
/// smoke all print, so their outputs stay byte-comparable.
///
/// ```
/// use sdbp_harness::table::result_line;
/// assert_eq!(result_line("w", "lru", 7, 1.5, 0.25), "w lru misses=7 mpki=1.500000 ipc=0.250000");
/// ```
pub fn result_line(name: &str, policy: impl Display, misses: u64, mpki: f64, ipc: f64) -> String {
    format!("{name} {policy} misses={misses} mpki={mpki:.6} ipc={ipc:.6}")
}

/// A text table with a header row and aligned columns.
///
/// ```
/// use sdbp_harness::table::TextTable;
/// let mut t = TextTable::new(vec!["benchmark".into(), "MPKI".into()]);
/// t.row(vec!["456.hmmer".into(), "12.34".into()]);
/// let s = t.render();
/// assert!(s.contains("456.hmmer"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table with a separator under the header. The first
    /// column is left-aligned, the rest right-aligned (numeric convention).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "fmt::Write into a String is infallible"
                    )]
                    let _ = write!(out, "{cell:<width$}", width = widths[i]);
                } else {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "fmt::Write into a String is infallible"
                    )]
                    let _ = write!(out, "{cell:>width$}", width = widths[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "gmean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn amean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "amean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "x".into()]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "10.0".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width-ish: header padded like rows.
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("a "));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn means_behave() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((amean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_nonpositive() {
        let _ = gmean(&[1.0, 0.0]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
