//! Minimal tabular/CSV reporting for the experiments.

use std::fmt::Write as _;

/// A simple aligned-text table with an optional CSV dump.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Build a JSON array document from per-datapoint JSON objects, one per
/// line, so the result file stays diffable.
pub fn json_array(items: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(item);
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Format a float with engineering-style precision for tables.
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Lowercase slug of a dispatch mode for file names, CSV cells, and
/// telemetry labels — derived from `Display` so a new mode never needs
/// another hand-written name table (it also round-trips through
/// `DispatchMode::from_str`, which accepts the lowercase spelling).
pub fn mode_slug(mode: sprayer::config::DispatchMode) -> String {
    mode.to_string().to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["100", "20000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        // All rows share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["a,b"]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }
}
