//! Markdown table / series printing shared by the experiments,
//! plus the one-line [`SweepReport`] summary `ditto-serve` logs.

use std::fmt::Write as _;

use accel::grid::SweepReport;

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
        self
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}-|", "-".repeat(w + 2 - 1));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Formats a float with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// An experiment banner as a string (leading blank line, trailing newline).
pub fn banner_str(id: &str, caption: &str) -> String {
    format!("\n=== {id}: {caption} ===\n")
}

/// Prints an experiment banner.
pub fn banner(id: &str, caption: &str) {
    print!("{}", banner_str(id, caption));
}

/// One-paragraph sweep summary: grid shape, fastest design per model, and
/// the best geometric-mean speedup over the first (baseline) design.
pub fn sweep_summary(report: &SweepReport) -> String {
    let best_geo = (0..report.designs.len())
        .map(|d| (d, report.geomean_speedup(d, 0)))
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .expect("report has designs");
    format!(
        "{} designs x {} models; best geomean speedup vs {}: {} at {:.2}x",
        report.designs.len(),
        report.models.len(),
        report.designs[0],
        report.designs[best_geo.0],
        best_geo.1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new(["a"]).row(["1", "2"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn sweep_rendering_and_summary() {
        use accel::design::Design;
        use accel::grid::{self, SweepSpec};
        use accel::sim::synth;
        let trace = synth::trace(3, 5, 100_000, 256, true);
        let report =
            grid::run(&SweepSpec::new(vec![Design::itc(), Design::ditto()], vec![&trace])).unwrap();
        let s = sweep_summary(&report);
        assert!(s.contains("2 designs x 1 models"), "{s}");
        assert!(s.contains("vs ITC"), "{s}");
    }
}
