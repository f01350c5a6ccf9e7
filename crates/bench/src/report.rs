//! Plain-text table rendering for experiment output.

use std::fmt;

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (e.g. "Figure 10(a): TREEBANK, s1 = 25").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "\n## {}\n", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:>width$} |", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        let _ = ncols;
        Ok(())
    }
}

/// Formats a byte count human-readably (KB/MB with one decimal).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.0} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a relative error as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats per-seed fractions as a percentage `mean±sd`, the sample
/// standard deviation across seeds; a single sample prints its value.
pub fn fmt_pct_spread(samples: &[f64]) -> String {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return fmt_pct(mean);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    format!("{:.1}±{:.1}%", mean * 100.0, var.sqrt() * 100.0)
}

/// Formats a selectivity range with enough precision to keep adjacent
/// quantile buckets distinguishable.
pub fn fmt_range(lo: f64, hi: f64) -> String {
    // Narrow buckets (quantile-derived) need a digit more precision or the
    // rounded endpoints collide with their neighbours.
    if lo > 0.0 && hi / lo < 3.0 {
        format!("[{lo:.1e},{hi:.1e})")
    } else {
        format!("[{lo:.0e},{hi:.0e})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["k", "value"]);
        t.row(vec!["1".into(), "short".into()]);
        t.row(vec!["22".into(), "a much longer cell".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| 22 |"));
        // Every data line has the same length.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()), "{s}");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(316 * 1024), "316 KB");
        assert_eq!(fmt_bytes(1_100_000), "1.05 MB");
    }

    #[test]
    fn pct_and_range() {
        assert_eq!(fmt_pct(0.153), "15.3%");
        assert_eq!(fmt_range(1e-5, 2e-4), "[1e-5,2e-4)");
        // Narrow buckets get extra precision.
        assert_eq!(fmt_range(1.02e-4, 1.41e-4), "[1.0e-4,1.4e-4)");
        assert_eq!(fmt_range(1.0e-4, 2.9e-4), "[1.0e-4,2.9e-4)");
    }
}
