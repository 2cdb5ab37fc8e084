//! Aligned text tables and TSV export for the `repro` harness output.

/// Renders an aligned text table with a header row.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let rule: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup-style ratio (`numerator / denominator`) as `N.Nx`;
/// degenerate denominators render as `-` rather than inf/NaN.
pub fn ratio(numerator: f64, denominator: f64) -> String {
    if denominator <= 0.0 || !denominator.is_finite() || !numerator.is_finite() {
        return "-".into();
    }
    format!("{:.1}x", numerator / denominator)
}

/// Formats a count with thousands separators.
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = text_table(
            &["name", "count"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // all data lines share the same width
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(1234567), "1,234,567");
        assert_eq!(ratio(10.0, 4.0), "2.5x");
        assert_eq!(ratio(1.0, 0.0), "-");
        assert_eq!(ratio(f64::NAN, 2.0), "-");
    }
}
