//! Fixed-width table printing for experiment output.

/// Prints a header row followed by a rule.
pub fn header(title: &str, cols: &[&str], widths: &[usize]) {
    println!("\n=== {title} ===");
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(120)));
}

/// Prints one data row (cells pre-formatted).
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{line}");
}

/// Prints a header and then every row.
pub fn print(title: &str, heads: &[&str], widths: &[usize], rows: &[Vec<String>]) {
    header(title, heads, widths);
    for r in rows {
        row(r, widths);
    }
}

/// Formats a float with 3 decimals, or a dash for NaN (method not run).
pub fn f3(v: f64) -> String {
    if v.is_nan() {
        "—".into()
    } else {
        format!("{v:.3}")
    }
}

/// Formats milliseconds adaptively.
pub fn ms(v: f64) -> String {
    if v.is_nan() {
        "—".into()
    } else if v < 1.0 {
        format!("{:.0}µs", v * 1000.0)
    } else if v < 1000.0 {
        format!("{v:.2}ms")
    } else {
        format!("{:.2}s", v / 1000.0)
    }
}

/// Formats a fraction (0..=1) as a percentage with one decimal, or a dash
/// for NaN. Used for tombstone-density and space-overhead columns.
pub fn pct(v: f64) -> String {
    if v.is_nan() {
        "—".into()
    } else {
        format!("{:.1}%", v * 100.0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers() {
        assert_eq!(super::f3(0.12345), "0.123");
        assert_eq!(super::f3(f64::NAN), "—");
        assert_eq!(super::ms(0.5), "500µs");
        assert_eq!(super::ms(12.345), "12.35ms");
        assert_eq!(super::ms(2500.0), "2.50s");
        assert_eq!(super::pct(0.2994), "29.9%");
        assert_eq!(super::pct(f64::NAN), "—");
    }
}
