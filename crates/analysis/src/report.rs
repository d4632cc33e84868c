//! Plain-text figure rendering.
//!
//! The harness reproduces every figure as text: horizontal bar charts
//! (Figure 1), CDF tables (Figure 4), box-plot tables (Figure 5) and generic
//! aligned tables. No plotting dependencies; output is stable and diffable.
//! Machine-readable output is not rendered here: every `--json` and
//! `--metrics-out` byte is written by [`sweetspot_obs::json`].

use sweetspot_dsp::stats::{Cdf, FiveNumber};

/// Peak resident set size of this process in kB, from Linux's `VmHWM`
/// (`/proc/self/status`). `None` where procfs is unavailable (non-Linux) —
/// callers should silently omit the figure. VmHWM is a kernel-maintained
/// high-water mark, so reading it once at the end of a run captures the
/// true peak without sampling.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Renders a horizontal bar chart. `rows` are `(label, value)` with values
/// in `[0, 1]` (fractions); `width` is the bar budget in characters.
pub fn bar_chart(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in rows {
        let v = value.clamp(0.0, 1.0);
        let filled = (v * width as f64).round() as usize;
        out.push_str(&format!(
            "  {label:<label_w$} |{}{}| {:>5.1}%\n",
            "█".repeat(filled),
            " ".repeat(width - filled),
            v * 100.0,
        ));
    }
    out
}

/// Renders an aligned table. All rows must have `headers.len()` cells.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:<w$}  "));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:<w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Samples a CDF at log-spaced x positions — the coordinates of Figure 4's
/// panels (x axis `10^0 … 10^3`).
pub fn cdf_log_samples(
    cdf: &Cdf,
    decades: std::ops::Range<i32>,
    per_decade: usize,
) -> Vec<(f64, f64)> {
    let mut points = Vec::new();
    for d in decades.clone() {
        for k in 0..per_decade {
            let x = 10f64.powf(d as f64 + k as f64 / per_decade as f64);
            points.push((x, cdf.fraction_at_or_below(x)));
        }
    }
    let x = 10f64.powi(decades.end);
    points.push((x, cdf.fraction_at_or_below(x)));
    points
}

/// Renders a CDF as an ASCII curve over log-spaced columns.
pub fn cdf_ascii(title: &str, cdf: &Cdf, decades: std::ops::Range<i32>) -> String {
    let samples = cdf_log_samples(cdf, decades.clone(), 8);
    let height = 10usize;
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for level in (0..=height).rev() {
        let y = level as f64 / height as f64;
        let mut line = format!("  {:>4.2} |", y);
        for &(_, frac) in &samples {
            line.push(if frac >= y { '#' } else { ' ' });
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "        {}\n        1e{} .. 1e{} (log x: possible reduction ratio)\n",
        "-".repeat(samples.len()),
        decades.start,
        decades.end
    ));
    out
}

/// Renders five-number summaries as a box-plot table (Figure 5's content).
pub fn boxplot_table(title: &str, rows: &[(String, FiveNumber)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, f)| {
            vec![
                label.clone(),
                format!("{:.3e}", f.min),
                format!("{:.3e}", f.q1),
                format!("{:.3e}", f.median),
                format!("{:.3e}", f.q3),
                format!("{:.3e}", f.max),
            ]
        })
        .collect();
    out.push_str(&table(
        &["metric", "min", "q1", "median", "q3", "max"],
        &body,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_renders_all_rows() {
        let rows = vec![("alpha".to_string(), 0.5), ("b".to_string(), 1.0)];
        let s = bar_chart("title", &rows, 10);
        assert!(s.contains("title"));
        assert!(s.contains("alpha"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("100.0%"));
        // Bars aligned: both rows pad the label to the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let bar_starts: Vec<usize> = lines.iter().map(|l| l.find('|').unwrap()).collect();
        assert_eq!(bar_starts[0], bar_starts[1]);
    }

    #[test]
    fn bar_chart_clamps_out_of_range() {
        let rows = vec![("x".to_string(), 1.5)];
        let s = bar_chart("t", &rows, 10);
        assert!(s.contains("100.0%"));
    }

    #[test]
    fn table_aligns_columns() {
        let s = table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn cdf_log_samples_monotone() {
        let cdf = Cdf::new([1.0, 5.0, 50.0, 500.0, 2000.0]);
        let pts = cdf_log_samples(&cdf, 0..3, 4);
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 0.8); // 4 of 5 ≤ 1000
    }

    #[test]
    fn cdf_ascii_has_fixed_height() {
        let cdf = Cdf::new([1.0, 10.0, 100.0]);
        let s = cdf_ascii("panel", &cdf, 0..3);
        assert_eq!(s.lines().count(), 1 + 11 + 2);
    }

    #[test]
    fn boxplot_table_contains_all_metrics() {
        let rows = vec![(
            "Temperature".to_string(),
            FiveNumber {
                min: 7.99e-7,
                q1: 1e-5,
                median: 1e-4,
                q3: 1e-3,
                max: 3e-3,
            },
        )];
        let s = boxplot_table("fig5", &rows);
        assert!(s.contains("Temperature"));
        assert!(s.contains("7.990e-7"));
    }
}
