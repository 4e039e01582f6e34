//! Shared helpers for the experiment harnesses.

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::{run_test, TestResults};

/// Run a YAML configuration, panicking with context on any failure —
/// experiments are supposed to be green by construction.
pub fn run_yaml(yaml: &str) -> TestResults {
    let cfg = TestConfig::from_yaml(yaml)
        .unwrap_or_else(|e| panic!("experiment config invalid: {e}\n---\n{yaml}"));
    run_test(&cfg).unwrap_or_else(|e| panic!("experiment failed: {e}"))
}

/// The four devices, in the paper's order, by config name.
pub const NICS: [&str; 4] = ["cx4", "cx5", "cx6", "e810"];

/// Render a simple aligned table: header + rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["nic", "latency"],
            &[
                vec!["cx5".into(), "2.1".into()],
                vec!["e810".into(), "83000.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("nic"));
        assert!(lines[3].contains("83000.0"));
    }
}
