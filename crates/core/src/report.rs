//! Plain-text table and series formatting for the figure harness.

use medea_metrics::{CycleBreakdown, PeActivity};

/// Render a fixed-width table. `headers.len()` must match every row.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    fn push_row(widths: &[usize], cells: &[&str], out: &mut String) {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
    }
    let mut out = String::new();
    push_row(&widths, headers, &mut out);
    let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let rule_refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    push_row(&widths, &rule_refs, &mut out);
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        push_row(&widths, &cells, &mut out);
    }
    out
}

/// Render a labeled (x, y) series (Fig. 7/9 style, labels on points).
pub fn format_labeled_series(name: &str, points: &[(String, f64, f64)]) -> String {
    let mut out = format!("# {name}\n");
    for (label, x, y) in points {
        out.push_str(&format!("{x:.3} {y:.3}  # {label}\n"));
    }
    out
}

/// One row of a latency-percentile summary: a label plus the
/// `(p50, p99, max)` triple and the deflections-per-delivered-flit ratio
/// (`RunResult::flit_latency_p50` and friends).
pub type LatencyRow = (String, Option<u64>, Option<u64>, Option<u64>, Option<f64>);

/// Render latency-percentile summaries (one [`LatencyRow`] per
/// configuration) as an aligned table — the renderer behind the `noc`
/// reporting of the scaling harness and the `trace_json` binary.
pub fn format_latency_table(rows: &[LatencyRow]) -> String {
    fn cell<T: std::fmt::Display>(v: &Option<T>) -> String {
        v.as_ref().map_or_else(|| "-".into(), T::to_string)
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, p50, p99, max, defl)| {
            vec![
                label.clone(),
                cell(p50),
                cell(p99),
                cell(max),
                defl.map_or_else(|| "-".into(), |d| format!("{d:.3}")),
            ]
        })
        .collect();
    format_table(&["config", "p50", "p99", "max", "defl/flit"], &table_rows)
}

/// One row of a resilience-sweep summary: a config label, the faults the
/// injector delivered, the recovery counters each layer reports
/// (dead-link reroutes, eMPI retransmissions, receiver NACKs, bridge
/// retries) and the run outcome (`"ok"` or the `RunError` kind).
pub type ResilienceRow = (String, u64, u64, u64, u64, u64, String);

/// Render a resilience sweep (one [`ResilienceRow`] per fault scenario)
/// as an aligned table — the renderer behind the `resilience` section of
/// the scaling harness.
pub fn format_resilience_table(rows: &[ResilienceRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, faults, reroutes, retransmits, nacks, bridge, outcome)| {
            vec![
                label.clone(),
                faults.to_string(),
                reroutes.to_string(),
                retransmits.to_string(),
                nacks.to_string(),
                bridge.to_string(),
                outcome.clone(),
            ]
        })
        .collect();
    format_table(
        &["config", "faults", "reroutes", "retransmits", "nacks", "bridge_retries", "outcome"],
        &table_rows,
    )
}

/// Render cycle-attribution breakdowns (one labeled [`CycleBreakdown`]
/// per row — typically one per PE plus an aggregate) as an aligned
/// table: total attributed cycles, then the percentage of each activity
/// category. Percentages are computed over the row's own total, so every
/// row sums to ~100 regardless of when its PE finished.
pub fn format_breakdown_table(rows: &[(String, CycleBreakdown)]) -> String {
    let mut headers: Vec<&str> = vec!["pe", "cycles"];
    headers.extend(PeActivity::ALL.iter().map(|a| a.name()));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, b)| {
            let mut row = vec![label.clone(), b.total().to_string()];
            row.extend(PeActivity::ALL.iter().map(|a| format!("{:.1}%", b.fraction(*a) * 100.0)));
            row
        })
        .collect();
    format_table(&headers, &table_rows)
}

/// Render the profiler's hottest-router table (`(node, total busy
/// link-cycles)` rows from `MetricsReport::hottest_routers`).
pub fn format_hot_routers_table(rows: &[(u16, u64)]) -> String {
    let table_rows: Vec<Vec<String>> =
        rows.iter().map(|(node, busy)| vec![node.to_string(), busy.to_string()]).collect();
    format_table(&["router", "busy_link_cycles"], &table_rows)
}

/// Render the profiler's hottest-bank table (`(bank, pressure)` rows
/// from `MetricsReport::hottest_banks`).
pub fn format_hot_banks_table(rows: &[(usize, u64)]) -> String {
    let table_rows: Vec<Vec<String>> =
        rows.iter().map(|(bank, p)| vec![bank.to_string(), p.to_string()]).collect();
    format_table(&["bank", "pressure"], &table_rows)
}

/// Render a per-router deflection top-N (`(node, deflections)` rows from
/// `TraceAnalysis::top_deflecting_routers`) — where hot-potato pressure
/// concentrates on the torus.
pub fn format_deflection_table(rows: &[(u16, u64)]) -> String {
    let table_rows: Vec<Vec<String>> =
        rows.iter().map(|(node, d)| vec![node.to_string(), d.to_string()]).collect();
    format_table(&["router", "deflections"], &table_rows)
}

/// Render the per-bank lock-contention table (`(bank, contended
/// acquires, contention cycles)` rows from
/// `TraceAnalysis::lock_contention_by_bank`).
pub fn format_lock_contention_table(rows: &[(u16, u64, u64)]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(bank, n, cycles)| vec![bank.to_string(), n.to_string(), cycles.to_string()])
        .collect();
    format_table(&["bank", "contended_acquires", "contention_cycles"], &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["cores", "cycles"],
            &[vec!["2".into(), "123456".into()], vec!["15".into(), "99".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("cores"));
        assert!(lines[2].trim_start().starts_with('2'));
        // Right-aligned numbers share the last column edge.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_rows_panic() {
        format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn latency_table_renders_missing_as_dash() {
        let rows: Vec<LatencyRow> = vec![
            ("4x4".into(), Some(3), Some(63), Some(187), Some(1.234_5)),
            ("ideal".into(), None, None, None, None),
        ];
        let t = format_latency_table(&rows);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("p50") && lines[0].contains("defl/flit"));
        assert!(lines[2].contains("187") && lines[2].contains("1.234"), "{t}");
        assert!(lines[3].contains('-'), "missing values render as dashes: {t}");
    }

    #[test]
    fn resilience_table_renders_counters_and_outcome() {
        let rows: Vec<ResilienceRow> = vec![
            ("4x4 corrupt=1000ppm".into(), 12, 0, 12, 12, 0, "ok".into()),
            ("8x8 dead-link".into(), 1, 345, 0, 0, 0, "ok".into()),
        ];
        let t = format_resilience_table(&rows);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("retransmits") && lines[0].contains("outcome"));
        assert!(lines[2].contains("12") && lines[2].contains("ok"), "{t}");
        assert!(lines[3].contains("345"), "{t}");
    }

    #[test]
    fn labeled_series_format() {
        let s = format_labeled_series("fig7", &[("2P_8k$".into(), 1.5, 2.0)]);
        assert!(s.contains("# 2P_8k$"));
        assert!(s.contains("1.500 2.000"));
    }

    #[test]
    fn breakdown_table_percentages_per_row() {
        let mut b = CycleBreakdown::default();
        b.record(PeActivity::Compute, 62);
        b.record(PeActivity::RecvWait, 38);
        let t = format_breakdown_table(&[("rank 0".into(), b)]);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("compute") && lines[0].contains("recv-wait"), "{t}");
        assert!(
            lines[2].contains("100") && lines[2].contains("62.0%") && lines[2].contains("38.0%"),
            "{t}"
        );
    }

    #[test]
    fn hot_spot_tables_render() {
        let routers = format_hot_routers_table(&[(5, 120), (1, 80)]);
        assert!(routers.lines().nth(2).unwrap().contains("120"), "{routers}");
        let banks = format_hot_banks_table(&[(0, 44)]);
        assert!(banks.contains("pressure") && banks.contains("44"), "{banks}");
    }

    #[test]
    fn deflection_and_lock_tables_render() {
        let d = format_deflection_table(&[(5, 3), (1, 1)]);
        let lines: Vec<&str> = d.lines().collect();
        assert!(lines[0].contains("deflections"));
        assert!(lines[2].trim_start().starts_with('5'), "descending order preserved: {d}");
        let l = format_lock_contention_table(&[(0, 1, 22)]);
        assert!(l.contains("contention_cycles") && l.contains("22"), "{l}");
    }
}
