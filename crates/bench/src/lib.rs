//! Shared machinery for regenerating every table and figure of the MEDEA
//! paper: sweeps, speedup/area pipelines and MP-vs-SM comparisons.
//!
//! The `figures` binary drives it (experiments E1–E8 and A1–A4; `figures
//! all --quick` runs every one in seconds). The other binaries write the
//! committed `BENCH_*.json` reports. The repository's timing benchmark is
//! the separate `simbench` package.

use medea_apps::grid::max_ranks;
use medea_apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_core::area::{apply_kill_rule, chip_area_mm2, pareto_frontier, DesignPoint};
use medea_core::explore::{run_sweep, SweepOutcome, SweepPoint, Workload};
use medea_core::{CachePolicy, MetricsReport, PeActivity, SystemConfig, SystemConfigBuilder};
use medea_sim::Cycle;

/// How hard to push a regeneration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced grids and point sets — seconds, for CI.
    Quick,
    /// The paper's full grids and point sets.
    Full,
}

/// Host threads used by sweeps.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Base system configuration shared by all experiments.
pub fn base_builder() -> SystemConfigBuilder {
    SystemConfig::builder().cycle_limit(400_000_000)
}

/// The execution-time sweep behind Figs. 6 and 8: one Jacobi variant on a
/// grid of `(pes, cache, policy)` points.
pub fn jacobi_sweep(
    n: usize,
    variant: JacobiVariant,
    points: &[SweepPoint],
    threads: usize,
) -> Vec<SweepOutcome> {
    let points: Vec<SweepPoint> = points
        .iter()
        .copied()
        .filter(|p| p.pes <= max_ranks(n).min(p.topology.max_compute_pes()))
        .collect();
    let workload = JacobiWorkload { jcfg: JacobiConfig::new(n, variant) };
    run_sweep(&workload, &points, &base_builder(), threads)
}

/// Fig. 6 point set: cores 2..=15 × cache sizes × both policies.
pub fn fig6_points(effort: Effort) -> Vec<SweepPoint> {
    let (sizes, pes): (Vec<usize>, Vec<usize>) = match effort {
        Effort::Full => ((1..=6).map(|k| (1 << k) * 1024).collect(), (2..=15).collect()),
        Effort::Quick => (vec![2 * 1024, 8 * 1024, 32 * 1024], vec![2, 4, 8, 12]),
    };
    let mut points = Vec::new();
    for policy in [CachePolicy::WriteBack, CachePolicy::WriteThrough] {
        for &cache_bytes in &sizes {
            for &pes in &pes {
                points.push(SweepPoint::new(pes, cache_bytes, policy));
            }
        }
    }
    points
}

/// Fig. 8 point set: write-back only, cache 2..=32 kB.
pub fn fig8_points(effort: Effort) -> Vec<SweepPoint> {
    fig6_points(effort)
        .into_iter()
        .filter(|p| p.policy == CachePolicy::WriteBack && p.cache_bytes <= 32 * 1024)
        .collect()
}

/// Grid side per figure at the given effort.
pub fn grid_side(paper_n: usize, effort: Effort) -> usize {
    match effort {
        Effort::Full => paper_n,
        // Quick mode shrinks 60 -> 24 and 30 -> 16; knees move but stay
        // visible.
        Effort::Quick => match paper_n {
            60 => 24,
            30 => 16,
            other => other,
        },
    }
}

/// A series of (cores, cycles-per-iteration) for one cache size + policy.
#[derive(Debug, Clone)]
pub struct ExecTimeSeries {
    /// Legend label, e.g. `16kB $ WB`.
    pub label: String,
    /// `(cores, cycles/iter)` points.
    pub points: Vec<(usize, Cycle)>,
}

/// Group sweep outcomes into the paper's per-cache-size curves.
pub fn exec_time_series(outcomes: &[SweepOutcome]) -> Vec<ExecTimeSeries> {
    let mut series: Vec<ExecTimeSeries> = Vec::new();
    for o in outcomes {
        let Some(measured) = o.measured() else { continue };
        let label = format!("{}kB $ {}", o.point.cache_bytes / 1024, o.point.policy);
        match series.iter_mut().find(|s| s.label == label) {
            Some(s) => s.points.push((o.point.pes, measured)),
            None => series.push(ExecTimeSeries { label, points: vec![(o.point.pes, measured)] }),
        }
    }
    for s in &mut series {
        s.points.sort_by_key(|(pes, _)| *pes);
    }
    series
}

/// The Fig. 7/9 pipeline: speedup (vs. the slowest point of the sweep) and
/// area for every point, Pareto-pruned, kill-rule applied.
pub struct SpeedupVsArea {
    /// Every evaluated point.
    pub all: Vec<DesignPoint>,
    /// The Pareto frontier.
    pub frontier: Vec<DesignPoint>,
    /// Frontier after the kill rule.
    pub optimal: Vec<DesignPoint>,
}

/// Build the speedup-vs-area artifact from a sweep.
pub fn speedup_vs_area(outcomes: &[SweepOutcome]) -> SpeedupVsArea {
    let reference =
        outcomes.iter().filter_map(SweepOutcome::measured).max().unwrap_or(1).max(1) as f64;
    let all: Vec<DesignPoint> = outcomes
        .iter()
        .filter_map(|o| {
            let measured = o.measured().filter(|&m| m > 0)?;
            let cfg = o.point.apply(base_builder());
            Some(DesignPoint {
                label: o.label.clone(),
                area_mm2: chip_area_mm2(&cfg),
                speedup: reference / measured as f64,
            })
        })
        .collect();
    let frontier = pareto_frontier(all.clone());
    let optimal = apply_kill_rule(&frontier, 1.0);
    SpeedupVsArea { all, frontier, optimal }
}

/// One row of the `utilization` section shared by the `scaling_json` and
/// `metrics_json` binaries: the label of one metered run plus the
/// [`MetricsReport`] its `RunResult` carried.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Torus, e.g. `4x4`.
    pub topology: String,
    /// Configuration label of the run.
    pub label: String,
    /// Compute-PE count.
    pub pes: usize,
    /// The profiler's run-level artifact.
    pub report: MetricsReport,
}

/// Render [`UtilizationRow`]s as the JSON row array body of a
/// `utilization` section (rows indented four spaces, comma-separated,
/// trailing newline) — one emitter so both bench binaries write the same
/// schema. Per row: the aggregate [`CycleBreakdown`](medea_core::CycleBreakdown)
/// fractions (summing to 1.0 by construction), the peak single-link
/// utilization with its `(node, dir)`, and the hottest-router/bank
/// tables.
pub fn utilization_rows_json(rows: &[UtilizationRow]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        let agg = r.aggregate();
        let breakdown: Vec<String> = PeActivity::ALL
            .iter()
            .map(|&a| format!("\"{}\": {:.6}", a.name(), agg.fraction(a)))
            .collect();
        let dominant =
            agg.dominant().map_or_else(|| "null".to_owned(), |(a, _)| format!("\"{}\"", a.name()));
        let peak = r.peak_link_utilization().map_or_else(
            || "null".to_owned(),
            |(node, dir, u)| format!("{{\"node\": {node}, \"dir\": {dir}, \"busy\": {u:.4}}}"),
        );
        let routers: Vec<String> =
            r.hottest_routers(4).iter().map(|(n, b)| format!("[{n}, {b}]")).collect();
        let banks: Vec<String> =
            r.hottest_banks(4).iter().map(|(b, p)| format!("[{b}, {p}]")).collect();
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"label\": \"{}\", \"pes\": {}, \
             \"sim_cycles\": {}, \"sample_interval\": {}, \"windows\": {}, \
             \"windows_dropped\": {}, \"attributed_cycles\": {}, \"dominant\": {dominant}, \
             \"breakdown\": {{{}}}, \"peak_link\": {peak}, \
             \"hottest_routers\": [{}], \"hottest_banks\": [{}]}}{}\n",
            row.topology,
            row.label,
            row.pes,
            r.end,
            r.interval,
            r.windows.len(),
            r.windows_dropped,
            agg.total(),
            breakdown.join(", "),
            routers.join(", "),
            banks.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out
}

/// One row of the §III hybrid-vs-SM comparison (experiments E5/E6).
#[derive(Debug, Clone)]
pub struct ModelComparisonRow {
    /// Cores used.
    pub pes: usize,
    /// Cache size (bytes).
    pub cache_bytes: usize,
    /// Cycles/iter, hybrid full message passing.
    pub hybrid_full: Cycle,
    /// Cycles/iter, hybrid sync-only.
    pub sync_only: Cycle,
    /// Cycles/iter, pure shared memory.
    pub pure_sm: Cycle,
}

impl ModelComparisonRow {
    /// Paper metric: pure-SM time over hybrid-full time (≈2×–5×).
    pub fn hybrid_gain(&self) -> f64 {
        self.pure_sm as f64 / self.hybrid_full as f64
    }

    /// Paper metric: pure-SM time over sync-only time (2–20 % below the
    /// full-hybrid gain near the knee).
    pub fn sync_only_gain(&self) -> f64 {
        self.pure_sm as f64 / self.sync_only as f64
    }
}

/// Run the three programming models on identical configurations.
pub fn model_comparison(
    n: usize,
    cache_bytes: usize,
    pe_counts: &[usize],
) -> Vec<ModelComparisonRow> {
    let mut rows = Vec::new();
    for &pes in pe_counts {
        if pes > max_ranks(n) {
            continue;
        }
        let measure = |variant| {
            let point = SweepPoint::new(pes, cache_bytes, CachePolicy::WriteBack);
            let cfg = point.apply(base_builder());
            let workload = JacobiWorkload { jcfg: JacobiConfig::new(n, variant) };
            let prepared = workload.prepare(&cfg);
            let measured = prepared.measured.clone();
            medea_core::system::System::run(&cfg, &prepared.preload, prepared.kernels)
                .expect("comparison run");
            measured.load(std::sync::atomic::Ordering::SeqCst)
        };
        rows.push(ModelComparisonRow {
            pes,
            cache_bytes,
            hybrid_full: measure(JacobiVariant::HybridFullMp),
            sync_only: measure(JacobiVariant::HybridSyncOnly),
            pure_sm: measure(JacobiVariant::PureSharedMemory),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig6_points_fit_grids() {
        for p in fig6_points(Effort::Quick) {
            assert!(p.pes <= 14);
        }
        assert_eq!(fig6_points(Effort::Full).len(), 168);
    }

    #[test]
    fn fig8_is_wb_only() {
        assert!(fig8_points(Effort::Full)
            .iter()
            .all(|p| p.policy == CachePolicy::WriteBack && p.cache_bytes <= 32 * 1024));
    }

    #[test]
    fn series_grouping() {
        let outcomes = jacobi_sweep(
            10,
            JacobiVariant::HybridFullMp,
            &[
                SweepPoint::new(2, 4096, CachePolicy::WriteBack),
                SweepPoint::new(4, 4096, CachePolicy::WriteBack),
            ],
            2,
        );
        let series = exec_time_series(&outcomes);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].label, "4kB $ WB");
        assert_eq!(series[0].points.len(), 2);
        // More cores, fewer cycles on this compute-bound size.
        assert!(series[0].points[1].1 < series[0].points[0].1);
    }

    #[test]
    fn utilization_rows_json_schema() {
        use medea_core::{CycleBreakdown, SampleWindow};
        let mut b = CycleBreakdown::default();
        b.record(PeActivity::Compute, 60);
        b.record(PeActivity::RecvWait, 40);
        let mut link_busy = vec![0u32; 16];
        link_busy[4 * 2 + 1] = 7; // node 2, dir 1
        let report = MetricsReport {
            interval: 10,
            end: 10,
            width: 2,
            height: 2,
            pes: 1,
            banks: 1,
            breakdown: vec![b],
            windows: vec![SampleWindow {
                start: 0,
                end: 10,
                link_busy,
                pe_activity: vec![0],
                pe_arb: vec![0],
                pe_rx: vec![0],
                bank_req: vec![2],
                bank_data: vec![0],
                bank_out: vec![0],
                bank_lock_nacks: vec![0],
                bank_coh_msgs: vec![0],
            }],
            windows_dropped: 0,
        };
        let row =
            UtilizationRow { topology: "2x2".into(), label: "1P_16k$_WB".into(), pes: 1, report };
        let json = utilization_rows_json(&[row]);
        assert!(json.ends_with("}\n") && !json.contains("},\n"), "single row, no comma: {json}");
        assert!(json.contains("\"dominant\": \"compute\""), "{json}");
        assert!(json.contains("\"compute\": 0.600000"), "{json}");
        assert!(
            json.contains("\"peak_link\": {\"node\": 2, \"dir\": 1, \"busy\": 0.7000}"),
            "{json}"
        );
        assert!(json.contains("\"hottest_routers\": [[2, 7]]"), "{json}");
        assert!(json.contains("\"hottest_banks\": [[0, 2]]"), "{json}");
    }

    #[test]
    fn speedup_vs_area_pipeline() {
        let outcomes = jacobi_sweep(
            10,
            JacobiVariant::HybridFullMp,
            &[
                SweepPoint::new(2, 4096, CachePolicy::WriteBack),
                SweepPoint::new(4, 4096, CachePolicy::WriteBack),
                SweepPoint::new(8, 4096, CachePolicy::WriteBack),
            ],
            3,
        );
        let sva = speedup_vs_area(&outcomes);
        assert_eq!(sva.all.len(), 3);
        assert!(!sva.frontier.is_empty());
        assert!(!sva.optimal.is_empty());
        // Slowest point has speedup 1.0 by construction.
        let min = sva.all.iter().map(|p| p.speedup).fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-9, "min speedup {min}");
    }
}
