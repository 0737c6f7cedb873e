//! Equivalence and validity tests for the `medea-metrics` subsystem.
//!
//! The profiler is observation only, with the same contract tracing and
//! fault injection already pin:
//!
//! * **Metrics-off is the paper** — with the subsystem compiled in but
//!   disabled (the default), the paper-4×4 golden fingerprints hold
//!   verbatim and `RunResult.metrics` stays `None`.
//! * **Metrics-on is free** — for random small tori, PE counts, workload
//!   mixes and sampling intervals, a metered run reproduces the unmetered
//!   `RunResult` (`RunResult::divergence`, property-tested), and the paper
//!   pins hold with live sampling enabled.
//! * **Renderers emit valid artifacts** — the HTML heatmap's SVG is
//!   well-formed with exactly one cell per directed link, and the shared
//!   `utilization` JSON rows parse.

mod common;

use common::{
    any_kernels, fingerprint, gather_kernels, seeded_kernels, sharedmem_kernels, Fingerprint,
};
use medea::apps::workloads::pingpong_kernels;
use medea::core::system::{AnyKernel, System};
use medea::core::{MetricsConfig, PeActivity, SystemConfig, Topology};
use medea::metrics::heatmap::{check_svg_well_formed, render_heatmap_html};
use proptest::prelude::*;

fn builder(pes: usize) -> medea::core::SystemConfigBuilder {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000)
}

fn metered(pes: usize, interval: u64) -> SystemConfig {
    builder(pes).metrics(MetricsConfig::every(interval)).build().unwrap()
}

// ---------------------------------------------------------------------
// Pinned paper workloads (shapes shared with tests/golden_determinism.rs)
// ---------------------------------------------------------------------

/// The paper-4×4 golden fingerprints (literal values carried from
/// `tests/golden_determinism.rs`).
type Pin = (&'static str, fn() -> Vec<AnyKernel>, usize, Fingerprint);
fn paper_pins() -> [Pin; 3] {
    [
        ("pingpong", || any_kernels(pingpong_kernels(40)), 2, (320, 80, 0, Some(1))),
        ("gather", || any_kernels(gather_kernels(8)), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || any_kernels(sharedmem_kernels(5)), 5, (2263, 704, 17, Some(5))),
    ]
}

// ---------------------------------------------------------------------
// Metrics-off: the paper, verbatim
// ---------------------------------------------------------------------

/// With metrics compiled in but disabled (the default config), the
/// golden fingerprints hold and no report is attached.
#[test]
fn metrics_off_reproduces_paper_fingerprints_bit_for_bit() {
    for (name, kernels, pes, pin) in paper_pins() {
        let run = System::run(&builder(pes).build().unwrap(), &[], kernels()).expect(name);
        assert_eq!(fingerprint(&run), pin, "{name}: metrics-off run drifted");
        assert!(run.metrics.is_none(), "{name}: disabled metrics must not attach a report");
    }
}

/// And with live sampling enabled, the architectural fingerprints are
/// unchanged while a populated report appears.
#[test]
fn metrics_on_reproduces_paper_fingerprints_bit_for_bit() {
    for (name, kernels, pes, pin) in paper_pins() {
        let run = System::run(&metered(pes, 32), &[], kernels()).expect(name);
        assert_eq!(fingerprint(&run), pin, "{name}: live sampling cost cycles");
        let report = run.metrics.as_ref().expect("metered run attaches a report");
        assert!(!report.windows.is_empty(), "{name}: sampler committed no windows");
        assert_eq!(report.end, run.cycles, "{name}: report end is the run end");
        assert_eq!(report.breakdown.len(), pes);
    }
}

// ---------------------------------------------------------------------
// Attribution accounting
// ---------------------------------------------------------------------

/// Every ticked cycle of every PE is charged to exactly one category:
/// per-PE totals equal the run's cycle count, so fractions sum to 1.0.
#[test]
fn attribution_is_exhaustive_and_exclusive() {
    let run = System::run(&metered(5, 64), &[], sharedmem_kernels(5)).expect("metered run");
    let report = run.metrics.expect("report");
    for (i, b) in report.breakdown.iter().enumerate() {
        assert_eq!(b.total(), run.cycles, "pe{i}: attribution must cover the whole run");
        let sum: f64 = PeActivity::ALL.iter().map(|&a| b.fraction(a)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "pe{i}: fractions sum to {sum}");
    }
    let agg = report.aggregate();
    assert_eq!(agg.total(), run.cycles * 5, "aggregate covers every PE");
    // The lock-guarded counter workload must actually attribute lock
    // waiting, and nothing can hide in an unknown category.
    assert!(agg.cycles[PeActivity::LockWait.index()] > 0, "sharedmem must show lock-wait");
}

// ---------------------------------------------------------------------
// Property: metering is free
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Metered == unmetered, numerically, on random small tori, PE
    /// counts, bank counts, workloads and sampling intervals.
    #[test]
    fn metered_run_is_bit_identical_to_unmetered(
        dims in prop::sample::select(vec![(2u8, 2u8), (4, 2), (2, 4), (4, 4)]),
        pes in 2usize..=4,
        banks in 1usize..=2,
        seed in any::<u64>(),
        ops in 4usize..=16,
        interval in prop::sample::select(vec![1u64, 7, 32, 256, 10_000]),
    ) {
        let topo = Topology::new(dims.0, dims.1).expect("valid torus");
        let pes = pes.min(topo.nodes() - banks);
        let build = |metrics: MetricsConfig| {
            SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .cycle_limit(50_000_000)
                .metrics(metrics)
                .build()
                .unwrap()
        };
        let off = System::run(&build(MetricsConfig::off()), &[], seeded_kernels(pes, seed, ops))
            .expect("unmetered run");
        let on = System::run(
            &build(MetricsConfig::every(interval)),
            &[],
            seeded_kernels(pes, seed, ops),
        )
        .expect("metered run");
        prop_assert_eq!(on.divergence(&off), None, "metered-vs-off");
        prop_assert!(off.metrics.is_none());
        let report = on.metrics.as_ref().expect("metered run attaches a report");
        prop_assert_eq!(report.end, on.cycles);
        for b in &report.breakdown {
            prop_assert_eq!(b.total(), on.cycles);
        }
    }
}

// ---------------------------------------------------------------------
// Renderer validity
// ---------------------------------------------------------------------

/// The heatmap of a real metered run is well-formed SVG with one cell
/// per directed link and a multi-window animation; the bench report
/// writer turns its utilization sections into a valid document.
#[test]
fn renderers_emit_valid_artifacts() {
    let run = System::run(&metered(8, 24), &[], seeded_kernels(8, 0x51AB, 12)).expect("run");
    let report = run.metrics.expect("report");
    assert!(report.windows.len() >= 2, "need a series to animate");

    let html = render_heatmap_html(&report, "metrics_equivalence");
    let cells = check_svg_well_formed(&html).expect("well-formed SVG");
    assert_eq!(cells, report.nodes() * 4, "one heatmap cell per directed link");
    assert!(html.contains("<animate"), "multi-window reports animate");

    let row = medea_bench::UtilizationRow {
        topology: "4x4".into(),
        label: "metrics_equivalence".into(),
        pes: 8,
        report,
    };
    let mut doc = medea_bench::report::Report::new("metrics_equivalence", "test");
    for table in medea_bench::report::utilization_tables("", &[row]) {
        doc.add(table);
    }
    let doc = doc.to_json(0.0);
    medea::trace::json::validate(&doc).expect("utilization sections must be valid JSON");
    assert!(doc.contains("\"recv-wait\": ") && doc.contains("\"hottest_routers\""), "{doc}");
}
