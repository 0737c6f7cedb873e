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
//! * **Tiled sampling is sequential sampling** — the per-tile recorder
//!   forks merge to a [`MetricsReport`] bit-identical to the sequential
//!   engine's at every thread count: same windows, same series, same
//!   per-PE attribution (`MetricsReport` is `PartialEq`; the whole report
//!   is compared at once).
//! * **Renderers emit valid artifacts** — the HTML heatmap's SVG is
//!   well-formed with exactly one cell per directed link, and the shared
//!   `utilization` JSON rows parse.

use medea::core::api::PeApi;
use medea::core::system::{Kernel, RunResult, System};
use medea::core::{Empi, MetricsConfig, PeActivity, SystemConfig, Topology};
use medea::metrics::heatmap::{check_svg_well_formed, render_heatmap_html};
use medea::sim::ids::Rank;
use medea::sim::rng::SplitMix64;
use proptest::prelude::*;

/// Thread counts the tiled sampler must match single-thread at.
const THREADS: [usize; 3] = [2, 3, 4];

fn builder(pes: usize) -> medea::core::SystemConfigBuilder {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000)
}

fn metered(pes: usize, interval: u64, threads: usize) -> SystemConfig {
    builder(pes).metrics(MetricsConfig::every(interval)).host_threads(threads).build().unwrap()
}

/// Seeded, deadlock-free mixed workload (the shape shared with the trace
/// and parallel equivalence suites): per-rank op soup, ring exchange,
/// barrier + allreduce, so every sampled subsystem fires.
fn seeded_kernels(ranks: usize, seed: u64, ops: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                const LOCK: u32 = 0x40;
                const COUNTER: u32 = 0x44;
                let comm = Empi::new(api);
                let mut rng = SplitMix64::new(seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
                let base = comm.private_base();
                for i in 0..ops {
                    match rng.next_u64() % 6 {
                        0 => comm.compute(1 + rng.next_u64() % 64),
                        1 => comm.store_u32(base + (i as u32 % 16) * 4, rng.next_u64() as u32),
                        2 => {
                            let _ = comm.load_u32(base + (i as u32 % 16) * 4);
                        }
                        3 => {
                            comm.flush_line(base);
                            comm.invalidate_line(base);
                        }
                        4 => {
                            comm.uncached_store_u32(0x80 + r as u32 * 4, i as u32);
                            let _ = comm.uncached_load_u32(0x80 + r as u32 * 4);
                        }
                        _ => {
                            comm.lock(LOCK);
                            let v = comm.uncached_load_u32(COUNTER);
                            comm.uncached_store_u32(COUNTER, v + 1);
                            comm.unlock(LOCK);
                        }
                    }
                }
                if comm.ranks() > 1 {
                    let rank = comm.rank().index();
                    let ranks = comm.ranks();
                    let next = Rank::new(((rank + 1) % ranks) as u8);
                    let prev = Rank::new(((rank + ranks - 1) % ranks) as u8);
                    let payload: Vec<u32> = (0..8).map(|i| (rank * 100 + i) as u32).collect();
                    let got = comm.sendrecv(Some(next), &payload, Some(prev)).expect("ring");
                    assert_eq!(got[0] as usize, ((rank + ranks - 1) % ranks) * 100);
                }
                comm.barrier();
                let total = comm.allreduce(r as f64 + 0.25);
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.25).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            }) as Kernel
        })
        .collect()
}

// ---------------------------------------------------------------------
// Pinned paper workloads (shapes shared with tests/golden_determinism.rs)
// ---------------------------------------------------------------------

fn pingpong_kernels() -> Vec<Kernel> {
    let ping: Kernel = Box::new(|api: PeApi| {
        for i in 1..=40u32 {
            api.send_to_rank(Rank::new(1), &[i]);
            let back = api.recv_from_rank(Rank::new(1));
            assert_eq!(back[0], i);
        }
    });
    let pong: Kernel = Box::new(|api: PeApi| {
        for _ in 1..=40u32 {
            let v = api.recv_from_rank(Rank::new(0));
            api.send_to_rank(Rank::new(0), &v);
        }
    });
    vec![ping, pong]
}

fn gather_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                if r == 0 {
                    for src in 1..comm.ranks() {
                        let got = comm.recv(Rank::new(src as u8));
                        assert_eq!(got.len(), 40);
                    }
                } else {
                    let payload: Vec<u32> = (0..40).map(|i| (r * 1000 + i) as u32).collect();
                    comm.send(Rank::new(0), &payload);
                }
            }) as Kernel
        })
        .collect()
}

fn sharedmem_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                const COUNTER: u32 = 0x100;
                const LOCK: u32 = 0x200;
                for _ in 0..6 {
                    api.lock(LOCK);
                    let v = api.uncached_load_u32(COUNTER);
                    api.uncached_store_u32(COUNTER, v + 1);
                    api.unlock(LOCK);
                }
                api.store_f64(api.private_base(), r as f64);
                api.flush_line(api.private_base());
            }) as Kernel
        })
        .collect()
}

/// The paper-4×4 golden fingerprints (literal values carried from
/// `tests/golden_determinism.rs`).
type Pin = (&'static str, fn() -> Vec<Kernel>, usize, (u64, u64, u64, Option<u64>));
fn paper_pins() -> [Pin; 3] {
    [
        ("pingpong", pingpong_kernels, 2, (320, 80, 0, Some(1))),
        ("gather", || gather_kernels(8), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || sharedmem_kernels(5), 5, (2263, 704, 17, Some(5))),
    ]
}

fn fingerprint(r: &RunResult) -> (u64, u64, u64, Option<u64>) {
    (r.cycles, r.fabric_delivered, r.fabric_deflections, r.fabric_max_latency)
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
/// unchanged — sequential and tiled — while a populated report appears.
#[test]
fn metrics_on_reproduces_paper_fingerprints_bit_for_bit() {
    for (name, kernels, pes, pin) in paper_pins() {
        for threads in [1usize, 4] {
            let run = System::run(&metered(pes, 32, threads), &[], kernels()).expect(name);
            assert_eq!(fingerprint(&run), pin, "{name}@{threads}t: live sampling cost cycles");
            let report = run.metrics.as_ref().expect("metered run attaches a report");
            assert!(!report.windows.is_empty(), "{name}: sampler committed no windows");
            assert_eq!(report.end, run.cycles, "{name}: report end is the run end");
            assert_eq!(report.breakdown.len(), pes);
        }
    }
}

// ---------------------------------------------------------------------
// Tiled == sequential, report included
// ---------------------------------------------------------------------

/// The per-tile recorder forks merge to the *identical* report: every
/// sample window, every series, every per-PE breakdown, at every thread
/// count — compared wholesale through `MetricsReport: PartialEq`.
#[test]
fn tiled_sample_series_bit_identical_to_sequential() {
    let cases: [(u8, u8, usize, usize, u64); 4] = [
        // (cols, rows, pes, banks, seed)
        (4, 4, 8, 1, 0xD1CE),
        (4, 4, 12, 4, 0xBEEF),
        (8, 2, 10, 2, 0xCAFE),
        (2, 4, 6, 2, 0xF00D),
    ];
    for (cols, rows, pes, banks, seed) in cases {
        let topo = Topology::new(cols, rows).expect("valid torus");
        let label = format!("{cols}x{rows}/{pes}pe/{banks}bank");
        let build = |threads: usize| {
            SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .cycle_limit(50_000_000)
                .metrics(MetricsConfig::every(48))
                .host_threads(threads)
                .build()
                .unwrap()
        };
        let seq = System::run(&build(1), &[], seeded_kernels(pes, seed, 12)).expect(&label);
        let seq_report = seq.metrics.as_ref().expect("sequential report");
        assert!(seq_report.windows.len() >= 2, "{label}: workload too short to compare series");
        for threads in THREADS {
            let tiled = System::run(&build(threads), &[], seeded_kernels(pes, seed, 12))
                .unwrap_or_else(|e| panic!("{label}@{threads}t: {e}"));
            assert_eq!(tiled.divergence(&seq), None, "{label}@{threads}t");
            assert_eq!(
                tiled.metrics, seq.metrics,
                "{label}@{threads}t: tiled report must be bit-identical"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Attribution accounting
// ---------------------------------------------------------------------

/// Every ticked cycle of every PE is charged to exactly one category:
/// per-PE totals equal the run's cycle count, so fractions sum to 1.0.
#[test]
fn attribution_is_exhaustive_and_exclusive() {
    let run = System::run(&metered(5, 64, 1), &[], sharedmem_kernels(5)).expect("metered run");
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
/// per directed link and a multi-window animation; the shared JSON row
/// emitter produces parseable JSON.
#[test]
fn renderers_emit_valid_artifacts() {
    let run = System::run(&metered(8, 24, 1), &[], seeded_kernels(8, 0x51AB, 12)).expect("run");
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
    let body = medea_bench::utilization_rows_json(&[row]);
    let doc = format!("{{\"rows\": [\n{body}]}}");
    medea::trace::json::validate(&doc).expect("utilization rows must be valid JSON");
    assert!(doc.contains("\"breakdown\""), "{doc}");
}
