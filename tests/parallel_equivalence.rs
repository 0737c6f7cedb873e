//! Equivalence tests for `SystemConfigBuilder::host_threads`.
//!
//! Every run takes the one cycle driver on the calling thread. The
//! builder still accepts and validates `host_threads(n)` because the
//! repository benchmark sets it, but the value selects nothing, so a run
//! at any `host_threads` must be observationally indistinguishable from
//! the default run, bit for bit. These tests pin that contract three ways:
//!
//! * **Numeric equivalence** — for a seeded mixed op-soup, a run at
//!   2/3/4/7 host threads reproduces the single-thread `RunResult`
//!   (`RunResult::divergence` finds no difference), across tori, PE
//!   counts and bank counts.
//! * **Golden fingerprints** — the paper-4×4 pins (literal values carried
//!   from `tests/golden_determinism.rs`) hold verbatim at
//!   `host_threads(4)`.
//! * **Hooked runs** — a run with a live trace sink, fault injector and
//!   metrics is the same run at any thread count: same result, same event
//!   sequence, same metrics report.
//!
//! Error paths are part of the contract too: a deadlocked workload and a
//! retransmission livelock caught by the watchdog or running into the
//! cycle limit must each produce the *identical* `RunError` (cycle and
//! diagnostic string included) at every thread count.

mod common;

use common::{any_kernels, gather_kernels, reduce_kernels, seeded_kernels, sharedmem_kernels};
use medea::apps::workloads::pingpong_kernels;
use medea::core::api::PeApi;
use medea::core::system::{AnyKernel, Kernel, System};
use medea::core::{
    DeadLink, Empi, FaultConfig, MetricsConfig, ResilienceConfig, RunError, ScheduledInjector,
    SystemConfig, Topology,
};
use medea::sim::ids::Rank;
use medea::sim::Cycle;
use medea::trace::RingSink;

/// Thread counts a run must match single-thread at: even and odd,
/// dividing and not dividing the node count.
const THREADS: [usize; 4] = [2, 3, 4, 7];

fn cfg(pes: usize, threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .compute_pes(pes)
        .cycle_limit(50_000_000)
        .host_threads(threads)
        .build()
        .unwrap()
}

fn cfg_on(topo: Topology, pes: usize, banks: usize, threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .topology(topo)
        .compute_pes(pes)
        .memory_banks(banks)
        .cycle_limit(50_000_000)
        .host_threads(threads)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------
// Numeric equivalence
// ---------------------------------------------------------------------

/// Mixed workloads across tori (square, rectangular, minimal), PE
/// counts and multi-bank layouts: every thread count equals one thread.
#[test]
fn mixed_workloads_across_topologies_and_banks() {
    let cases: [(u8, u8, usize, usize, u64); 5] = [
        // (cols, rows, pes, banks, seed)
        (4, 4, 8, 1, 0xD1CE),
        (4, 4, 12, 4, 0xBEEF),
        (8, 2, 10, 2, 0xCAFE),
        (2, 4, 6, 2, 0xF00D),
        (2, 2, 3, 1, 0x5EED),
    ];
    for (cols, rows, pes, banks, seed) in cases {
        let topo = Topology::new(cols, rows).expect("valid torus");
        let label = format!("{cols}x{rows}/{pes}pe/{banks}bank");
        let seq = System::run(&cfg_on(topo, pes, banks, 1), &[], seeded_kernels(pes, seed, 12))
            .expect(&label);
        for threads in THREADS {
            let run =
                System::run(&cfg_on(topo, pes, banks, threads), &[], seeded_kernels(pes, seed, 12))
                    .unwrap_or_else(|e| panic!("{label}@{threads}t: {e}"));
            assert_eq!(run.divergence(&seq), None, "{label}@{threads}t");
        }
    }
}

/// Requesting more threads than the host has — or than the torus has
/// nodes — is accepted and still matches.
#[test]
fn oversubscribed_thread_counts_still_match() {
    let topo = Topology::new(2, 2).expect("valid torus");
    let seq = System::run(&cfg_on(topo, 3, 1, 1), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
    for threads in [4, 16, 64] {
        let run =
            System::run(&cfg_on(topo, 3, 1, threads), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
        assert_eq!(run.divergence(&seq), None, "2x2@{threads}t");
    }
}

// ---------------------------------------------------------------------
// Golden fingerprints at host_threads(4)
// ---------------------------------------------------------------------

/// The paper-4×4 pins from `tests/golden_determinism.rs`, verbatim, at
/// four host threads. This anchors a run that sets `host_threads` to the
/// *historical* engine behavior, not merely to the current build's.
#[test]
fn paper_4x4_fingerprints_hold_at_four_threads() {
    type Pin = (&'static str, fn() -> Vec<AnyKernel>, usize, (u64, u64, u64, Option<u64>));
    let pins: [Pin; 4] = [
        ("pingpong", || any_kernels(pingpong_kernels(40)), 2, (320, 80, 0, Some(1))),
        ("reduce", || any_kernels(reduce_kernels(6)), 6, (960, 50, 0, Some(3))),
        ("gather", || any_kernels(gather_kernels(8)), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || any_kernels(sharedmem_kernels(5)), 5, (2263, 704, 17, Some(5))),
    ];
    for (name, kernels, pes, pin) in pins {
        let run = System::run(&cfg(pes, 4), &[], kernels()).expect(name);
        let got =
            (run.cycles, run.fabric_delivered, run.fabric_deflections, run.fabric_max_latency);
        assert_eq!(got, pin, "{name}: host_threads(4) drifted from the paper fingerprint");
    }
}

// ---------------------------------------------------------------------
// Hooked runs
// ---------------------------------------------------------------------

/// A run with all three hooks live — a trace sink, a fault injector
/// whose schedule fires corruption and a link kill, and metrics — is the
/// same run at one and at four host threads: same result, same trace
/// event sequence, same metrics report.
#[test]
fn hooked_run_is_identical_at_every_thread_count() {
    let schedule = FaultConfig { seed: 0x400C, flit_corrupt_ppm: 30_000, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 5, dir: 1, at: 200 });
    let run = |threads: usize| {
        let sys = SystemConfig::builder()
            .compute_pes(8)
            .memory_banks(2)
            .cycle_limit(50_000_000)
            .resilience(ResilienceConfig {
                empi_retransmit: true,
                empi_timeout: 2_000,
                ..ResilienceConfig::off()
            })
            .metrics(MetricsConfig::every(64))
            .host_threads(threads)
            .build()
            .expect("hooked 8-PE configuration");
        let mut sink = RingSink::new(1 << 20);
        let mut injector = ScheduledInjector::new(schedule);
        let result =
            System::run_with(&sys, &[], seeded_kernels(8, 0x7ACE, 10), &mut sink, &mut injector)
                .unwrap_or_else(|e| panic!("hooked run @{threads}t: {e}"));
        assert_eq!(sink.dropped(), 0, "ring too small to compare losslessly");
        let events: Vec<_> = sink.iter().copied().collect();
        (result, events)
    };
    let (seq, seq_events) = run(1);
    assert!(seq.fault.flits_corrupted > 0, "corruption fired");
    assert_eq!(seq.fault.links_killed, 1, "the link kill fired");
    assert!(seq.metrics.is_some(), "metered run attaches a report");
    let (four, events) = run(4);
    assert_eq!(four.divergence(&seq), None, "hooked@4t");
    assert_eq!(events, seq_events, "trace event sequence @4t");
    assert_eq!(four.metrics, seq.metrics, "metrics report @4t");
}

// ---------------------------------------------------------------------
// Error-path equivalence
// ---------------------------------------------------------------------

/// Two kernels each blocked receiving from the other: the deadlock must
/// be detected at the same cycle with the same diagnostic string at
/// every thread count.
#[test]
fn deadlock_detection_is_identical() {
    let kernels = || -> Vec<Kernel> {
        vec![
            Box::new(|api: PeApi| {
                let _ = api.recv_from_rank(Rank::new(1));
            }),
            Box::new(|api: PeApi| {
                let _ = api.recv_from_rank(Rank::new(0));
            }),
        ]
    };
    let seq = System::run(&cfg(2, 1), &[], kernels()).expect_err("must deadlock");
    for threads in THREADS {
        let err = System::run(&cfg(2, threads), &[], kernels()).expect_err("must deadlock");
        assert_eq!(err, seq, "RunError @{threads}t");
    }
}

/// Thread counts the error-path pins run at: the default and two more.
const ERROR_THREADS: [usize; 3] = [1, 2, 3];

/// The 2-PE NACK livelock of `tests/fault_injection.rs`: rank 0 receives
/// from a rank 1 that finishes without sending, and resilient delivery
/// keeps NACK traffic flowing so deadlock detection never fires.
fn livelock_kernels() -> Vec<Kernel> {
    vec![
        Box::new(|api: PeApi| {
            let _ = Empi::new(api).recv(Rank::new(1));
        }),
        Box::new(|api: PeApi| Empi::new(api).compute(10)),
    ]
}

/// The livelock's `RunError` at `threads` host threads.
fn livelock_error(watchdog: Cycle, threads: usize) -> RunError {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(120_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 1_000,
            watchdog_cycles: watchdog,
            ..ResilienceConfig::off()
        })
        .host_threads(threads)
        .build()
        .expect("resilient 2-PE configuration");
    System::run(&sys, &[], livelock_kernels()).expect_err("the livelock never completes")
}

/// Watchdog and cycle-limit errors are identical — cycle and diagnostic
/// string included — at every thread count.
#[test]
fn livelock_errors_are_identical_at_every_thread_count() {
    for watchdog in [40_000, 0] {
        let label = format!("watchdog {watchdog}");
        let seq = livelock_error(watchdog, 1);
        if watchdog > 0 {
            assert!(matches!(seq, RunError::Watchdog { .. }), "{label}: {seq}");
        } else {
            assert!(matches!(seq, RunError::CycleLimit { .. }), "{label}: {seq}");
        }
        for threads in &ERROR_THREADS[1..] {
            let err = livelock_error(watchdog, *threads);
            assert_eq!(err, seq, "{label}: RunError @{threads}t");
        }
    }
}
