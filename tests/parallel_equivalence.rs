//! Equivalence tests for the tiled parallel cycle engine.
//!
//! The tiled engine (`host_threads > 1`) is a *performance* feature with a
//! *correctness* contract: it must be observationally indistinguishable
//! from the sequential engine, bit for bit. These tests pin that contract
//! three ways:
//!
//! * **Numeric equivalence** — for every pinned paper workload and a
//!   seeded mixed op-soup, a run at 2/3/4/7 host threads reproduces the
//!   single-thread `RunResult` (`RunResult::divergence` finds no
//!   difference), across tori, PE counts and bank counts.
//! * **Golden fingerprints** — the paper-4×4 pins (literal values carried
//!   from `tests/golden_determinism.rs`) hold verbatim at
//!   `host_threads(4)`. The parallel engine is not "equivalent to
//!   itself"; it is equivalent to the pre-parallel engine.
//! * **Trace equivalence** — a `RingSink` capture of a tiled run contains,
//!   per cycle, exactly the same multiset of events as the sequential
//!   capture. Within a cycle the tiled merge is tile-major while the
//!   sequential engine is phase-major, so order inside a cycle is not
//!   pinned — the multiset is.
//!
//! Error paths are part of the contract too: a deadlocked workload, a
//! retransmission livelock caught by the watchdog and the same livelock
//! running into the cycle limit must each produce the *identical*
//! `RunError` (cycle and diagnostic string included) at every thread
//! count, with and without a live fault injector. So must a fault-heavy
//! 8×8 Jacobi solve that recovers, down to its `FaultStats`.

use std::collections::HashMap;

use medea::apps::jacobi::{self, JacobiConfig, JacobiVariant};
use medea::core::api::PeApi;
use medea::core::system::{Kernel, System};
use medea::core::{
    DeadLink, Empi, FaultConfig, NullInjector, ResilienceConfig, RunError, ScheduledInjector,
    SystemConfig, Topology,
};
use medea::sim::ids::Rank;
use medea::sim::rng::SplitMix64;
use medea::sim::Cycle;
use medea::trace::{NullSink, RingSink, TraceConfig};

/// Thread counts the tiled engine must match single-thread at: even and
/// odd, dividing and not dividing the node count.
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
// Workloads (shapes shared with tests/golden_determinism.rs)
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

fn reduce_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                comm.compute(50 + 137 * r as u64);
                comm.barrier();
                let mine = r as f64 + 0.5;
                let total = if comm.rank().is_master() {
                    let mut acc = mine;
                    for src in 1..comm.ranks() {
                        acc = comm.fadd(acc, comm.recv_f64(Rank::new(src as u8))[0]);
                    }
                    for dst in 1..comm.ranks() {
                        comm.send_f64(Rank::new(dst as u8), &[acc]);
                    }
                    acc
                } else {
                    comm.send_f64(Rank::new(0), &[mine]);
                    comm.recv_f64(Rank::new(0))[0]
                };
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.5).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            }) as Kernel
        })
        .collect()
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

/// Seeded mixed op soup + ring exchange + barrier + allreduce: every
/// layer (cache, MPMMU, TIE, collectives) fires with data-dependent
/// timing, so cross-tile arbitration order is genuinely stressed.
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
// Numeric equivalence
// ---------------------------------------------------------------------

/// The four pinned paper workloads, tiled at every thread count, equal
/// the sequential run counter for counter on the paper 4×4 torus.
#[test]
fn paper_workloads_tiled_match_sequential() {
    type Factory = fn() -> Vec<Kernel>;
    let workloads: [(&str, Factory, usize); 4] = [
        ("pingpong", pingpong_kernels as Factory, 2),
        ("reduce", (|| reduce_kernels(6)) as Factory, 6),
        ("gather", (|| gather_kernels(8)) as Factory, 8),
        ("sharedmem", (|| sharedmem_kernels(5)) as Factory, 5),
    ];
    for (name, kernels, pes) in workloads {
        let seq = System::run(&cfg(pes, 1), &[], kernels()).expect(name);
        for threads in THREADS {
            let tiled = System::run(&cfg(pes, threads), &[], kernels()).expect(name);
            assert_eq!(tiled.divergence(&seq), None, "{name}@{threads}t");
        }
    }
}

/// Mixed workloads across tori (square, rectangular, minimal), PE
/// counts and multi-bank layouts: tiled == sequential everywhere.
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
            let tiled =
                System::run(&cfg_on(topo, pes, banks, threads), &[], seeded_kernels(pes, seed, 12))
                    .unwrap_or_else(|e| panic!("{label}@{threads}t: {e}"));
            assert_eq!(tiled.divergence(&seq), None, "{label}@{threads}t");
        }
    }
}

/// Requesting more threads than the host has — or than the torus has
/// nodes — degrades gracefully and still matches.
#[test]
fn oversubscribed_thread_counts_still_match() {
    let topo = Topology::new(2, 2).expect("valid torus");
    let seq = System::run(&cfg_on(topo, 3, 1, 1), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
    for threads in [4, 16, 64] {
        let tiled =
            System::run(&cfg_on(topo, 3, 1, threads), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
        assert_eq!(tiled.divergence(&seq), None, "2x2@{threads}t");
    }
}

// ---------------------------------------------------------------------
// Golden fingerprints at host_threads(4)
// ---------------------------------------------------------------------

/// The paper-4×4 pins from `tests/golden_determinism.rs`, verbatim, at
/// four host threads. This anchors the tiled engine to the *historical*
/// sequential behavior, not merely to the current build's.
#[test]
fn paper_4x4_fingerprints_hold_at_four_threads() {
    type Pin = (&'static str, fn() -> Vec<Kernel>, usize, (u64, u64, u64, Option<u64>));
    let pins: [Pin; 4] = [
        ("pingpong", pingpong_kernels, 2, (320, 80, 0, Some(1))),
        ("reduce", || reduce_kernels(6), 6, (960, 50, 0, Some(3))),
        ("gather", || gather_kernels(8), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || sharedmem_kernels(5), 5, (2263, 704, 17, Some(5))),
    ];
    for (name, kernels, pes, pin) in pins {
        let run = System::run(&cfg(pes, 4), &[], kernels()).expect(name);
        let got =
            (run.cycles, run.fabric_delivered, run.fabric_deflections, run.fabric_max_latency);
        assert_eq!(got, pin, "{name}: tiled engine drifted from the paper fingerprint");
    }
}

// ---------------------------------------------------------------------
// Trace equivalence
// ---------------------------------------------------------------------

/// Per-cycle event multisets, keyed by the event's `Debug` rendering
/// (`TraceEvent` is `Eq` but not `Ord`/`Hash`, and the rendering is
/// total and injective over the variants).
fn per_cycle_multisets(sink: &RingSink) -> HashMap<Cycle, Vec<String>> {
    let mut by_cycle: HashMap<Cycle, Vec<String>> = HashMap::new();
    for te in sink.iter() {
        by_cycle.entry(te.at).or_default().push(format!("{:?}", te.event));
    }
    for events in by_cycle.values_mut() {
        events.sort();
    }
    by_cycle
}

/// A tiled traced run captures, per cycle, the same multiset of events
/// as the sequential run — the tile-order merge loses only intra-cycle
/// ordering, never events.
#[test]
fn traced_capture_matches_sequential_per_cycle() {
    let build = |threads: usize| {
        SystemConfig::builder()
            .compute_pes(8)
            .memory_banks(2)
            .cycle_limit(50_000_000)
            .trace(TraceConfig::all())
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let mut seq_sink = RingSink::new(1 << 20);
    let seq = System::run_with(
        &build(1),
        &[],
        seeded_kernels(8, 0x7ACE, 10),
        &mut seq_sink,
        &mut NullInjector,
    )
    .expect("sequential traced");
    assert!(seq_sink.dropped() == 0, "ring too small to compare losslessly");
    let seq_events = per_cycle_multisets(&seq_sink);
    for threads in THREADS {
        let mut sink = RingSink::new(1 << 20);
        let tiled = System::run_with(
            &build(threads),
            &[],
            seeded_kernels(8, 0x7ACE, 10),
            &mut sink,
            &mut NullInjector,
        )
        .expect("tiled traced");
        assert_eq!(tiled.divergence(&seq), None, "traced@{threads}t");
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.len(), seq_sink.len(), "event count @{threads}t");
        let tiled_events = per_cycle_multisets(&sink);
        assert_eq!(tiled_events, seq_events, "per-cycle event multisets @{threads}t");
    }
}

// ---------------------------------------------------------------------
// Error-path equivalence
// ---------------------------------------------------------------------

/// Two kernels each blocked receiving from the other: the tiled engine
/// must detect the deadlock at the same cycle with the same diagnostic
/// string at every thread count.
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
        let tiled = System::run(&cfg(2, threads), &[], kernels()).expect_err("must deadlock");
        assert_eq!(tiled, seq, "RunError @{threads}t");
    }
}

/// Thread counts the fault and error-path pins run at: the sequential
/// engine and two tilings.
const FAULT_THREADS: [usize; 3] = [1, 2, 3];

/// Corruption, two link kills, bank drops and delays and PE stalls under
/// an 8×8 16-PE Jacobi solve with every recovery mechanism on: the run
/// recovers, and its `RunResult` — injected `FaultStats` included — is
/// identical at every thread count.
#[test]
fn faulted_jacobi_is_identical_at_every_thread_count() {
    let schedule = FaultConfig {
        seed: 0xFA_0516,
        flit_corrupt_ppm: 4_000,
        bank_drop_ppm: 5_000,
        bank_delay_ppm: 10_000,
        bank_delay_cycles: 25,
        pe_stall_ppm: 1_000,
        pe_stall_cycles: 15,
        ..FaultConfig::default()
    }
    .kill_link(DeadLink { node: 0, dir: 1, at: 400 })
    .kill_link(DeadLink { node: 27, dir: 0, at: 1_500 });
    let jcfg = JacobiConfig::new(18, JacobiVariant::HybridFullMp)
        .with_warmup_iters(0)
        .with_measured_iters(1);
    let run = |threads: usize| {
        let sys = SystemConfig::builder()
            .topology(Topology::new(8, 8).expect("8x8 torus"))
            .compute_pes(16)
            .cycle_limit(200_000_000)
            .resilience(ResilienceConfig {
                empi_timeout: 2_000,
                bridge_timeout: 1_000,
                ..ResilienceConfig::standard()
            })
            .host_threads(threads)
            .build()
            .expect("resilient 16-PE configuration");
        let mut injector = ScheduledInjector::new(schedule);
        jacobi::run_faulted(&sys, &jcfg, &mut NullSink, &mut injector)
            .unwrap_or_else(|e| panic!("faulted Jacobi @{threads}t: {e}"))
            .run
    };
    let seq = run(1);
    assert_eq!(seq.fault.links_killed, 2, "both scheduled link kills fire");
    assert!(seq.fault.flits_corrupted > 0, "corruption fired");
    assert!(seq.fault.bank_drops + seq.fault.bank_delays > 0, "bank faults fired");
    assert!(seq.fault.pe_stalls > 0, "PE stalls fired");
    assert!(seq.retransmits() > 0 && seq.bridge_retries() > 0, "recovery engaged");
    for threads in &FAULT_THREADS[1..] {
        assert_eq!(run(*threads).divergence(&seq), None, "faulted jacobi@{threads}t");
    }
}

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

/// The livelock's `RunError` at `threads` host threads, optionally under
/// a live fault schedule.
fn livelock_error(watchdog: Cycle, faults: Option<FaultConfig>, threads: usize) -> RunError {
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
    let outcome = match faults {
        Some(schedule) => {
            let mut injector = ScheduledInjector::new(schedule);
            System::run_with(&sys, &[], livelock_kernels(), &mut NullSink, &mut injector)
        }
        None => System::run(&sys, &[], livelock_kernels()),
    };
    outcome.expect_err("the livelock never completes")
}

/// Watchdog and cycle-limit errors, with and without faults, are
/// identical — cycle and diagnostic string, fault tail included — at
/// every thread count.
#[test]
fn livelock_errors_are_identical_at_every_thread_count() {
    let faults = FaultConfig {
        seed: 0x11FE,
        flit_corrupt_ppm: 50_000,
        bank_drop_ppm: 20_000,
        bank_delay_ppm: 20_000,
        bank_delay_cycles: 9,
        ..FaultConfig::default()
    }
    .kill_link(DeadLink { node: 1, dir: 1, at: 300 })
    .kill_link(DeadLink { node: 2, dir: 2, at: 2_000 });
    for (watchdog, faults) in [(40_000, None), (40_000, Some(faults)), (0, None), (0, Some(faults))]
    {
        let label = format!("watchdog {watchdog}, faults {}", faults.is_some());
        let seq = livelock_error(watchdog, faults, 1);
        if watchdog > 0 {
            assert!(matches!(seq, RunError::Watchdog { .. }), "{label}: {seq}");
        } else {
            assert!(matches!(seq, RunError::CycleLimit { .. }), "{label}: {seq}");
        }
        if faults.is_some() {
            assert!(seq.to_string().contains("recent faults"), "{label}: {seq}");
        }
        for threads in &FAULT_THREADS[1..] {
            let tiled = livelock_error(watchdog, faults, *threads);
            assert_eq!(tiled, seq, "{label}: RunError @{threads}t");
        }
    }
}
