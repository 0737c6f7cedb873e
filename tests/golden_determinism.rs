//! Golden determinism tests for the cycle engine's hot path.
//!
//! Committed *before* the zero-allocation/activity-scheduled rewrite of
//! the router, network and cycle engine: these tests pin the observable
//! behavior of full-system runs — exact cycle counts, delivered-flit
//! counts and deflection counts — so engine work is provably
//! behavior-preserving. Any optimization that changes one of these
//! numbers is a functional change, not an optimization.
//!
//! The workloads run through the `Empi` communicator with its default
//! `Linear` algorithm, which reproduces the seed's rank-0-centred message
//! patterns — keeping `Linear` the default is precisely what pins the
//! paper-4×4 fingerprints. The tree algorithms get their own stability
//! pins below.

mod common;

use common::{
    any_kernels, fingerprint, gather_kernels, reduce_kernels, sharedmem_kernels, Fingerprint,
};
use medea::apps::hotspot::{self, HotspotConfig};
use medea::apps::jacobi::{self, JacobiConfig, JacobiVariant};
use medea::apps::workloads::pingpong_kernels;
use medea::core::api::PeApi;
use medea::core::system::{AnyKernel, Kernel, System};
use medea::core::{CollectiveAlgo, Empi, MetricsConfig, NullInjector, SystemConfig, Topology};
use medea::sim::ids::Rank;
use medea::trace::{NullSink, RingSink};

fn cfg(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

/// Like [`cfg`] but with the bank count written out explicitly.
fn cfg_banked(pes: usize, banks: usize) -> SystemConfig {
    SystemConfig::builder()
        .compute_pes(pes)
        .memory_banks(banks)
        .cycle_limit(50_000_000)
        .build()
        .unwrap()
}

/// A pinned workload: name, kernel factory, PE count, expected print.
type PinnedWorkload = (&'static str, fn() -> Vec<AnyKernel>, usize, Fingerprint);

/// The same reduction through the library collective — the surface the
/// per-algorithm fingerprint test pins.
fn allreduce_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                comm.compute(50 + 137 * r as u64);
                comm.barrier();
                let total = comm.allreduce(r as f64 + 0.5);
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.5).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            }) as Kernel
        })
        .collect()
}

/// The four pinned paper-4×4 workloads with their literal fingerprints
/// (captured from the pre-bank single-MPMMU engine).
fn paper_pins() -> [PinnedWorkload; 4] {
    [
        ("pingpong", || any_kernels(pingpong_kernels(40)), 2, (320, 80, 0, Some(1))),
        ("reduce", || any_kernels(reduce_kernels(6)), 6, (960, 50, 0, Some(3))),
        ("gather", || any_kernels(gather_kernels(8)), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || any_kernels(sharedmem_kernels(5)), 5, (2263, 704, 17, Some(5))),
    ]
}

/// The paper-4×4 fingerprints, pinned as literal values captured from the
/// pre-bank single-MPMMU engine. The banked refactor (and any future
/// engine work) must reproduce them bit-for-bit with the default
/// configuration AND with an explicit `memory_banks(1)` — the single-bank
/// system IS the paper's system, not an approximation of it.
#[test]
fn paper_4x4_fingerprints_pinned_bit_for_bit() {
    for (name, kernels, pes, pin) in paper_pins() {
        let default_run = System::run(&cfg(pes), &[], kernels()).expect(name);
        assert_eq!(fingerprint(&default_run), pin, "{name}: default configuration drifted");
        let one_bank = System::run(&cfg_banked(pes, 1), &[], kernels()).expect(name);
        assert_eq!(
            fingerprint(&one_bank),
            pin,
            "{name}: memory_banks(1) must reproduce the paper fingerprint"
        );
    }
    // The shared-memory pin extends to the MPMMU counters themselves.
    let run = System::run(&cfg_banked(5, 1), &[], sharedmem_kernels(5)).unwrap();
    assert_eq!(run.mpmmu.single_writes.get(), 30);
    assert_eq!(run.mpmmu.locks_granted.get(), 30);
    assert_eq!(run.banks.len(), 1);
}

/// Tracing must be free: every paper-4×4 fingerprint is reproduced
/// bit-for-bit by `run_with` with a `NullSink` (tracing compiled away)
/// AND with a live `RingSink` (kernel span markers included). Events are
/// observations, never actors.
#[test]
fn tracing_reproduces_paper_fingerprints_bit_for_bit() {
    for (name, kernels, pes, pin) in paper_pins() {
        let off = System::run_with(&cfg(pes), &[], kernels(), &mut NullSink, &mut NullInjector)
            .expect(name);
        assert_eq!(fingerprint(&off), pin, "{name}: NullSink perturbed the engine");

        let mut sink = RingSink::new(1 << 20);
        let on =
            System::run_with(&cfg(pes), &[], kernels(), &mut sink, &mut NullInjector).expect(name);
        assert_eq!(fingerprint(&on), pin, "{name}: live tracing perturbed the engine");
        assert!(!sink.is_empty(), "{name}: a traced run must capture events");

        // Markers without a sink are unperturbed too: metrics turn them
        // on for the profiler, and they flow, cost zero cycles, and are
        // discarded by the NullSink.
        let metered = SystemConfig::builder()
            .compute_pes(pes)
            .cycle_limit(50_000_000)
            .metrics(MetricsConfig::every(64))
            .build()
            .unwrap();
        let markers_only = System::run(&metered, &[], kernels()).expect(name);
        assert_eq!(fingerprint(&markers_only), pin, "{name}: span markers cost cycles");
    }
}

#[test]
fn two_bank_8x8_fingerprint_pinned_bit_for_bit() {
    // The banked counterpart of the paper-4×4 literal pins: a fully
    // populated 8×8 torus with two MPMMU banks under the memory-hot
    // hotspot workload, pinned to exact cycle, delivery, deflection and
    // per-bank transaction counts — bank placement and interleaving
    // cannot drift silently, even by a change that shifts every run of a
    // rebuilt binary the same way.
    let run = || {
        let sys = SystemConfig::builder()
            .topology(Topology::new(8, 8).expect("8x8 torus"))
            .compute_pes(62)
            .memory_banks(2)
            .cycle_limit(200_000_000)
            .build()
            .expect("62-PE 2-bank configuration");
        hotspot::run(&sys, &HotspotConfig { ops_per_rank: 6 }).expect("2-bank hotspot run")
    };
    let a = run();
    assert_eq!(fingerprint(&a.run), PIN_2BANK_8X8, "2-bank 8x8 fingerprint drifted");
    assert_eq!(a.cycles, PIN_2BANK_8X8_WINDOW, "hotspot window drifted");
    assert_eq!(a.run.banks.len(), 2);
    for (bank, pin) in a.run.banks.iter().zip(PIN_2BANK_8X8_PER_BANK) {
        assert_eq!(bank.node.index(), pin.0, "bank placement drifted");
        assert_eq!(bank.mpmmu.single_reads.get(), pin.1, "bank {} reads drifted", bank.node);
        assert_eq!(bank.mpmmu.single_writes.get(), pin.2, "bank {} writes drifted", bank.node);
    }
    // The interleave splits the strided traffic evenly over both banks.
    let (w0, w1) =
        (a.run.banks[0].mpmmu.single_writes.get(), a.run.banks[1].mpmmu.single_writes.get());
    assert_eq!(w0 + w1, 62 * 6);
    assert_eq!(w0, w1, "even/odd line split must be exact for a line-strided walk");
    // And run-over-run determinism still holds.
    let b = run();
    assert_eq!(fingerprint(&b.run), PIN_2BANK_8X8);
    assert_eq!(a.run.divergence(&b.run), None);
}

/// Literal 2-bank 8×8 hotspot fingerprint (captured at introduction).
const PIN_2BANK_8X8: Fingerprint = (11417, 2476, 936, Some(62));
/// Rank 0's measured hotspot window for the same run.
const PIN_2BANK_8X8_WINDOW: u64 = 10735;
/// Per-bank `(node, single_reads, single_writes)` for the same run.
const PIN_2BANK_8X8_PER_BANK: [(usize, u64, u64); 2] = [(0, 186, 186), (4, 186, 186)];

#[test]
fn pingpong_fingerprint_stable_across_runs() {
    let run = || System::run(&cfg(2), &[], pingpong_kernels(40)).expect("pingpong run");
    let a = run();
    assert_eq!(a.divergence(&run()), None);
    assert!(a.fabric_delivered > 0, "pingpong must use the fabric");
}

#[test]
fn reduce_fingerprint_stable_across_runs() {
    let run = || System::run(&cfg(6), &[], reduce_kernels(6)).expect("reduce run");
    let a = run();
    assert_eq!(a.divergence(&run()), None);
    assert!(a.fabric_delivered > 0, "reduce must use the fabric");
}

#[test]
fn gather_fingerprint_stable_and_deflecting() {
    let run = || System::run(&cfg(8), &[], gather_kernels(8)).expect("gather run");
    let a = run();
    assert_eq!(a.divergence(&run()), None);
    // Seven concurrent senders into one ejection channel: the deflection
    // path must actually fire, and its count must be reproduced exactly.
    assert!(a.fabric_deflections > 0, "gather must exercise deflection");
}

#[test]
fn collective_fingerprints_stable_per_algorithm_and_distinct() {
    // Each algorithm is bit-deterministic run over run, and the three
    // genuinely schedule different traffic (if two fingerprints collided
    // the "pluggable" dispatch would not be doing anything).
    let run = |algo: CollectiveAlgo| {
        let cfg = SystemConfig::builder()
            .compute_pes(7)
            .collective_algo(algo)
            .cycle_limit(50_000_000)
            .build()
            .unwrap();
        System::run(&cfg, &[], allreduce_kernels(7)).expect("collective run")
    };
    let mut prints = Vec::new();
    for algo in CollectiveAlgo::ALL {
        let a = run(algo);
        assert_eq!(a.divergence(&run(algo)), None, "{algo} not deterministic");
        prints.push(fingerprint(&a));
    }
    assert_ne!(prints[0], prints[1], "linear and binomial must differ");
    assert_ne!(prints[0], prints[2], "linear and doubling must differ");
    assert_ne!(prints[1], prints[2], "binomial and doubling must differ");
}

#[test]
fn duplex_exchange_fingerprint_stable_across_runs() {
    // The full-duplex sendrecv engine (polling included) must be exactly
    // as deterministic as plain send/recv: a windowed symmetric exchange
    // plus a chained halo shape, fingerprinted run over run.
    let kernels = || -> Vec<Kernel> {
        (0..4)
            .map(|r| {
                Box::new(move |api: PeApi| {
                    let comm = Empi::new(api);
                    let payload: Vec<u32> = (0..64).map(|i| (r * 100 + i) as u32).collect();
                    // Symmetric pairwise exchange: 0<->1, 2<->3.
                    let peer = Some(Rank::new((r ^ 1) as u8));
                    let got = comm.sendrecv(peer, &payload, peer).expect("duplex");
                    assert_eq!(got.len(), 64);
                    // Chained exchange: r -> r+1.
                    let ranks = comm.ranks();
                    let next = (r + 1 < ranks).then(|| Rank::new((r + 1) as u8));
                    let prev = (r > 0).then(|| Rank::new((r - 1) as u8));
                    let _ = comm.sendrecv(next, &payload, prev);
                }) as Kernel
            })
            .collect()
    };
    let run = || System::run(&cfg(4), &[], kernels()).expect("duplex run");
    let a = run();
    assert_eq!(a.divergence(&run()), None);
    assert!(a.fabric_delivered > 0);
}

#[test]
fn jacobi_8x8_63pe_fingerprint_stable_across_runs() {
    // Topology-generic assembly pinned bit-for-bit: a fully populated
    // 8x8 torus (63 compute PEs, one interior row each) must reproduce
    // exact cycle, delivery and deflection counts run over run.
    let run = || {
        let sys = SystemConfig::builder()
            .topology(Topology::new(8, 8).expect("8x8 torus"))
            .compute_pes(63)
            .cycle_limit(400_000_000)
            .build()
            .expect("63-PE configuration");
        let jcfg = JacobiConfig::new(65, JacobiVariant::HybridFullMp)
            .with_warmup_iters(0)
            .with_measured_iters(1);
        jacobi::run(&sys, &jcfg).expect("8x8 Jacobi run")
    };
    let a = run();
    assert_eq!(fingerprint(&a.run), PIN_JACOBI_8X8_63PE, "63-PE 8x8 Jacobi fingerprint drifted");
    assert_eq!(
        a.cycles_per_iter, PIN_JACOBI_8X8_63PE_CPI,
        "63-PE 8x8 cycles per iteration drifted"
    );
    let b = run();
    assert_eq!(a.run.divergence(&b.run), None);
    assert_eq!(a.cycles_per_iter, b.cycles_per_iter);
    assert!(a.run.fabric_delivered > 0, "63-PE Jacobi must use the fabric");
    assert_eq!(a.run.pe.len(), 63);
}

/// Literal 63-PE 8×8 Jacobi fingerprint (n = 65, one measured
/// iteration), captured from the thread-kernel engine before the apps
/// became polled tasks.
const PIN_JACOBI_8X8_63PE: Fingerprint = (453087, 79700, 2907, Some(62));
/// Rank 0's measured cycles per iteration for the same run.
const PIN_JACOBI_8X8_63PE_CPI: u64 = 452394;

#[test]
fn per_pe_stats_stable_across_runs() {
    // The engine rewrite must not change *per-PE* counters either (a PE
    // ticked a different number of times would show up here first).
    let run = || System::run(&cfg(4), &[], reduce_kernels(4)).expect("run");
    assert_eq!(run().divergence(&run()), None);
}
