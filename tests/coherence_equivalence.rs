//! Coherence-axis equivalence tests.
//!
//! The coherence knob ([`SystemConfigBuilder::coherence`]) must satisfy
//! three contracts, each pinned here:
//!
//! 1. **DII is still the paper, bit for bit.** With the directory
//!    machinery compiled in, the default (and the explicitly-selected)
//!    [`Coherence::Dii`] reproduces literal golden fingerprints — under
//!    the plain engine, under `run_traced` with a `NullSink`, and under
//!    live tracing — and reports exactly zero protocol traffic. The
//!    paper-4×4 workload pins in `golden_determinism.rs` cover the seed
//!    workloads; the pin here covers the sharing workload the coherence
//!    bench section runs.
//! 2. **The modes agree on memory.** A DII-disciplined kernel (flush
//!    after write, invalidate before read, inside critical sections) is
//!    architecturally correct under *both* modes, so the final memory it
//!    produces must be identical under both — on random tori, bank
//!    counts and round counts (property-based).
//! 3. **MESI composes with the tiled engine.** Directory traffic crosses
//!    tile boundaries like any other packets; every observable of a MESI
//!    run — including the new [`CoherenceStats`] — must be bit-identical
//!    at every thread count.
//!
//! [`SystemConfigBuilder::coherence`]: medea::core::SystemConfigBuilder::coherence
//! [`Coherence::Dii`]: medea::core::Coherence
//! [`CoherenceStats`]: medea::core::CoherenceStats

use medea::apps::sharing::{self, Discipline, SharingConfig};
use medea::core::system::RunResult;
use medea::core::{Coherence, CoherenceStats, SystemConfig, Topology};
use medea::trace::{EventClass, NullSink, RingSink, TraceConfig};
use proptest::prelude::*;

fn builder(pes: usize, mode: Coherence) -> medea::core::SystemConfigBuilder {
    SystemConfig::builder().compute_pes(pes).coherence(mode).cycle_limit(50_000_000)
}

/// The engine observables every variant must reproduce bit-identically.
type Fingerprint = (u64, u64, u64, Option<u64>);

fn fingerprint(r: &RunResult) -> Fingerprint {
    (r.cycles, r.fabric_delivered, r.fabric_deflections, r.fabric_max_latency)
}

// ---------------------------------------------------------------------
// 1. DII golden pins
// ---------------------------------------------------------------------

/// Literal fingerprint of the sharing workload (software discipline,
/// 4 ranks × 5 rounds) on the paper 4×4 torus under DII.
const PIN_SHARING_DII_4X4: Fingerprint = (1622, 584, 19, Some(4));

#[test]
fn dii_sharing_fingerprint_pinned_bit_for_bit() {
    let scfg = SharingConfig { rounds: 5 };
    for (name, cfg) in [
        (
            "default",
            SystemConfig::builder().compute_pes(4).cycle_limit(50_000_000).build().unwrap(),
        ),
        ("explicit dii", builder(4, Coherence::Dii).build().unwrap()),
    ] {
        let out = sharing::run(&cfg, &scfg).unwrap();
        assert_eq!(fingerprint(&out.run), PIN_SHARING_DII_4X4, "{name}: fingerprint drifted");
        assert_eq!(out.counters, vec![5; 4], "{name}: wrong final memory");
        assert_eq!(
            out.run.coherence,
            CoherenceStats::default(),
            "{name}: DII must report zero protocol traffic"
        );
    }
}

#[test]
fn dii_sharing_fingerprint_survives_tracing() {
    let scfg = SharingConfig { rounds: 5 };

    // NullSink: tracing compiled away.
    let cfg = builder(4, Coherence::Dii).build().unwrap();
    let off = sharing::run_traced(&cfg, &scfg, &mut NullSink).unwrap();
    assert_eq!(fingerprint(&off.run), PIN_SHARING_DII_4X4, "NullSink perturbed the engine");

    // Live tracing, everything captured.
    let traced = builder(4, Coherence::Dii).trace(TraceConfig::all()).build().unwrap();
    let mut sink = RingSink::new(1 << 20);
    let on = sharing::run_traced(&traced, &scfg, &mut sink).unwrap();
    assert_eq!(fingerprint(&on.run), PIN_SHARING_DII_4X4, "live tracing perturbed the engine");
    assert!(!sink.is_empty(), "a traced run must capture events");
}

// ---------------------------------------------------------------------
// 2. Mode equivalence on final memory (property-based)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The DII-disciplined sharing kernel produces identical final
    /// memory under software DII and under the MESI directory, on
    /// random tori, bank counts, rank counts and round counts.
    #[test]
    fn software_discipline_memory_identical_under_both_modes(
        dims in prop::sample::select(vec![(2u8, 2u8), (4, 2), (2, 4), (4, 4)]),
        banks in prop::sample::select(vec![1usize, 2, 4]),
        pes in 2usize..=5,
        rounds in 2usize..=5,
    ) {
        let topo = Topology::new(dims.0, dims.1).expect("valid torus");
        let banks = banks.min(if topo.nodes() >= 8 { 4 } else { 2 });
        let pes = pes.min(topo.nodes() - banks);
        let build = |mode: Coherence| {
            SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .coherence(mode)
                .cycle_limit(50_000_000)
                .build()
                .expect("config")
        };
        let scfg = SharingConfig { rounds };
        let dii = sharing::run_disciplined(&build(Coherence::Dii), &scfg, Discipline::Software)
            .expect("dii run");
        let mesi =
            sharing::run_disciplined(&build(Coherence::MesiDirectory), &scfg, Discipline::Software)
                .expect("mesi run");
        prop_assert_eq!(&dii.counters, &vec![rounds as u32; pes]);
        prop_assert_eq!(&dii.counters, &mesi.counters);
        prop_assert_eq!(dii.run.coherence.protocol_messages(), 0);
        // The same cached fetches now flow through the directory.
        prop_assert!(mesi.run.coherence.gets + mesi.run.coherence.getm > 0);
    }
}

// ---------------------------------------------------------------------
// 3. MESI × tiled engine determinism
// ---------------------------------------------------------------------

#[test]
fn mesi_tiled_engine_is_bit_identical_to_sequential() {
    let scfg = SharingConfig { rounds: 4 };
    let build = |threads: usize| {
        SystemConfig::builder()
            .compute_pes(6)
            .memory_banks(2)
            .coherence(Coherence::MesiDirectory)
            .cycle_limit(50_000_000)
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let seq = sharing::run(&build(1), &scfg).unwrap();
    assert!(seq.run.coherence.protocol_messages() > 0, "workload must exercise the directory");
    for threads in [2, 3, 4] {
        let par = sharing::run(&build(threads), &scfg).unwrap();
        assert_eq!(par.counters, seq.counters, "threads={threads}: final memory");
        assert_eq!(seq.run.divergence(&par.run), None, "threads={threads}");
    }
}

#[test]
fn mesi_coherence_events_are_traced() {
    let cfg = builder(4, Coherence::MesiDirectory).trace(TraceConfig::all()).build().unwrap();
    let mut sink = RingSink::new(1 << 20);
    let out = sharing::run_traced(&cfg, &SharingConfig { rounds: 3 }, &mut sink).unwrap();
    assert!(out.run.coherence.invalidations_sent > 0);
    assert!(
        sink.iter().any(|t| t.event.class().intersects(EventClass::CACHE | EventClass::MEM)),
        "coherence traffic must surface as CACHE/MEM trace events"
    );
}
