//! Coherence-axis equivalence tests.
//!
//! The coherence knob ([`SystemConfigBuilder::coherence`]) must satisfy
//! two contracts, each pinned here:
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
//!
//! A MESI run's directory traffic also surfaces in its trace.
//!
//! [`SystemConfigBuilder::coherence`]: medea::core::SystemConfigBuilder::coherence
//! [`Coherence::Dii`]: medea::core::Coherence

mod common;

use common::{fingerprint, Fingerprint};
use medea::apps::sharing::{self, Discipline, SharingConfig};
use medea::core::{Coherence, CoherenceStats, SystemConfig, Topology};
use medea::trace::{EventClass, NullSink, RingSink};
use proptest::prelude::*;

fn builder(pes: usize, mode: Coherence) -> medea::core::SystemConfigBuilder {
    SystemConfig::builder().compute_pes(pes).coherence(mode).cycle_limit(50_000_000)
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
    let mut sink = RingSink::new(1 << 20);
    let on = sharing::run_traced(&cfg, &scfg, &mut sink).unwrap();
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
// MESI tracing
// ---------------------------------------------------------------------

#[test]
fn mesi_coherence_events_are_traced() {
    let cfg = builder(4, Coherence::MesiDirectory).build().unwrap();
    let mut sink = RingSink::new(1 << 20);
    let out = sharing::run_traced(&cfg, &SharingConfig { rounds: 3 }, &mut sink).unwrap();
    assert!(out.run.coherence.invalidations_sent > 0);
    assert!(
        sink.iter().any(|t| t.event.class().intersects(EventClass::CACHE | EventClass::MEM)),
        "coherence traffic must surface as CACHE/MEM trace events"
    );
}
