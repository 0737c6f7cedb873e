//! Property tests: tracing is observation only.
//!
//! For random small tori, PE counts and workload mixes, a run captured
//! into a `RingSink` (kernel span markers enabled) must produce a
//! `RunResult` identical to the same configuration run untraced
//! (`RunResult::divergence` finds no difference). The ring capacity is also
//! randomized so capture truncation can never feed back into the run.

mod common;

use common::seeded_kernels;
use medea::core::system::System;
use medea::core::{NullInjector, SystemConfig, Topology};
use medea::trace::RingSink;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RingSink-traced == untraced, numerically, on random small tori.
    #[test]
    fn ring_traced_run_is_bit_identical_to_untraced(
        dims in prop::sample::select(vec![(2u8, 2u8), (4, 2), (2, 4), (4, 4)]),
        pes in 2usize..=4,
        seed in any::<u64>(),
        ops in 4usize..=16,
        capacity_shift in 6usize..=20,
    ) {
        let topo = Topology::new(dims.0, dims.1).expect("valid torus");
        let pes = pes.min(topo.nodes() - 1);
        let cfg = SystemConfig::builder()
            .topology(topo)
            .compute_pes(pes)
            .cycle_limit(50_000_000)
            .build()
            .expect("config");
        let untraced = System::run(&cfg, &[], seeded_kernels(pes, seed, ops)).expect("untraced");
        let mut sink = RingSink::new(1 << capacity_shift);
        let traced = System::run_with(&cfg, &[], seeded_kernels(pes, seed, ops), &mut sink, &mut NullInjector)
            .expect("traced");
        prop_assert!(!sink.is_empty(), "traced run captured nothing");
        prop_assert_eq!(traced.divergence(&untraced), None);
    }
}
