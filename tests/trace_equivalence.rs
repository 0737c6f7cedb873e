//! Property tests: tracing is observation only.
//!
//! For random small tori, PE counts and workload mixes, a run captured
//! into a `RingSink` (kernel span markers enabled) must produce a
//! `RunResult` identical to the same configuration run untraced
//! (`RunResult::divergence` finds no difference). The ring capacity is also
//! randomized so capture truncation can never feed back into the run.

use medea::core::api::PeApi;
use medea::core::system::{Kernel, System};
use medea::core::{Empi, NullInjector, SystemConfig, Topology};
use medea::sim::rng::SplitMix64;
use medea::trace::RingSink;
use proptest::prelude::*;

/// A seeded, deadlock-free mixed workload: per-rank op soup (compute,
/// cached/uncached memory, coherence, lock-guarded counters), a ring
/// sendrecv exchange, then barrier + allreduce so every layer fires.
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
                    // Ring exchange through the duplex engine (safe for
                    // opposite-direction windowed sends).
                    let rank = comm.rank().index();
                    let ranks = comm.ranks();
                    let next = medea::sim::ids::Rank::new(((rank + 1) % ranks) as u8);
                    let prev = medea::sim::ids::Rank::new(((rank + ranks - 1) % ranks) as u8);
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
