//! Property + golden tests: fault injection is pay-for-what-you-inject.
//!
//! Two guarantees pin the zero-cost claim of `medea-fault`:
//!
//! * **Compile-time**: `System::run` instantiates the engine with
//!   `NullInjector`, so every fault hook monomorphizes away — the golden
//!   paper-4×4 fingerprints (literal values carried from
//!   `tests/golden_determinism.rs`) must hold bit-for-bit with the fault
//!   machinery and the resilient eMPI protocol compiled into the binary.
//! * **Run-time**: a live `ScheduledInjector` whose schedule is all-zero
//!   (`FaultConfig::default()` with any seed) must also be observation
//!   free — for random tori, PE counts and workload mixes, a rate-0
//!   faulted run reproduces the unfaulted `RunResult`
//!   (`RunResult::divergence` finds no difference).

use medea::core::api::PeApi;
use medea::core::system::{Kernel, RunResult, System};
use medea::core::{Empi, FaultConfig, ScheduledInjector, SystemConfig, Topology};
use medea::sim::rng::SplitMix64;
use medea::trace::NullSink;
use proptest::prelude::*;

/// A seeded, deadlock-free mixed workload (same shape as the trace
/// equivalence suite): per-rank op soup, a ring sendrecv exchange, then
/// barrier + allreduce so every layer fires.
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

    /// A rate-0 `ScheduledInjector` (ACTIVE = true, schedule inert) is
    /// numerically invisible on random small tori.
    #[test]
    fn rate_zero_injector_is_bit_identical_to_null(
        dims in prop::sample::select(vec![(2u8, 2u8), (4, 2), (2, 4), (4, 4)]),
        pes in 2usize..=4,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        ops in 4usize..=16,
    ) {
        let topo = Topology::new(dims.0, dims.1).expect("valid torus");
        let pes = pes.min(topo.nodes() - 1);
        let cfg = SystemConfig::builder()
            .topology(topo)
            .compute_pes(pes)
            .cycle_limit(50_000_000)
            .build()
            .expect("config");
        let clean = System::run(&cfg, &[], seeded_kernels(pes, seed, ops)).expect("clean");
        let schedule = FaultConfig { seed: fault_seed, ..FaultConfig::default() };
        prop_assert!(schedule.is_inert());
        let mut injector = ScheduledInjector::new(schedule);
        let faulted = System::run_with(
            &cfg,
            &[],
            seeded_kernels(pes, seed, ops),
            &mut NullSink,
            &mut injector,
        )
        .expect("rate-0 faulted");
        prop_assert_eq!(faulted.divergence(&clean), None);
        prop_assert_eq!(faulted.fault.total(), 0, "inert schedule must inject nothing");
    }
}

// ---- golden paper-4×4 pins (literals carried from golden_determinism) ----

type Fingerprint = (u64, u64, u64, Option<u64>);

fn fingerprint(r: &RunResult) -> Fingerprint {
    (r.cycles, r.fabric_delivered, r.fabric_deflections, r.fabric_max_latency)
}

fn cfg(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

/// One-word ping-pong over raw TIE messages, 40 round trips — must pin
/// (320, 80, 0, Some(1)) exactly as before the fault/resilience work.
fn pingpong_kernels() -> Vec<Kernel> {
    use medea::sim::ids::Rank;
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

/// Every rank streams a message to rank 0 — the deflection-heavy pin
/// (695, 343, 5081, Some(187)).
fn gather_kernels(ranks: usize) -> Vec<Kernel> {
    use medea::sim::ids::Rank;
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

const PIN_PINGPONG: Fingerprint = (320, 80, 0, Some(1));
const PIN_GATHER: Fingerprint = (695, 343, 5081, Some(187));

/// One pinned workload: name, kernel factory, PE count, expected pin.
type PinnedCase = (&'static str, fn() -> Vec<Kernel>, usize, Fingerprint);

/// The paper fingerprints survive both the `NullInjector` fast path and a
/// live rate-0 `ScheduledInjector`, with the retransmission protocol
/// compiled in (but idle: resilience defaults off).
#[test]
fn golden_fingerprints_pinned_under_both_injectors() {
    let pins: [PinnedCase; 2] = [
        ("pingpong", pingpong_kernels, 2, PIN_PINGPONG),
        ("gather", || gather_kernels(8), 8, PIN_GATHER),
    ];
    for (name, kernels, pes, pin) in pins {
        let null_run = System::run(&cfg(pes), &[], kernels()).expect(name);
        assert_eq!(fingerprint(&null_run), pin, "{name}: NullInjector drifted the pin");
        assert_eq!(null_run.fault.total(), 0);
        assert_eq!(null_run.retransmits(), 0, "{name}: idle resilience must not retransmit");

        let mut injector = ScheduledInjector::new(FaultConfig { seed: 99, ..Default::default() });
        let zero_rate =
            System::run_with(&cfg(pes), &[], kernels(), &mut NullSink, &mut injector).expect(name);
        assert_eq!(fingerprint(&zero_rate), pin, "{name}: rate-0 injector drifted the pin");
        assert_eq!(zero_rate.fault.total(), 0);
    }
}
