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

mod common;

use common::{fingerprint, gather_kernels, seeded_kernels, Fingerprint};
use medea::apps::workloads::pingpong_kernels;
use medea::core::system::{System, Task};
use medea::core::{FaultConfig, ScheduledInjector, SystemConfig, Topology};
use medea::trace::NullSink;
use proptest::prelude::*;

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

fn cfg(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

/// One-word ping-pong over raw TIE messages, 40 round trips.
const PIN_PINGPONG: Fingerprint = (320, 80, 0, Some(1));
/// Every rank streams a message to rank 0: the deflection-heavy pin.
const PIN_GATHER: Fingerprint = (695, 343, 5081, Some(187));

/// One pinned workload: name, kernel factory, PE count, expected pin.
type PinnedCase = (&'static str, fn() -> Vec<Task>, usize, Fingerprint);

/// The paper fingerprints survive both the `NullInjector` fast path and a
/// live rate-0 `ScheduledInjector`, with the retransmission protocol
/// compiled in (but idle: resilience defaults off).
#[test]
fn golden_fingerprints_pinned_under_both_injectors() {
    let pins: [PinnedCase; 2] = [
        ("pingpong", || pingpong_kernels(40), 2, PIN_PINGPONG),
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
