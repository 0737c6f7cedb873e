//! Property test for the banked shared memory: on a 2-bank 4×4 system,
//! an arbitrary batch of word writes reads back exactly, and the
//! scheduled engine reproduces the sequential reference engine
//! bit-for-bit (`RunResult::divergence`).

use medea_core::oracle;
use medea_core::system::System;
use medea_core::{SystemConfig, Task};
use proptest::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::builder().compute_pes(3).memory_banks(2).cycle_limit(20_000_000).build().unwrap()
}

/// Three ranks: rank 0 writes the batch (uncached), signals; rank 1 reads
/// every word back and checks it; rank 2 re-reads a cached copy through
/// the L1 so the block path crosses banks too.
fn kernels(writes: Vec<(u32, u32)>) -> Vec<Task> {
    use medea_sim::ids::Rank;
    let w0 = writes.clone();
    let w1 = writes.clone();
    let w2 = writes;
    vec![
        Task::new(move |api| async move {
            for (addr, value) in &w0 {
                api.uncached_store_u32(*addr, *value).await;
            }
            api.send_to_rank(Rank::new(1), &[1]).await;
            api.send_to_rank(Rank::new(2), &[1]).await;
        }),
        Task::new(move |api| async move {
            let _ = api.recv_from_rank(Rank::new(0)).await;
            for (addr, value) in &w1 {
                assert_eq!(api.uncached_load_u32(*addr).await, *value, "read-back at {addr:#x}");
            }
        }),
        Task::new(move |api| async move {
            let _ = api.recv_from_rank(Rank::new(0)).await;
            for (addr, value) in &w2 {
                api.invalidate_line(*addr).await;
                assert_eq!(api.load_u32(*addr).await, *value, "cached read-back at {addr:#x}");
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn banked_write_read_matches_reference(
        raw in proptest::collection::vec((0u32..128, any::<u32>()), 1..24)
    ) {
        // Distinct word addresses (last write wins would complicate the
        // read-back check; distinctness keeps the property sharp).
        let mut writes: Vec<(u32, u32)> = Vec::new();
        for (word, value) in raw {
            let addr = word * 4;
            if !writes.iter().any(|(a, _)| *a == addr) {
                writes.push((addr, value));
            }
        }
        let fast = System::run(&cfg(), &[], kernels(writes.clone())).expect("scheduled engine");
        let slow = oracle::run_reference(&cfg(), &[], kernels(writes)).expect("reference engine");
        prop_assert_eq!(fast.divergence(&slow), None);
        prop_assert_eq!(fast.banks.len(), 2);
    }
}
