//! Shared-memory synchronization built on the MPMMU lock/unlock protocol
//! (§II-C) — what the paper's "pure shared memory" Jacobi variant uses
//! instead of eMPI tokens.

use medea_cache::Addr;
use medea_core::api::AsyncPeApi;
use medea_sim::Cycle;

/// Cycles a spinning PE waits between polls of the barrier generation
/// word. Each poll is an uncached single-read transaction at the MPMMU —
/// exactly the serialized traffic the paper blames for shared-memory
/// synchronization cost.
pub const SPIN_BACKOFF_CYCLES: Cycle = 8;

/// Addresses of one shared-memory barrier's state (three words, placed on
/// separate cache lines in the shared segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmBarrier {
    /// The MPMMU lock word guarding the counter.
    pub lock: Addr,
    /// Arrival counter.
    pub count: Addr,
    /// Generation (epoch) word spun on by waiters.
    pub generation: Addr,
}

impl SmBarrier {
    /// Lay the three words out at the top of the shared segment.
    pub fn at_top_of_shared(shared_bytes: u32) -> Self {
        assert!(shared_bytes >= 64, "shared segment too small for a barrier");
        SmBarrier {
            lock: shared_bytes - 16,
            count: shared_bytes - 32,
            generation: shared_bytes - 48,
        }
    }

    /// Enter the barrier and block until all `ranks` have arrived.
    ///
    /// Classic centralized sense-reversing barrier: arrival is counted
    /// under the MPMMU lock; the last arrival resets the counter and bumps
    /// the generation; everyone else spins on uncached reads of the
    /// generation word.
    pub async fn wait(&self, api: &AsyncPeApi, ranks: usize) {
        if ranks <= 1 {
            return;
        }
        api.lock(self.lock).await;
        let gen = api.uncached_load_u32(self.generation).await;
        let arrived = api.uncached_load_u32(self.count).await + 1;
        if arrived as usize == ranks {
            api.uncached_store_u32(self.count, 0).await;
            api.uncached_store_u32(self.generation, gen.wrapping_add(1)).await;
            api.unlock(self.lock).await;
        } else {
            api.uncached_store_u32(self.count, arrived).await;
            api.unlock(self.lock).await;
            while api.uncached_load_u32(self.generation).await == gen {
                api.compute(SPIN_BACKOFF_CYCLES).await;
            }
        }
    }
}

/// A single-producer single-consumer mailbox in shared memory: the
/// shared-memory counterpart of a one-word eMPI message, used by the
/// ping-pong microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmMailbox {
    /// Flag word (0 = empty, otherwise sequence number).
    pub flag: Addr,
    /// Payload word.
    pub data: Addr,
}

impl SmMailbox {
    /// Post `value` with sequence number `seq` (nonzero).
    pub async fn post(&self, api: &AsyncPeApi, seq: u32, value: u32) {
        debug_assert_ne!(seq, 0);
        api.uncached_store_u32(self.data, value).await;
        api.uncached_store_u32(self.flag, seq).await;
    }

    /// Spin until sequence number `seq` is posted, then read the payload.
    pub async fn take(&self, api: &AsyncPeApi, seq: u32) -> u32 {
        while api.uncached_load_u32(self.flag).await != seq {
            api.compute(SPIN_BACKOFF_CYCLES).await;
        }
        api.uncached_load_u32(self.data).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_core::system::{System, Task};
    use medea_core::SystemConfig;

    fn cfg(pes: usize) -> SystemConfig {
        SystemConfig::builder().compute_pes(pes).cycle_limit(20_000_000).build().unwrap()
    }

    #[test]
    fn sm_barrier_synchronizes() {
        let sys = cfg(3);
        let bar = SmBarrier::at_top_of_shared(sys.layout().shared_bytes());
        let slow = 30_000u64;
        let kernels: Vec<Task> = (0..3)
            .map(|r| {
                Task::new(move |api| async move {
                    if r == 0 {
                        api.compute(slow).await;
                    }
                    bar.wait(&api, 3).await;
                    assert!(api.now().await >= slow, "rank {r} left the barrier early");
                })
            })
            .collect();
        System::run(&sys, &[], kernels).unwrap();
    }

    #[test]
    fn sm_barrier_reusable_across_iterations() {
        let sys = cfg(2);
        let bar = SmBarrier::at_top_of_shared(sys.layout().shared_bytes());
        let kernels: Vec<Task> = (0..2)
            .map(|r| {
                Task::new(move |api| async move {
                    for it in 0..5u64 {
                        api.compute(1 + r as u64 * 50 + it).await;
                        bar.wait(&api, 2).await;
                    }
                })
            })
            .collect();
        let result = System::run(&sys, &[], kernels).unwrap();
        // 5 barriers × 2 ranks: 10 lock acquisitions at least.
        assert!(result.mpmmu.locks_granted.get() >= 10);
    }

    #[test]
    fn mailbox_roundtrip() {
        let sys = cfg(2);
        let mbox = SmMailbox { flag: 0x40, data: 0x50 };
        let kernels = vec![
            Task::new(move |api| async move {
                mbox.post(&api, 1, 99).await;
                assert_eq!(mbox.take(&api, 2).await, 100);
            }),
            Task::new(move |api| async move {
                assert_eq!(mbox.take(&api, 1).await, 99);
                mbox.post(&api, 2, 100).await;
            }),
        ];
        System::run(&sys, &[], kernels).unwrap();
    }

    #[test]
    fn single_rank_barrier_is_noop() {
        let sys = cfg(1);
        let bar = SmBarrier::at_top_of_shared(sys.layout().shared_bytes());
        let result = System::run(
            &sys,
            &[],
            vec![Task::new(move |api| async move {
                bar.wait(&api, 1).await;
            })],
        )
        .unwrap();
        assert_eq!(result.mpmmu.locks_granted.get(), 0);
    }
}
