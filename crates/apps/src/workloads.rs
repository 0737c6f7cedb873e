//! Reusable kernel factories for harnesses that drive the engine
//! directly (tracing, equivalence tests, benches) rather than through a
//! self-measuring workload runner like [`crate::pingpong::run`].
//!
//! The factories return plain kernel vectors so callers choose the run
//! entry point — `System::run`, `System::run_with`, or the reference
//! engine — and the single definition keeps the CI trace artifact and
//! the integration tests validating the *same* workload.

use medea_core::api::PeApi;
use medea_core::system::Kernel;
use medea_core::Empi;
use medea_sim::ids::Rank;

/// One-word ping-pong over raw TIE messages between ranks 0 and 1,
/// `rounds` round trips (needs a 2-PE system).
pub fn pingpong_kernels(rounds: u32) -> Vec<Kernel> {
    let ping: Kernel = Box::new(move |api: PeApi| {
        for i in 1..=rounds {
            api.send_to_rank(Rank::new(1), &[i]);
            let back = api.recv_from_rank(Rank::new(1));
            assert_eq!(back[0], i);
        }
    });
    let pong: Kernel = Box::new(move |api: PeApi| {
        for _ in 1..=rounds {
            let v = api.recv_from_rank(Rank::new(0));
            api.send_to_rank(Rank::new(0), &v);
        }
    });
    vec![ping, pong]
}

/// Every-layer mix: `lock_rounds` lock-guarded uncached counter
/// increments, cached stores with flush/invalidate/reload, a barrier
/// and a self-checked allreduce per rank — messages, cache, MPMMU/lock
/// and eMPI collective activity on one timeline (the workload behind
/// `trace_json --workload mixed` and the trace integration tests).
pub fn trace_mix_kernels(ranks: usize, lock_rounds: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                const COUNTER: u32 = 0x100;
                const LOCK: u32 = 0x200;
                let comm = Empi::new(api);
                for _ in 0..lock_rounds {
                    comm.lock(LOCK);
                    let v = comm.uncached_load_u32(COUNTER);
                    comm.uncached_store_u32(COUNTER, v + 1);
                    comm.unlock(LOCK);
                }
                comm.store_f64(comm.private_base(), r as f64);
                comm.flush_line(comm.private_base());
                comm.invalidate_line(comm.private_base());
                let _ = comm.load_f64(comm.private_base());
                comm.barrier();
                let total = comm.allreduce(r as f64 + 0.5);
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.5).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            }) as Kernel
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_core::system::System;
    use medea_core::SystemConfig;

    #[test]
    fn pingpong_and_mix_run_to_completion() {
        let cfg2 = SystemConfig::builder().compute_pes(2).build().unwrap();
        let run = System::run(&cfg2, &[], pingpong_kernels(3)).unwrap();
        assert_eq!(run.pe[0].engine.packets_sent.get(), 3);

        let cfg4 = SystemConfig::builder().compute_pes(4).build().unwrap();
        let run = System::run(&cfg4, &[], trace_mix_kernels(4, 2)).unwrap();
        assert_eq!(run.mpmmu.locks_granted.get(), 8);
        assert!(run.fabric_delivered > 0);
    }
}
