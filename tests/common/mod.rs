//! Kernels and observables shared by the integration suites, so that
//! every suite pinning a workload runs the same one.

// Each suite uses only some of these helpers.
#![allow(dead_code)]

use medea::core::api::PeApi;
use medea::core::system::{AnyKernel, Kernel, RunResult};
use medea::core::Empi;
use medea::sim::ids::Rank;
use medea::sim::rng::SplitMix64;

/// One kernel list of either kind, for suites that mix the tasks of
/// `medea::apps` with the thread kernels below.
pub fn any_kernels(kernels: Vec<impl Into<AnyKernel>>) -> Vec<AnyKernel> {
    kernels.into_iter().map(Into::into).collect()
}

/// The fields of [`RunResult`] the literal pins fix. Run-over-run checks
/// compare whole results with [`RunResult::divergence`].
pub type Fingerprint = (u64, u64, u64, Option<u64>);

pub fn fingerprint(r: &RunResult) -> Fingerprint {
    (r.cycles, r.fabric_delivered, r.fabric_deflections, r.fabric_max_latency)
}

/// Gather-to-root + broadcast all-reduce, hand-rolled on the
/// communicator's point-to-point ops with a compute phase so timed stalls
/// and traffic interleave. Deliberately NOT `Empi::allreduce`: this is
/// the seed's exact call sequence (barrier, then per-rank send/recv
/// pairs), kept verbatim so the fingerprint pins the same behavior the
/// pre-communicator engine produced.
pub fn reduce_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                comm.compute(50 + 137 * r as u64);
                comm.barrier();
                let mine = r as f64 + 0.5;
                let total = if comm.rank().is_master() {
                    let mut acc = mine;
                    for src in 1..comm.ranks() {
                        acc = comm.fadd(acc, comm.recv_f64(Rank::new(src as u8))[0]);
                    }
                    for dst in 1..comm.ranks() {
                        comm.send_f64(Rank::new(dst as u8), &[acc]);
                    }
                    acc
                } else {
                    comm.send_f64(Rank::new(0), &[mine]);
                    comm.recv_f64(Rank::new(0))[0]
                };
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.5).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            }) as Kernel
        })
        .collect()
}

/// Every rank simultaneously streams a message to rank 0 — heavy
/// contention on the torus and the ejection channel, so the deflection
/// path is actually exercised.
pub fn gather_kernels(ranks: usize) -> Vec<Kernel> {
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

/// Shared-memory traffic through locks, uncached accesses and flushes —
/// the MPMMU-heavy counterpart of the message workloads above.
pub fn sharedmem_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            Box::new(move |api: PeApi| {
                const COUNTER: u32 = 0x100;
                const LOCK: u32 = 0x200;
                for _ in 0..6 {
                    api.lock(LOCK);
                    let v = api.uncached_load_u32(COUNTER);
                    api.uncached_store_u32(COUNTER, v + 1);
                    api.unlock(LOCK);
                }
                api.store_f64(api.private_base(), r as f64);
                api.flush_line(api.private_base());
            }) as Kernel
        })
        .collect()
}

/// Seeded mixed op soup + ring exchange + barrier + allreduce: every
/// layer (cache, MPMMU, TIE, collectives) fires with data-dependent
/// timing.
pub fn seeded_kernels(ranks: usize, seed: u64, ops: usize) -> Vec<Kernel> {
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
                    let next = Rank::new(((rank + 1) % ranks) as u8);
                    let prev = Rank::new(((rank + ranks - 1) % ranks) as u8);
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
