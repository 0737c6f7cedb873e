//! All-reduce (global sum) in message-passing and shared-memory flavours —
//! the collective behind convergence tests in iterative solvers, and
//! another direct MP-vs-SM synchronization comparison. The MP flavour is
//! [`AsyncEmpi::allreduce`], so the communicator's configured algorithm
//! (linear, binomial tree, recursive doubling) is what gets measured.

use crate::sm::SmBarrier;
use medea_core::system::{RunError, System, Task};
use medea_core::{AsyncEmpi, SystemConfig};
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How the reduction is communicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceTransport {
    /// [`AsyncEmpi::allreduce`] over the NoC (algorithm per the system config).
    MessagePassing,
    /// Lock-protected accumulator word in shared memory + SM barrier.
    SharedMemory,
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct ReduceReport {
    /// Cycles from start barrier to every rank holding the sum.
    pub cycles: Cycle,
    /// The reduced value every rank observed (they must agree).
    pub sum: f64,
}

const ACC_LO: u32 = 0x100; // shared accumulator (f64, two words)
const LOCK: u32 = 0x140;

/// All-reduce the per-rank values `contribution(rank)` and verify that
/// every rank observes the same sum.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run(
    sys: &SystemConfig,
    transport: ReduceTransport,
    contribution: fn(usize) -> f64,
) -> Result<ReduceReport, RunError> {
    let window = Arc::new(AtomicU64::new(0));
    let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let kernels = kernels(sys, transport, contribution, Arc::clone(&window), Arc::clone(&sums));
    System::run(sys, &[], kernels)?;
    let sums = Arc::try_unwrap(sums).expect("kernels done").into_inner().expect("sink");
    let first = sums[0];
    for s in &sums {
        assert_eq!(s.to_bits(), first.to_bits(), "ranks disagree on the reduction");
    }
    Ok(ReduceReport { cycles: window.load(Ordering::SeqCst), sum: first })
}

/// The benchmark's kernels, one per configured PE. Rank 0 stores the
/// measured cycles into `window`; every rank pushes the sum it observed
/// to `sums`.
pub fn kernels(
    sys: &SystemConfig,
    transport: ReduceTransport,
    contribution: fn(usize) -> f64,
    window: Arc<AtomicU64>,
    sums: Arc<Mutex<Vec<f64>>>,
) -> Vec<Task> {
    let bar = SmBarrier::at_top_of_shared(sys.layout().shared_bytes());
    (0..sys.compute_pes())
        .map(|r| {
            let cell = Arc::clone(&window);
            let sums = Arc::clone(&sums);
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                let mine = contribution(r);
                comm.barrier().await;
                let t0 = comm.now().await;
                let total = match transport {
                    ReduceTransport::MessagePassing => comm.allreduce(mine).await,
                    ReduceTransport::SharedMemory => {
                        // Accumulate under the MPMMU lock, then rendezvous
                        // at the SM barrier and read the total back.
                        comm.lock(LOCK).await;
                        let acc = comm.uncached_load_f64(ACC_LO).await;
                        let acc = comm.fadd(acc, mine).await;
                        comm.uncached_store_f64(ACC_LO, acc).await;
                        comm.unlock(LOCK).await;
                        bar.wait(&comm, comm.ranks()).await;
                        comm.uncached_load_f64(ACC_LO).await
                    }
                };
                if r == 0 {
                    cell.store(comm.now().await - t0, Ordering::SeqCst);
                }
                sums.lock().expect("reduce sink").push(total);
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(pes: usize) -> SystemConfig {
        SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
    }

    fn half(r: usize) -> f64 {
        r as f64 + 0.5
    }

    #[test]
    fn mp_reduce_sums() {
        let rep = run(&sys(4), ReduceTransport::MessagePassing, half).unwrap();
        assert_eq!(rep.sum, 0.5 + 1.5 + 2.5 + 3.5);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn sm_reduce_sums() {
        let rep = run(&sys(4), ReduceTransport::SharedMemory, half).unwrap();
        // Lock-serialized accumulation: order is deterministic only in
        // total, and addition here is exact (halves), so compare exactly.
        assert_eq!(rep.sum, 8.0);
    }

    #[test]
    fn single_rank_trivial() {
        let rep = run(&sys(1), ReduceTransport::MessagePassing, half).unwrap();
        assert_eq!(rep.sum, 0.5);
    }

    #[test]
    fn mp_reduce_beats_sm() {
        let mp = run(&sys(6), ReduceTransport::MessagePassing, half).unwrap();
        let sm = run(&sys(6), ReduceTransport::SharedMemory, half).unwrap();
        assert!(mp.cycles < sm.cycles, "MP {} !< SM {}", mp.cycles, sm.cycles);
    }

    #[test]
    fn all_algorithms_agree_on_the_sum() {
        // Halves sum exactly in FP, so every accumulation order must give
        // identical bits — and every rank must observe the same value
        // (asserted inside run()).
        use medea_core::CollectiveAlgo;
        for algo in CollectiveAlgo::ALL {
            for pes in [2usize, 5, 7, 8] {
                let sys = SystemConfig::builder()
                    .compute_pes(pes)
                    .collective_algo(algo)
                    .cycle_limit(50_000_000)
                    .build()
                    .unwrap();
                let rep = run(&sys, ReduceTransport::MessagePassing, half).unwrap();
                let expect: f64 = (0..pes).map(half).sum();
                assert_eq!(rep.sum, expect, "{algo} at {pes} ranks");
            }
        }
    }
}
