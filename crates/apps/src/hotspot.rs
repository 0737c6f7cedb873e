//! Shared-memory hotspot microbenchmark: every rank hammers the MPMMU
//! with uncached single-word transactions.
//!
//! This is the workload that exposes the §II-C bottleneck the paper
//! warns about: each uncached store is a full request → grant → data →
//! ack handshake and each uncached load a request → data round trip, all
//! serialized inside the owning MPMMU bank. With one bank every
//! transaction of every rank queues at node 0; with N address-interleaved
//! banks ([`SystemConfigBuilder::memory_banks`]) the same traffic spreads
//! over N independent slaves, which is precisely what the
//! `memory_banks` section of `BENCH_scaling.json` measures.
//!
//! Each rank walks its own line-strided slice of the shared segment
//! (`line = rank + i × ranks`), so no two ranks ever touch the same line
//! and results are fully checkable: every rank reads back exactly what it
//! wrote. When the bank count divides the rank count (every
//! fully-populated bench configuration), the line interleave partitions
//! the *ranks* over the banks — all of rank r's traffic lands on bank
//! `r mod N`, so each bank serializes 1/N of the ranks; otherwise a
//! rank's successive operations rotate through the banks. Either way the
//! single bank's full serialization is what goes away.
//!
//! [`SystemConfigBuilder::memory_banks`]: medea_core::SystemConfigBuilder::memory_banks

use medea_cache::LINE_BYTES;
use medea_core::system::{RunError, RunResult, System, Task};
use medea_core::{AsyncEmpi, SystemConfig};
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotspotConfig {
    /// Store+load round trips each rank performs.
    pub ops_per_rank: usize,
}

/// Result of a run.
#[derive(Debug)]
pub struct HotspotOutcome {
    /// Engine result (per-bank MPMMU stats included).
    pub run: RunResult,
    /// Measured cycles between the start and end barrier, at rank 0.
    pub cycles: Cycle,
}

/// The value rank `r` writes on its `i`-th operation (checked on
/// read-back inside the kernel).
fn encode(rank: usize, i: usize) -> u32 {
    (rank as u32) << 16 | (i as u32 & 0xFFFF)
}

/// Run the benchmark.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if the strided slices do not fit the shared segment.
pub fn run(sys: &SystemConfig, hcfg: &HotspotConfig) -> Result<HotspotOutcome, RunError> {
    let window = Arc::new(AtomicU64::new(0));
    let run = System::run(sys, &[], kernels(sys, hcfg, Arc::clone(&window)))?;
    Ok(HotspotOutcome { run, cycles: window.load(Ordering::SeqCst) })
}

/// The benchmark's kernels, one per configured PE, for driving an engine
/// directly ([`run`] hands them to [`System::run`]). Rank 0 stores its
/// measured cycles between the start and end barrier into `window`.
///
/// # Panics
///
/// Panics if the strided slices do not fit the shared segment.
pub fn kernels(sys: &SystemConfig, hcfg: &HotspotConfig, window: Arc<AtomicU64>) -> Vec<Task> {
    let ranks = sys.compute_pes();
    let ops = hcfg.ops_per_rank;
    let lines_needed = (ranks * ops) as u64 * LINE_BYTES as u64;
    assert!(
        lines_needed <= sys.layout().shared_bytes() as u64,
        "{ranks} ranks x {ops} ops need {lines_needed} shared bytes, have {}",
        sys.layout().shared_bytes()
    );
    (0..ranks)
        .map(|r| {
            let cell = Arc::clone(&window);
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                let ranks = comm.ranks();
                let addr = |i: usize| ((r + i * ranks) * LINE_BYTES) as u32;
                comm.barrier().await;
                let t0 = comm.now().await;
                for i in 0..ops {
                    comm.uncached_store_u32(addr(i), encode(r, i)).await;
                }
                for i in 0..ops {
                    let got = comm.uncached_load_u32(addr(i)).await;
                    assert_eq!(got, encode(r, i), "rank {r} op {i}");
                }
                comm.barrier().await;
                if r == 0 {
                    cell.store(comm.now().await - t0, Ordering::SeqCst);
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_core::Topology;

    fn sys(pes: usize, banks: usize) -> SystemConfig {
        SystemConfig::builder()
            .compute_pes(pes)
            .memory_banks(banks)
            .cycle_limit(50_000_000)
            .build()
            .unwrap()
    }

    #[test]
    fn single_bank_correct() {
        let outcome = run(&sys(4, 1), &HotspotConfig { ops_per_rank: 8 }).unwrap();
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.run.mpmmu.single_writes.get(), 32);
        assert_eq!(outcome.run.mpmmu.single_reads.get(), 32);
    }

    #[test]
    fn multi_bank_correct_and_spread() {
        let outcome = run(&sys(4, 2), &HotspotConfig { ops_per_rank: 8 }).unwrap();
        // Same transaction totals, now spread over both banks.
        assert_eq!(outcome.run.mpmmu.single_writes.get(), 32);
        assert_eq!(outcome.run.mpmmu.single_reads.get(), 32);
        for bank in &outcome.run.banks {
            assert!(bank.mpmmu.single_writes.get() > 0, "bank {} idle", bank.node);
        }
    }

    #[test]
    fn multi_bank_beats_single_bank_when_memory_hot() {
        // The acceptance shape of the BENCH_scaling `memory_banks`
        // section, at test scale: a fully populated 8×8 torus, fixed
        // per-rank work, fewer serialized transactions per bank.
        let t8 = Topology::new(8, 8).unwrap();
        let mk = |banks: usize| {
            SystemConfig::builder()
                .topology(t8)
                .compute_pes(60)
                .memory_banks(banks)
                .cycle_limit(200_000_000)
                .build()
                .unwrap()
        };
        let hcfg = HotspotConfig { ops_per_rank: 6 };
        let one = run(&mk(1), &hcfg).unwrap();
        let four = run(&mk(4), &hcfg).unwrap();
        assert!(
            four.cycles < one.cycles,
            "4 banks ({}) must beat 1 bank ({}) at 60 ranks",
            four.cycles,
            one.cycles
        );
    }
}
