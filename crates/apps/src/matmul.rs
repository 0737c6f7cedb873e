//! Block-row parallel matrix multiply — the first "standard parallel
//! benchmark" of the paper's future-work list, exercising a
//! compute-dominated kernel with a different cache footprint than Jacobi.
//!
//! `C = A × B` with `A`'s rows block-distributed; `B` is replicated into
//! every rank's private segment at load time (a common small-matrix
//! strategy that keeps all traffic private/cacheable); each rank computes
//! its row band and the results are collected for validation.

use crate::RowSink;
use medea_cache::Addr;
use medea_core::calib::LOOP_OVERHEAD_CYCLES;
use medea_core::system::{RunError, RunResult, System, Task};
use medea_core::{AsyncEmpi, SystemConfig};
use medea_pe::kernel_if::f64_to_words;
use medea_sim::ids::Rank;
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Matrix side.
    pub n: usize,
}

/// Result of a run.
#[derive(Debug)]
pub struct MatmulOutcome {
    /// Engine result.
    pub run: RunResult,
    /// Measured cycles for the multiply (after the start barrier).
    pub cycles: Cycle,
    /// Collected `C` rows `(row, values)`.
    pub c_rows: Vec<(usize, Vec<f64>)>,
}

/// Deterministic test matrices.
pub fn matrix_a(n: usize) -> Vec<f64> {
    (0..n * n).map(|k| ((k % 7) as f64) * 0.5 + 1.0).collect()
}

/// Deterministic test matrices.
pub fn matrix_b(n: usize) -> Vec<f64> {
    (0..n * n).map(|k| ((k % 5) as f64) * 0.25 - 0.5).collect()
}

/// Host-side reference multiply with the kernel's accumulation order.
pub fn reference(n: usize) -> Vec<f64> {
    let a = matrix_a(n);
    let b = matrix_b(n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn rows_of(n: usize, ranks: usize, rank: usize) -> (usize, usize) {
    let base = n / ranks;
    let rem = n % ranks;
    let start = rank * base + rank.min(rem);
    (start, start + base + usize::from(rank < rem))
}

/// Run the benchmark.
///
/// Layout per rank (private segment): its `A` row band, the full `B`, and
/// its `C` row band.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if more PEs than rows are configured or the data does not fit
/// the private segment.
pub fn run(sys: &SystemConfig, mcfg: &MatmulConfig) -> Result<MatmulOutcome, RunError> {
    let window = Arc::new(AtomicU64::new(0));
    let sink: RowSink = Arc::new(Mutex::new(Vec::new()));
    let kernels = kernels(sys, mcfg, Arc::clone(&window), Arc::clone(&sink));
    let run = System::run(sys, &preload(sys, mcfg), kernels)?;
    let mut c_rows = Arc::try_unwrap(sink).expect("kernels done").into_inner().expect("sink");
    c_rows.sort_by_key(|(gi, _)| *gi);
    Ok(MatmulOutcome { run, cycles: window.load(Ordering::SeqCst), c_rows })
}

/// Offset of `B` in rank `r`'s private segment (after its `A` band); `C`
/// follows `B`.
fn b_offset(n: usize, ranks: usize, r: usize) -> u32 {
    let (s, e) = rows_of(n, ranks, r);
    ((e - s) * n * 8) as u32
}

/// The DDR preload: every rank's `A` band and a full copy of `B`.
///
/// # Panics
///
/// Panics if more PEs than rows are configured or the data does not fit
/// the private segment.
pub fn preload(sys: &SystemConfig, mcfg: &MatmulConfig) -> Vec<(Addr, u32)> {
    let n = mcfg.n;
    let ranks = sys.compute_pes();
    assert!(ranks <= n, "more PEs than matrix rows");
    let a = matrix_a(n);
    let b = matrix_b(n);
    let mut preload = Vec::new();
    for r in 0..ranks {
        let base = sys.layout().private_base(Rank::new(r as u8));
        let (s, e) = rows_of(n, ranks, r);
        let b_off = b_offset(n, ranks, r);
        let need = b_off + (n * n * 8) as u32 + ((e - s) * n * 8) as u32;
        assert!(need <= sys.layout().private_bytes(), "matrices do not fit private segment");
        for (li, gi) in (s..e).enumerate() {
            for k in 0..n {
                let (lo, hi) = f64_to_words(a[gi * n + k]);
                let addr = base + ((li * n + k) * 8) as u32;
                preload.push((addr, lo));
                preload.push((addr + 4, hi));
            }
        }
        for (k, &bv) in b.iter().enumerate() {
            let (lo, hi) = f64_to_words(bv);
            let addr = base + b_off + (k * 8) as u32;
            preload.push((addr, lo));
            preload.push((addr + 4, hi));
        }
    }
    preload
}

/// The benchmark's kernels, one per configured PE, over the
/// [`preload`]ed data. Rank 0 stores the measured multiply cycles into
/// `window`; every rank ships its `C` rows to `sink`.
pub fn kernels(
    sys: &SystemConfig,
    mcfg: &MatmulConfig,
    window: Arc<AtomicU64>,
    sink: RowSink,
) -> Vec<Task> {
    let n = mcfg.n;
    (0..sys.compute_pes())
        .map(|r| {
            let cell = Arc::clone(&window);
            let sink = Arc::clone(&sink);
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                let base = comm.private_base();
                let (s, e) = rows_of(n, comm.ranks(), r);
                let a_at = |li: usize, k: usize| base + ((li * n + k) * 8) as u32;
                let b_base = base + b_offset(n, comm.ranks(), r);
                let b_at = |k: usize, j: usize| b_base + ((k * n + j) * 8) as u32;
                let c_base = b_base + (n * n * 8) as u32;
                let c_at = |li: usize, j: usize| c_base + ((li * n + j) * 8) as u32;
                comm.barrier().await;
                let t0 = comm.now().await;
                for li in 0..e - s {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for k in 0..n {
                            let av = comm.load_f64(a_at(li, k)).await;
                            let bv = comm.load_f64(b_at(k, j)).await;
                            let prod = comm.fmul(av, bv).await;
                            acc = comm.fadd(acc, prod).await;
                            comm.compute(LOOP_OVERHEAD_CYCLES).await;
                        }
                        comm.store_f64(c_at(li, j), acc).await;
                    }
                }
                comm.barrier().await;
                if r == 0 {
                    cell.store(comm.now().await - t0, Ordering::SeqCst);
                }
                let mut rows = Vec::new();
                for (li, gi) in (s..e).enumerate() {
                    let mut row = Vec::with_capacity(n);
                    for j in 0..n {
                        row.push(comm.load_f64(c_at(li, j)).await);
                    }
                    rows.push((gi, row));
                }
                sink.lock().expect("matmul sink").extend(rows);
            })
        })
        .collect()
}

/// Check a run against the host reference, bitwise.
///
/// # Errors
///
/// Returns the first mismatch.
pub fn validate(mcfg: &MatmulConfig, outcome: &MatmulOutcome) -> Result<(), String> {
    let n = mcfg.n;
    let reference = reference(n);
    for (gi, row) in &outcome.c_rows {
        for (j, v) in row.iter().enumerate() {
            let expect = reference[gi * n + j];
            if v.to_bits() != expect.to_bits() {
                return Err(format!("C[{gi},{j}] = {v}, expected {expect}"));
            }
        }
    }
    if outcome.c_rows.len() != n {
        return Err(format!("collected {} rows, expected {n}", outcome.c_rows.len()));
    }
    Ok(())
}

/// Address type re-export for doc clarity.
pub type _Addr = Addr;

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(pes: usize) -> SystemConfig {
        SystemConfig::builder()
            .compute_pes(pes)
            .cache_bytes(16 * 1024)
            .cycle_limit(500_000_000)
            .build()
            .unwrap()
    }

    #[test]
    fn single_rank_correct() {
        let mcfg = MatmulConfig { n: 6 };
        let outcome = run(&sys(1), &mcfg).unwrap();
        validate(&mcfg, &outcome).unwrap();
    }

    #[test]
    fn multi_rank_correct_and_faster() {
        let mcfg = MatmulConfig { n: 8 };
        let one = run(&sys(1), &mcfg).unwrap();
        validate(&mcfg, &one).unwrap();
        let four = run(&sys(4), &mcfg).unwrap();
        validate(&mcfg, &four).unwrap();
        assert!(
            four.cycles < one.cycles,
            "4 PEs ({}) must beat 1 PE ({})",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn uneven_partition_correct() {
        let mcfg = MatmulConfig { n: 7 };
        let outcome = run(&sys(3), &mcfg).unwrap();
        validate(&mcfg, &outcome).unwrap();
    }
}
