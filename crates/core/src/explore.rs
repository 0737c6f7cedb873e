//! Design-space exploration driver.
//!
//! §III: "We have been able to run a parallel implementation of the Jacobi
//! algorithm for three different sizes of input data on 168 different
//! architectures in about 1 day using 5 servers" — the 168 points being
//! 14 core counts × 6 cache sizes × 2 write policies. This module runs the
//! same kind of sweep on host threads, and goes beyond the paper's fixed
//! 4×4 instance: every [`SweepPoint`] carries its own [`Topology`], so one
//! sweep can span 2×2 up to 16×16 tori (255 compute PEs).
//!
//! The engine is a pool of scoped worker threads over a self-scheduling
//! shared work queue: each worker atomically claims the next unstarted
//! point, so cheap 4×4 points never leave a core idle while another thread
//! grinds through a 255-PE run.

use crate::config::SystemConfig;
use crate::system::{AnyKernel, RunError, RunResult, System, Task};
use medea_cache::{Addr, CacheConfig, CachePolicy};
use medea_noc::coord::Topology;
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// One coordinate of the exploration grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    /// The torus the system is assembled on.
    pub topology: Topology,
    /// Compute PEs (`1..=topology.nodes() − memory_banks`).
    pub pes: usize,
    /// L1 size in bytes.
    pub cache_bytes: usize,
    /// L1 write policy.
    pub policy: CachePolicy,
    /// Address-interleaved MPMMU banks (1 = the paper's single MPMMU).
    pub banks: usize,
}

impl SweepPoint {
    /// A point on the paper's 4×4 folded torus (single memory bank).
    pub fn new(pes: usize, cache_bytes: usize, policy: CachePolicy) -> Self {
        SweepPoint { topology: Topology::paper_4x4(), pes, cache_bytes, policy, banks: 1 }
    }

    /// A point on an explicit torus (single memory bank).
    pub fn on(topology: Topology, pes: usize, cache_bytes: usize, policy: CachePolicy) -> Self {
        SweepPoint { topology, pes, cache_bytes, policy, banks: 1 }
    }

    /// The same point with `banks` address-interleaved MPMMU banks.
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Materialize the point into a full system configuration, starting
    /// from `base` (which carries workload-independent settings such as
    /// segment sizes and the cycle limit).
    pub fn apply(&self, base: crate::config::SystemConfigBuilder) -> SystemConfig {
        base.topology(self.topology)
            .compute_pes(self.pes)
            .cache_bytes(self.cache_bytes)
            .cache_policy(self.policy)
            .memory_banks(self.banks)
            .build()
            .expect("sweep points are pre-validated")
    }
}

/// The paper's full grid: PEs 2..=15, cache 2..=64 kB, WB + WT
/// (14 × 6 × 2 = 168 points), all on the 4×4 torus.
pub fn paper_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for policy in [CachePolicy::WriteBack, CachePolicy::WriteThrough] {
        for &cache_bytes in &CacheConfig::PAPER_SIZES {
            for pes in 2..=15 {
                points.push(SweepPoint::new(pes, cache_bytes, policy));
            }
        }
    }
    points
}

/// A reduced grid for quick runs (callers pick their own subsets too).
pub fn quick_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &cache_bytes in &[4 * 1024, 16 * 1024] {
        for pes in [2usize, 4, 8] {
            points.push(SweepPoint::new(pes, cache_bytes, CachePolicy::WriteBack));
        }
    }
    points
}

/// Everything a workload hands the engine for one run.
pub struct PreparedWorkload {
    /// Words preloaded into DDR before the first cycle.
    pub preload: Vec<(Addr, u32)>,
    /// One kernel per rank, of either kind.
    pub kernels: Vec<AnyKernel>,
    /// Rank 0 stores the measured-window length (cycles) here before
    /// returning; [`SweepOutcome::measured_cycles`] reads it.
    pub measured: Arc<AtomicU64>,
}

impl PreparedWorkload {
    /// Convenience constructor wiring the measurement cell.
    pub fn new(
        preload: Vec<(Addr, u32)>,
        kernels: Vec<impl Into<AnyKernel>>,
        measured: Arc<AtomicU64>,
    ) -> Self {
        let kernels = kernels.into_iter().map(Into::into).collect();
        PreparedWorkload { preload, kernels, measured }
    }
}

/// A benchmark that can run on any sweep configuration.
pub trait Workload: Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Build the kernels for `cfg`.
    fn prepare(&self, cfg: &SystemConfig) -> PreparedWorkload;
}

/// Result of one sweep point.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The grid coordinate.
    pub point: SweepPoint,
    /// Figure-style label.
    pub label: String,
    /// Engine-level result.
    pub result: Result<RunResult, RunError>,
    /// The workload's measured window (e.g. one Jacobi iteration after
    /// warm-up), in cycles. Zero if the run failed.
    pub measured_cycles: Cycle,
}

impl SweepOutcome {
    /// The measured window, if the run succeeded.
    pub fn measured(&self) -> Option<Cycle> {
        self.result.as_ref().ok().map(|_| self.measured_cycles)
    }
}

/// Self-scheduling shared queue of sweep points: workers atomically claim
/// the next unstarted index.
struct WorkQueue<'a> {
    points: &'a [SweepPoint],
    next: AtomicUsize,
}

impl WorkQueue<'_> {
    fn claim(&self) -> Option<(usize, SweepPoint)> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        self.points.get(idx).map(|p| (idx, *p))
    }
}

/// Run `workload` on every `point`, using up to `threads` host threads
/// (at least one, at most one per point): each worker runs whole points,
/// one run per host thread, as the paper spread its 168 architectures
/// over servers.
///
/// `base` carries the sweep-invariant configuration; each point overrides
/// topology, PE count, cache size and policy. Outcomes are returned in
/// `points` order regardless of scheduling.
pub fn run_sweep<W: Workload>(
    workload: &W,
    points: &[SweepPoint],
    base: &crate::config::SystemConfigBuilder,
    threads: usize,
) -> Vec<SweepOutcome> {
    let threads = threads.clamp(1, points.len().max(1));
    let queue = WorkQueue { points, next: AtomicUsize::new(0) };
    let (tx, rx) = mpsc::channel::<(usize, SweepOutcome)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                while let Some((idx, point)) = queue.claim() {
                    let cfg = point.apply(base.clone());
                    let prepared = workload.prepare(&cfg);
                    let measured_cell = Arc::clone(&prepared.measured);
                    let result = System::run(&cfg, &prepared.preload, prepared.kernels);
                    let outcome = SweepOutcome {
                        point,
                        label: cfg.label(),
                        measured_cycles: if result.is_ok() {
                            measured_cell.load(Ordering::SeqCst)
                        } else {
                            0
                        },
                        result,
                    };
                    if tx.send((idx, outcome)).is_err() {
                        break; // collector gone; nothing left to do
                    }
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<SweepOutcome>> = Vec::new();
        slots.resize_with(points.len(), || None);
        for (idx, outcome) in rx {
            slots[idx] = Some(outcome);
        }
        slots.into_iter().map(|o| o.expect("every index visited")).collect()
    })
}

/// Compute speedups relative to the slowest successful point of the sweep
/// (our documented reading of the paper's "optimal Speedup" normalization;
/// EXPERIMENTS.md discusses the choice).
pub fn speedups_vs_slowest(outcomes: &[SweepOutcome]) -> Vec<(String, f64)> {
    let reference =
        outcomes.iter().filter_map(SweepOutcome::measured).max().unwrap_or(1).max(1) as f64;
    outcomes
        .iter()
        .filter_map(|o| {
            o.measured().filter(|&m| m > 0).map(|m| (o.label.clone(), reference / m as f64))
        })
        .collect()
}

/// A trivial workload used by tests and the quickstart: every rank charges
/// `cycles_per_rank` compute cycles, rank 0 measures the window.
pub struct ComputeOnlyWorkload {
    /// Cycles each rank charges.
    pub cycles_per_rank: Cycle,
}

impl Workload for ComputeOnlyWorkload {
    fn name(&self) -> &str {
        "compute-only"
    }

    fn prepare(&self, cfg: &SystemConfig) -> PreparedWorkload {
        let measured = Arc::new(AtomicU64::new(0));
        let kernels: Vec<Task> = (0..cfg.compute_pes())
            .map(|rank| {
                let cell = Arc::clone(&measured);
                let cycles = self.cycles_per_rank;
                Task::new(move |api| async move {
                    let t0 = api.now().await;
                    api.compute(cycles).await;
                    let t1 = api.now().await;
                    if rank == 0 {
                        cell.store(t1 - t0, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        PreparedWorkload::new(Vec::new(), kernels, measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_168_points() {
        assert_eq!(paper_grid().len(), 168);
        assert!(paper_grid().iter().all(|p| p.topology == Topology::paper_4x4()));
    }

    #[test]
    fn sweep_runs_all_points_in_order() {
        let workload = ComputeOnlyWorkload { cycles_per_rank: 100 };
        let points = quick_grid();
        let base = SystemConfig::builder().cycle_limit(1_000_000);
        let outcomes = run_sweep(&workload, &points, &base, 4);
        assert_eq!(outcomes.len(), points.len());
        for (o, p) in outcomes.iter().zip(&points) {
            assert_eq!(o.point, *p, "order preserved");
            let measured = o.measured().expect("run succeeded");
            assert!((100..=120).contains(&measured), "measured {measured}");
        }
    }

    #[test]
    fn sweep_spans_multiple_topologies() {
        let workload = ComputeOnlyWorkload { cycles_per_rank: 250 };
        let points = vec![
            SweepPoint::new(2, 4096, CachePolicy::WriteBack),
            SweepPoint::on(Topology::new(8, 8).unwrap(), 20, 4096, CachePolicy::WriteBack),
            SweepPoint::on(Topology::new(8, 2).unwrap(), 15, 4096, CachePolicy::WriteBack),
        ];
        let base = SystemConfig::builder().cycle_limit(1_000_000);
        let outcomes = run_sweep(&workload, &points, &base, 3);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            let measured = o.measured().expect("run succeeded");
            assert!((250..=270).contains(&measured), "{}: measured {measured}", o.label);
        }
        assert_eq!(outcomes[1].label, "20P_4k$_WB@8x8");
        assert_eq!(outcomes[2].label, "15P_4k$_WB@8x2");
    }

    #[test]
    fn sweep_spans_bank_counts() {
        let workload = ComputeOnlyWorkload { cycles_per_rank: 120 };
        let t8 = Topology::new(8, 8).unwrap();
        let points = vec![
            SweepPoint::on(t8, 10, 4096, CachePolicy::WriteBack),
            SweepPoint::on(t8, 10, 4096, CachePolicy::WriteBack).with_banks(4),
        ];
        let base = SystemConfig::builder().cycle_limit(1_000_000);
        let outcomes = run_sweep(&workload, &points, &base, 2);
        for o in &outcomes {
            assert!(o.measured().is_some(), "{}: run failed", o.label);
        }
        assert_eq!(outcomes[0].label, "10P_4k$_WB@8x8");
        assert_eq!(outcomes[1].label, "10P_4k$_WB@8x8x4B");
    }

    #[test]
    fn speedups_reference_is_slowest() {
        let workload = ComputeOnlyWorkload { cycles_per_rank: 500 };
        let points = vec![
            SweepPoint::new(1, 2048, CachePolicy::WriteBack),
            SweepPoint::new(2, 2048, CachePolicy::WriteBack),
        ];
        let base = SystemConfig::builder().cycle_limit(1_000_000);
        let outcomes = run_sweep(&workload, &points, &base, 2);
        let speedups = speedups_vs_slowest(&outcomes);
        assert_eq!(speedups.len(), 2);
        // Both do the same compute; speedups are all ~1.
        for (_, s) in &speedups {
            assert!((0.9..=1.1).contains(s), "speedup {s}");
        }
    }

    #[test]
    fn sweep_deterministic_across_thread_counts() {
        let workload = ComputeOnlyWorkload { cycles_per_rank: 321 };
        let points = quick_grid();
        let base = SystemConfig::builder().cycle_limit(1_000_000);
        let seq = run_sweep(&workload, &points, &base, 1);
        let par = run_sweep(&workload, &points, &base, 8);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.measured_cycles, b.measured_cycles);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.divergence(rb), None, "{}", a.label);
        }
    }
}
