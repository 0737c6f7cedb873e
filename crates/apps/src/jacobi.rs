//! The paper's benchmark: a parallel Jacobi 2D iterative solver (§III).
//!
//! "The Jacobi algorithm was selected as a good representative of the
//! class of scientific computational kernels that may fully exploit the
//! potential of a manycore CMP architecture using a hybrid
//! shared-memory/message-passing approach."
//!
//! Three programming-model variants, exactly the comparison of §III:
//!
//! * [`JacobiVariant::HybridFullMp`] — data *and* synchronization over the
//!   NoC message interface: each rank's rows live in its private
//!   (cacheable) segment, halo rows travel as eMPI messages;
//! * [`JacobiVariant::HybridSyncOnly`] — halo rows exchanged through the
//!   shared segment with the §II-E flush/DII protocol, synchronization
//!   still by eMPI barrier;
//! * [`JacobiVariant::PureSharedMemory`] — halo exchange through shared
//!   memory *and* a lock-based shared-memory barrier: every
//!   synchronization action is serialized MPMMU traffic.
//!
//! Rows are block-partitioned; each rank owns a contiguous band of
//! interior rows plus two halo rows, double-buffered in its private
//! segment. The measured quantity is the paper's: cycles per iteration
//! after cache warm-up.

use crate::grid::{initial_grid, jacobi_reference, max_ranks, partition_rows};
use crate::sm::SmBarrier;
use medea_cache::Addr;
use medea_core::api::PeApi;
use medea_core::calib::LOOP_OVERHEAD_CYCLES;
use medea_core::explore::{PreparedWorkload, Workload};
use medea_core::system::{Kernel, RunError, RunResult, System};
use medea_core::{Empi, FaultInjector, NullInjector, NullSink, SystemConfig, TraceSink};
use medea_pe::kernel_if::f64_to_words;
use medea_sim::ids::Rank;
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Programming-model variant (§III's three-way comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JacobiVariant {
    /// Hybrid: message passing for data and synchronization.
    HybridFullMp,
    /// Hybrid: message passing for synchronization only; halo data through
    /// shared memory.
    HybridSyncOnly,
    /// Pure shared memory: lock-based barrier + shared-memory halos.
    PureSharedMemory,
}

impl std::fmt::Display for JacobiVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JacobiVariant::HybridFullMp => write!(f, "hybrid-full-mp"),
            JacobiVariant::HybridSyncOnly => write!(f, "hybrid-sync-only"),
            JacobiVariant::PureSharedMemory => write!(f, "pure-sm"),
        }
    }
}

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct JacobiConfig {
    /// Grid side (the paper uses 16, 30, 60).
    pub n: usize,
    /// Programming-model variant.
    pub variant: JacobiVariant,
    /// Warm-up iterations excluded from the measurement (paper: caches are
    /// warmed before the measured iteration).
    pub warmup_iters: usize,
    /// Measured iterations (the reported figure is cycles per iteration).
    pub measured_iters: usize,
    /// Whether kernels should ship the final grid back for validation.
    pub validate: bool,
}

impl JacobiConfig {
    /// Standard setup: 1 warm-up iteration, 1 measured iteration,
    /// no validation.
    pub fn new(n: usize, variant: JacobiVariant) -> Self {
        JacobiConfig { n, variant, warmup_iters: 1, measured_iters: 1, validate: false }
    }

    /// Set the warm-up iteration count.
    pub fn with_warmup_iters(mut self, iters: usize) -> Self {
        self.warmup_iters = iters;
        self
    }

    /// Set the measured iteration count.
    pub fn with_measured_iters(mut self, iters: usize) -> Self {
        self.measured_iters = iters;
        self
    }

    /// Enable final-grid collection for validation.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Total sweeps performed.
    pub fn total_iters(&self) -> usize {
        self.warmup_iters + self.measured_iters
    }
}

/// Result of one Jacobi run.
#[derive(Debug)]
pub struct JacobiOutcome {
    /// Engine-level result.
    pub run: RunResult,
    /// Measured cycles per iteration (the paper's y-axis).
    pub cycles_per_iter: Cycle,
    /// Owned interior rows collected from the PEs' memories
    /// (`(global_row, values)`), when validation was requested.
    pub interior: Option<Vec<(usize, Vec<f64>)>>,
}

// ---- per-rank address arithmetic ----

#[derive(Debug, Clone, Copy)]
struct RankLayout {
    n: usize,
    base: Addr,
    buf_bytes: u32,
    owned: usize,
}

impl RankLayout {
    fn new(n: usize, base: Addr, owned: usize) -> Self {
        let buf_bytes = ((owned + 2) * n * 8) as u32;
        RankLayout { n, base, buf_bytes, owned }
    }

    /// Address of cell (local row, column) in buffer `buf` (0/1).
    /// Local row 0 is the top halo; rows 1..=owned are owned; owned+1 is
    /// the bottom halo.
    fn cell(&self, buf: usize, li: usize, j: usize) -> Addr {
        debug_assert!(li <= self.owned + 1 && j < self.n);
        self.base + buf as u32 * self.buf_bytes + ((li * self.n + j) as u32) * 8
    }
}

/// Stride of one published halo row in the shared segment (line-aligned so
/// flush/invalidate of one slot never touches a neighbour's).
fn slot_stride(n: usize) -> u32 {
    ((n * 8 + 15) & !15) as u32
}

/// Shared-segment address of `rank`'s published row.
/// `which`: 0 = its top owned row, 1 = its bottom owned row.
/// `parity`: iteration parity (double-buffered so one barrier per
/// iteration suffices).
fn pub_slot(n: usize, rank: usize, which: usize, parity: usize) -> Addr {
    (((rank * 2 + which) * 2 + parity) as u32) * slot_stride(n)
}

// ---- kernel ----

struct KernelCtx {
    jcfg: JacobiConfig,
    measured: Arc<AtomicU64>,
    collect: Option<crate::RowSink>,
    sm_barrier: SmBarrier,
}

fn jacobi_kernel(api: PeApi, ctx: KernelCtx) {
    let comm = Empi::new(api);
    let jcfg = ctx.jcfg;
    let n = jcfg.n;
    let ranks = comm.ranks();
    let r = comm.rank().index();
    let (g0, g1) = partition_rows(n, ranks, r);
    let lay = RankLayout::new(n, comm.private_base(), g1 - g0);
    assert!(
        2 * lay.buf_bytes <= comm.layout().private_bytes(),
        "grid slice does not fit the private segment"
    );

    let barrier = |comm: &Empi| match jcfg.variant {
        JacobiVariant::PureSharedMemory => ctx.sm_barrier.wait(comm, ranks),
        _ => comm.barrier(),
    };

    let mut cur = 0usize;
    let mut t0: Cycle = 0;
    for it in 0..jcfg.total_iters() {
        if it == jcfg.warmup_iters {
            barrier(&comm);
            t0 = comm.now();
        }
        let nxt = 1 - cur;
        sweep(&comm, &lay, cur, nxt);
        match jcfg.variant {
            JacobiVariant::HybridFullMp => exchange_mp(&comm, &lay, nxt),
            JacobiVariant::HybridSyncOnly => {
                exchange_shared(&comm, &lay, nxt, it % 2, false, &barrier)
            }
            JacobiVariant::PureSharedMemory => {
                exchange_shared(&comm, &lay, nxt, it % 2, true, &barrier)
            }
        }
        cur = nxt;
    }
    barrier(&comm);
    if r == 0 {
        let t1 = comm.now();
        let window = t1.saturating_sub(t0).max(1);
        ctx.measured.store(window / jcfg.measured_iters.max(1) as u64, Ordering::SeqCst);
    }
    if let Some(sink) = &ctx.collect {
        let mut rows = Vec::with_capacity(lay.owned);
        for (li, gi) in (g0..g1).enumerate().map(|(i, gi)| (i + 1, gi)) {
            let row: Vec<f64> = (0..n).map(|j| comm.load_f64(lay.cell(cur, li, j))).collect();
            rows.push((gi, row));
        }
        sink.lock().expect("collection mutex").extend(rows);
    }
}

/// One stencil sweep over the owned rows: `nxt[i][j] = 0.25 * (N + S + W +
/// E)` with the exact operation order of the reference solver.
fn sweep(api: &PeApi, lay: &RankLayout, cur: usize, nxt: usize) {
    let n = lay.n;
    for li in 1..=lay.owned {
        for j in 1..n - 1 {
            let nn = api.load_f64(lay.cell(cur, li - 1, j));
            let ss = api.load_f64(lay.cell(cur, li + 1, j));
            let ww = api.load_f64(lay.cell(cur, li, j - 1));
            let ee = api.load_f64(lay.cell(cur, li, j + 1));
            let s1 = api.fadd(nn, ss);
            let s2 = api.fadd(ww, ee);
            let sum = api.fadd(s1, s2);
            let v = api.fmul(sum, 0.25);
            api.store_f64(lay.cell(nxt, li, j), v);
            api.compute(LOOP_OVERHEAD_CYCLES);
        }
    }
}

fn read_row(api: &PeApi, lay: &RankLayout, buf: usize, li: usize) -> Vec<f64> {
    (0..lay.n).map(|j| api.load_f64(lay.cell(buf, li, j))).collect()
}

fn write_row(api: &PeApi, lay: &RankLayout, buf: usize, li: usize, values: &[f64]) {
    for (j, v) in values.iter().enumerate() {
        api.store_f64(lay.cell(buf, li, j), *v);
    }
}

/// Message-passing halo exchange on the freshly written buffer: one
/// [`Empi::sendrecv_f64`] per direction. The full-duplex progress engine
/// services both sides of the chain at once, so no even/odd phasing is
/// needed and the pipeline never serializes rank-by-rank; boundary ranks
/// fall out of the `None` (MPI_PROC_NULL) arms.
fn exchange_mp(comm: &Empi, lay: &RankLayout, buf: usize) {
    let ranks = comm.ranks();
    let r = comm.rank().index();
    let prev = (r > 0).then(|| Rank::new((r - 1) as u8));
    let next = (r + 1 < ranks).then(|| Rank::new((r + 1) as u8));
    // Downward traffic: my bottom owned row -> next rank's top halo,
    // while my top halo arrives from prev.
    let bottom = next.map(|_| read_row(comm, lay, buf, lay.owned));
    if let Some(row) = comm.sendrecv_f64(next, bottom.as_deref().unwrap_or(&[]), prev) {
        write_row(comm, lay, buf, 0, &row);
    }
    // Upward traffic: my top owned row -> previous rank's bottom halo,
    // while my bottom halo arrives from next.
    let top = prev.map(|_| read_row(comm, lay, buf, 1));
    if let Some(row) = comm.sendrecv_f64(prev, top.as_deref().unwrap_or(&[]), next) {
        write_row(comm, lay, buf, lay.owned + 1, &row);
    }
}

/// Shared-memory halo exchange: publish boundary rows (cached store +
/// flush), synchronize, consume neighbours' rows (DII invalidate + cached
/// load) — the §II-E producer/consumer protocol.
///
/// In the pure shared-memory model (`locked = true`) every shared-segment
/// access additionally acquires the MPMMU lock on its slot first, per
/// §II-C: "Every processor which aims to access the shared memory segment
/// for read/write operations must first request lock. If granted, the line
/// can be read/written. Before releasing the locked line with an unlock
/// command, the processor must perform a L1 cache flush operation of the
/// locked line". The hybrid sync-only model relies on its eMPI barrier for
/// ordering instead, which is exactly the synchronization saving the paper
/// credits message passing for.
fn exchange_shared(
    comm: &Empi,
    lay: &RankLayout,
    buf: usize,
    parity: usize,
    locked: bool,
    barrier: &impl Fn(&Empi),
) {
    let api: &PeApi = comm;
    let ranks = api.ranks();
    let r = api.rank().index();
    let n = lay.n;
    let row_bytes = (n * 8) as u32;
    // §II-C line-granularity protocol for the pure-SM model: lock the
    // line, read/write it, flush it (producer side), unlock. Two doubles
    // per 16-byte line.
    let publish = |slot: Addr, values: &[f64]| {
        let mut j = 0usize;
        while j < values.len() {
            let line = slot + (j * 8) as u32;
            if locked {
                api.lock(line);
            }
            api.store_f64(line, values[j]);
            if j + 1 < values.len() {
                api.store_f64(line + 8, values[j + 1]);
            }
            api.flush_line(line);
            if locked {
                api.unlock(line);
            }
            j += 2;
        }
    };
    let consume = |slot: Addr| -> Vec<f64> {
        let mut row = Vec::with_capacity(n);
        let mut j = 0usize;
        while j < n {
            let line = slot + (j * 8) as u32;
            if locked {
                api.lock(line);
            }
            api.invalidate_line(line);
            row.push(api.load_f64(line));
            if j + 1 < n {
                row.push(api.load_f64(line + 8));
            }
            if locked {
                api.unlock(line);
            }
            j += 2;
        }
        row
    };
    let _ = row_bytes;
    // Publish.
    if r > 0 {
        publish(pub_slot(n, r, 0, parity), &read_row(api, lay, buf, 1));
    }
    if r + 1 < ranks {
        publish(pub_slot(n, r, 1, parity), &read_row(api, lay, buf, lay.owned));
    }
    barrier(comm);
    // Consume.
    if r > 0 {
        let row = consume(pub_slot(n, r - 1, 1, parity));
        write_row(api, lay, buf, 0, &row);
    }
    if r + 1 < ranks {
        let row = consume(pub_slot(n, r + 1, 0, parity));
        write_row(api, lay, buf, lay.owned + 1, &row);
    }
}

// ---- driver ----

/// DDR preload for a run: both private buffers of every rank hold its
/// slice of the initial grid ("at startup, the code ... is placed in an
/// external DDR memory", §II-E).
pub fn preload_for(sys: &SystemConfig, jcfg: &JacobiConfig) -> Vec<(Addr, u32)> {
    let n = jcfg.n;
    let ranks = sys.compute_pes();
    let grid = initial_grid(n);
    let mut preload = Vec::new();
    for r in 0..ranks {
        let (g0, g1) = partition_rows(n, ranks, r);
        let base = sys.layout().private_base(Rank::new(r as u8));
        let lay = RankLayout::new(n, base, g1 - g0);
        for buf in 0..2 {
            for (li, gi) in ((g0 - 1)..=g1).enumerate() {
                for j in 0..n {
                    let (lo, hi) = f64_to_words(grid[gi * n + j]);
                    let addr = lay.cell(buf, li, j);
                    preload.push((addr, lo));
                    preload.push((addr + 4, hi));
                }
            }
        }
    }
    preload
}

/// Run the benchmark on `sys`.
///
/// # Errors
///
/// Propagates [`RunError`] from the engine.
///
/// # Panics
///
/// Panics if the configured PE count exceeds [`max_ranks`] for the grid or
/// the grid slice does not fit the private segment.
pub fn run(sys: &SystemConfig, jcfg: &JacobiConfig) -> Result<JacobiOutcome, RunError> {
    run_faulted(sys, jcfg, &mut NullSink, &mut NullInjector)
}

/// [`run`] with deterministic faults drawn from `injector` and trace
/// events delivered to `sink` — the workload side of the resilience
/// experiments: inject link kills or flit corruption under a live Jacobi
/// solve, then check completion, numerical correctness (via
/// [`JacobiConfig::with_validation`]) and the recovery counters on
/// [`RunResult`].
///
/// # Errors
///
/// Propagates [`RunError`] from the engine.
///
/// # Panics
///
/// Panics if the configured PE count exceeds [`max_ranks`] for the grid or
/// the grid slice does not fit the private segment.
pub fn run_faulted<S: TraceSink, I: FaultInjector>(
    sys: &SystemConfig,
    jcfg: &JacobiConfig,
    sink: &mut S,
    injector: &mut I,
) -> Result<JacobiOutcome, RunError> {
    assert!(
        sys.compute_pes() <= max_ranks(jcfg.n),
        "{} PEs exceed the {} interior rows of a {0}x{0} grid",
        sys.compute_pes(),
        jcfg.n
    );
    let measured = Arc::new(AtomicU64::new(0));
    let collect = jcfg.validate.then(|| Arc::new(Mutex::new(Vec::new())));
    let sm_barrier = SmBarrier::at_top_of_shared(sys.layout().shared_bytes());
    // Published halo slots must stay clear of the barrier words.
    assert!(
        pub_slot(jcfg.n, sys.compute_pes(), 0, 0) + 64 <= sys.layout().shared_bytes(),
        "shared segment too small for the halo slots"
    );
    let kernels: Vec<Kernel> = (0..sys.compute_pes())
        .map(|_| {
            let ctx = KernelCtx {
                jcfg: *jcfg,
                measured: Arc::clone(&measured),
                collect: collect.clone(),
                sm_barrier,
            };
            Box::new(move |api: PeApi| jacobi_kernel(api, ctx)) as Kernel
        })
        .collect();
    let preload = preload_for(sys, jcfg);
    let run = System::run_with(sys, &preload, kernels, sink, injector)?;
    Ok(JacobiOutcome {
        run,
        cycles_per_iter: measured.load(Ordering::SeqCst),
        interior: collect.map(|c| {
            let mut rows = Arc::try_unwrap(c)
                .expect("kernels finished")
                .into_inner()
                .expect("collection mutex");
            rows.sort_by_key(|(gi, _)| *gi);
            rows
        }),
    })
}

/// Compare a validated outcome against the sequential reference.
///
/// # Errors
///
/// Returns a description of the first mismatching cell.
pub fn validate_against_reference(
    jcfg: &JacobiConfig,
    outcome: &JacobiOutcome,
) -> Result<(), String> {
    let rows = outcome
        .interior
        .as_ref()
        .ok_or_else(|| "run was not configured with validation".to_string())?;
    let n = jcfg.n;
    let reference = jacobi_reference(n, jcfg.total_iters());
    let mut seen = 0usize;
    for (gi, row) in rows {
        for (j, v) in row.iter().enumerate() {
            let expect = reference[gi * n + j];
            if v.to_bits() != expect.to_bits() {
                return Err(format!("cell ({gi},{j}): got {v}, reference {expect}"));
            }
        }
        seen += 1;
    }
    if seen != n - 2 {
        return Err(format!("collected {seen} rows, expected {}", n - 2));
    }
    Ok(())
}

/// [`Workload`] adapter for the design-space exploration driver.
pub struct JacobiWorkload {
    /// Benchmark parameters (validation is forced off for sweeps).
    pub jcfg: JacobiConfig,
}

impl Workload for JacobiWorkload {
    fn name(&self) -> &str {
        "jacobi"
    }

    fn prepare(&self, cfg: &SystemConfig) -> PreparedWorkload {
        let mut jcfg = self.jcfg;
        jcfg.validate = false;
        let measured = Arc::new(AtomicU64::new(0));
        let sm_barrier = SmBarrier::at_top_of_shared(cfg.layout().shared_bytes());
        let kernels: Vec<Kernel> = (0..cfg.compute_pes())
            .map(|_| {
                let ctx =
                    KernelCtx { jcfg, measured: Arc::clone(&measured), collect: None, sm_barrier };
                Box::new(move |api: PeApi| jacobi_kernel(api, ctx)) as Kernel
            })
            .collect();
        PreparedWorkload::new(preload_for(cfg, &jcfg), kernels, measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_core::CachePolicy;

    fn sys(pes: usize, cache_kb: usize, policy: CachePolicy) -> SystemConfig {
        SystemConfig::builder()
            .compute_pes(pes)
            .cache_bytes(cache_kb * 1024)
            .cache_policy(policy)
            .cycle_limit(200_000_000)
            .build()
            .unwrap()
    }

    fn check(variant: JacobiVariant, n: usize, pes: usize, cache_kb: usize) {
        let jcfg = JacobiConfig::new(n, variant)
            .with_warmup_iters(1)
            .with_measured_iters(2)
            .with_validation();
        let outcome = run(&sys(pes, cache_kb, CachePolicy::WriteBack), &jcfg).unwrap();
        validate_against_reference(&jcfg, &outcome).unwrap();
        assert!(outcome.cycles_per_iter > 0);
    }

    #[test]
    fn hybrid_full_mp_single_rank_correct() {
        check(JacobiVariant::HybridFullMp, 8, 1, 16);
    }

    #[test]
    fn hybrid_full_mp_multi_rank_correct() {
        check(JacobiVariant::HybridFullMp, 8, 3, 16);
    }

    #[test]
    fn hybrid_sync_only_correct() {
        check(JacobiVariant::HybridSyncOnly, 8, 3, 16);
    }

    #[test]
    fn pure_sm_correct() {
        check(JacobiVariant::PureSharedMemory, 8, 3, 16);
    }

    #[test]
    fn tiny_cache_still_correct() {
        // 2 kB cache thrashes on an 8x8 grid slice but must stay correct.
        check(JacobiVariant::HybridFullMp, 8, 2, 2);
    }

    #[test]
    fn write_through_correct() {
        let jcfg = JacobiConfig::new(8, JacobiVariant::HybridFullMp)
            .with_measured_iters(2)
            .with_validation();
        let outcome = run(&sys(2, 16, CachePolicy::WriteThrough), &jcfg).unwrap();
        validate_against_reference(&jcfg, &outcome).unwrap();
    }

    #[test]
    fn variants_agree_bitwise() {
        let mk = |variant| {
            let jcfg = JacobiConfig::new(10, variant).with_measured_iters(2).with_validation();
            let outcome = run(&sys(4, 16, CachePolicy::WriteBack), &jcfg).unwrap();
            outcome.interior.unwrap()
        };
        let a = mk(JacobiVariant::HybridFullMp);
        let b = mk(JacobiVariant::HybridSyncOnly);
        let c = mk(JacobiVariant::PureSharedMemory);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn hybrid_beats_pure_sm() {
        // The paper's headline: the hybrid approach wins on synchronization
        // cost. Even at small scale the pure-SM variant must be slower.
        let mk = |variant| {
            let jcfg = JacobiConfig::new(12, variant).with_warmup_iters(1).with_measured_iters(1);
            run(&sys(4, 16, CachePolicy::WriteBack), &jcfg).unwrap().cycles_per_iter
        };
        let hybrid = mk(JacobiVariant::HybridFullMp);
        let pure = mk(JacobiVariant::PureSharedMemory);
        assert!(
            pure > hybrid,
            "pure SM ({pure} cycles/iter) must be slower than hybrid ({hybrid})"
        );
    }

    #[test]
    fn warm_cache_is_faster_than_cold() {
        let cold = JacobiConfig::new(12, JacobiVariant::HybridFullMp)
            .with_warmup_iters(0)
            .with_measured_iters(1);
        let warm = JacobiConfig::new(12, JacobiVariant::HybridFullMp)
            .with_warmup_iters(1)
            .with_measured_iters(1);
        let s = sys(2, 32, CachePolicy::WriteBack);
        let t_cold = run(&s, &cold).unwrap().cycles_per_iter;
        let t_warm = run(&s, &warm).unwrap().cycles_per_iter;
        assert!(t_warm < t_cold, "warm {t_warm} !< cold {t_cold}");
    }

    #[test]
    fn workload_adapter_measures() {
        use medea_core::explore::Workload as _;
        let w = JacobiWorkload { jcfg: JacobiConfig::new(8, JacobiVariant::HybridFullMp) };
        let cfg = sys(2, 16, CachePolicy::WriteBack);
        let prepared = w.prepare(&cfg);
        let result = System::run(&cfg, &prepared.preload, prepared.kernels).unwrap();
        assert!(result.cycles > 0);
        assert!(prepared.measured.load(Ordering::SeqCst) > 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_pes_panics() {
        let jcfg = JacobiConfig::new(8, JacobiVariant::HybridFullMp);
        let _ = run(&sys(7, 16, CachePolicy::WriteBack), &jcfg);
    }

    #[test]
    fn validates_under_tree_collectives() {
        // The barrier algorithm must not change the numerics: the hybrid
        // variant stays bit-exact against the sequential reference under
        // both tree algorithms.
        use medea_core::CollectiveAlgo;
        for algo in [CollectiveAlgo::BinomialTree, CollectiveAlgo::RecursiveDoubling] {
            let sys = SystemConfig::builder()
                .compute_pes(5)
                .cache_bytes(16 * 1024)
                .collective_algo(algo)
                .cycle_limit(200_000_000)
                .build()
                .unwrap();
            let jcfg = JacobiConfig::new(10, JacobiVariant::HybridFullMp)
                .with_measured_iters(2)
                .with_validation();
            let outcome = run(&sys, &jcfg).unwrap_or_else(|e| panic!("{algo}: {e}"));
            validate_against_reference(&jcfg, &outcome).unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
    }

    #[test]
    fn rank_generic_at_63_ranks_on_8x8() {
        // The kernels are rank-count-generic: a fully populated 8x8 torus
        // (63 compute PEs, one interior row each) still validates
        // bit-for-bit against the sequential reference.
        let sys = SystemConfig::builder()
            .topology(medea_core::Topology::new(8, 8).unwrap())
            .compute_pes(63)
            .cache_bytes(16 * 1024)
            .cycle_limit(400_000_000)
            .build()
            .unwrap();
        let jcfg = JacobiConfig::new(65, JacobiVariant::HybridFullMp)
            .with_warmup_iters(0)
            .with_measured_iters(1)
            .with_validation();
        let outcome = run(&sys, &jcfg).unwrap();
        validate_against_reference(&jcfg, &outcome).unwrap();
        assert_eq!(outcome.run.pe.len(), 63);
        assert!(outcome.cycles_per_iter > 0);
    }
}
