//! The tiled parallel cycle engine: deterministic intra-run parallelism.
//!
//! [`try_run_tiled`] domain-decomposes the torus into `T` contiguous node
//! ranges (tiles) and runs one worker thread per tile, each ticking only
//! its own routers ([`NetworkShard`]), PEs and MPMMU banks. One spin
//! barrier ([`Phaser`]) per simulated cycle separates the cycles; **the
//! barrier is the clock edge**: everything a tile does between two
//! barriers is the work the sequential engine does for the same
//! components within one `now`, and the only cross-tile traffic is the
//! boundary link latches, exchanged through per-directed-pair mailboxes.
//!
//! A tile's PEs and banks are driven by the very [`Scheduler`] the
//! sequential engine runs, over the tile's shard: delivery walks the
//! shard's eject-ready set, and only PEs made runnable by a timed,
//! delivery or probe wake tick — a PE waiting only for a flit stays
//! parked until one reaches it (see [`crate::sched`]). The tiled engine
//! itself adds only the boundary exchange, the barrier and the leader's
//! end-of-cycle decisions.
//!
//! # Why the result is bit-identical to the sequential engine
//!
//! * **Flit arbitration does not need cross-tile coordination.** Routers
//!   break same-age ties by flit uid, and
//!   [`medea_noc::network::compose_uid`] derives the uid from
//!   `(cycle, is_bank, node)` — locally computable, globally consistent,
//!   and ordered exactly like the engine's sequential injection sweep.
//! * **Each input latch has exactly one writer.** A router's `(dir)`
//!   input is fed only by its unique neighbor on that link, so exporting
//!   a boundary flit during tile A's tick and importing it into tile B
//!   before B's next route phase reproduces the sequential two-phase
//!   (route-all-then-deliver-all) tick exactly. Mailboxes are
//!   double-buffered by round parity so a fast tile's cycle-`t` exports
//!   can never be confused with its neighbor's still-pending cycle-`t−1`
//!   imports.
//! * **All folds are merged in fixed tile-index order.** Statistics
//!   (bucket-wise histogram sums), the watchdog fingerprint (wrapping
//!   sums), the quiet-cycle classification (AND/MIN folds with an
//!   identity for empty tiles) and the fault-event tail (sorted by
//!   `(cycle, phase, tile)`) are all order-insensitive or merged in tile
//!   order, never in thread-completion order.
//! * **One leader makes every global decision.** Tile 0 (on the calling
//!   thread) replicates the sequential engine's end-of-cycle logic —
//!   termination, cycle limit, watchdog, quiet-cycle fast-forward /
//!   deadlock — from per-tile reports, and is the only agent that drains
//!   the fault injector's link-kill schedule, so the scheduled-fault
//!   stream is consumed in exactly the sequential order.
//!
//! `tests/parallel_equivalence.rs` pins all of this: identical
//! [`RunResult`]s, error details and trace captures at every thread
//! count, including the golden paper-4×4 fingerprints.

use crate::config::SystemConfig;
use crate::sched::{Scheduler, FAULT_LINK_KILL, FAULT_LOG_CAP};
use crate::system::{
    banks_quiet, build_banks, build_pes, classify_fold, deadlock_detail, finish_result,
    progress_fingerprint, quiet_fold, stall_summary, Bank, Kernel, QuietState, RunError, RunResult,
};
use crate::FabricKind;
use medea_cache::Addr;
use medea_fault::FaultInjector;
use medea_metrics::Meter;
use medea_noc::coord::Dir;
use medea_noc::flit::Flit;
use medea_noc::network::NetworkShard;
use medea_noc::{Fabric, FabricStats};
use medea_pe::pe::ProcessingElement;
use medea_sim::ids::NodeId;
use medea_sim::par::Phaser;
use medea_sim::Cycle;
use medea_trace::{NullSink, TraceEvent, TraceSink};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Run `kernels` on the tiled engine if the configuration selects it,
/// or hand the kernels back (`Err`) for the sequential path.
///
/// The tiled engine engages only when all of these hold:
///
/// * `cfg.host_threads() > 1` and at least two tiles fit the torus;
/// * the fabric is the deflection torus (the ideal fabric is a
///   contention-free ablation model with no shard decomposition);
/// * the fault injector can be forked per tile
///   ([`FaultInjector::fork_for_tile`]).
pub(crate) fn try_run_tiled<S: TraceSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    sink: &mut S,
    injector: &mut I,
    meter: &mut M,
) -> Result<Result<RunResult, RunError>, Vec<Kernel>> {
    let tiles = cfg.host_threads().min(cfg.topology().nodes());
    if tiles < 2 || cfg.fabric() != FabricKind::Deflection {
        return Err(kernels);
    }
    let mut forks = Vec::with_capacity(tiles);
    for _ in 0..tiles {
        match injector.fork_for_tile() {
            Some(fork) => forks.push(fork),
            None => return Err(kernels),
        }
    }
    // Workers buffer trace events locally (the caller's sink cannot be
    // shared across threads); the buffers are replayed into `sink` after
    // the join, merged in (cycle, tile) order. The dispatch keeps the
    // untraced instantiation free of buffering entirely.
    let (result, trace) = if S::ACTIVE {
        run_tiled::<BufSink, I, M>(cfg, preload, kernels, injector, forks, meter)
    } else {
        run_tiled::<NullSink, I, M>(cfg, preload, kernels, injector, forks, meter)
    };
    for (at, event) in trace {
        sink.record(at, event);
    }
    Ok(result)
}

/// A tile-local trace sink that can surrender its buffered events.
trait WorkerSink: TraceSink {
    /// A fresh, empty sink.
    fn fresh() -> Self;
    /// The `(cycle, event)` stream recorded so far, cycles nondecreasing.
    fn into_events(self) -> Vec<(Cycle, TraceEvent)>;
}

impl WorkerSink for NullSink {
    fn fresh() -> Self {
        NullSink
    }
    fn into_events(self) -> Vec<(Cycle, TraceEvent)> {
        Vec::new()
    }
}

/// Unbounded in-order event buffer for traced tiled runs.
struct BufSink(Vec<(Cycle, TraceEvent)>);

impl TraceSink for BufSink {
    const ACTIVE: bool = true;
    fn record(&mut self, at: Cycle, event: TraceEvent) {
        self.0.push((at, event));
    }
}

impl WorkerSink for BufSink {
    fn fresh() -> Self {
        BufSink(Vec::new())
    }
    fn into_events(self) -> Vec<(Cycle, TraceEvent)> {
        self.0
    }
}

/// Everything one worker owns: a contiguous shard of the fabric and a
/// scheduler over the PEs/banks whose nodes fall inside it (rank→node and
/// bank→node maps are monotone, so each tile's lists are contiguous runs
/// of the global rank/bank order). The scheduler also keeps the tile's
/// fault tail, which the main thread merges by `(cycle, phase, tile)`
/// into the sequential push order.
struct Tile<I, M> {
    index: usize,
    shard: NetworkShard,
    sched: Scheduler,
    injector: I,
    /// This tile's full-size meter fork: it writes only the slots of the
    /// components the tile owns, so absorbing the forks in tile-index
    /// order element-wise-sums to the sequential recording.
    meter: M,
    trace: Vec<(Cycle, TraceEvent)>,
}

/// One boundary flit in transit: `(destination router, input direction,
/// flit)`, exactly the triple `NetworkShard::import` consumes.
type BoundaryFlit = (u16, u8, Flit);

/// What a tile publishes at the barrier, for the leader's serial section.
#[derive(Clone, Default)]
struct TileReport {
    live: usize,
    in_flight: usize,
    exported: usize,
    banks_quiet: bool,
    fp_partial: u64,
    wake_guard: bool,
    /// The tile's [`quiet_fold`] partial — `Some` exactly when the tile
    /// is locally drained, which all tiles are whenever the system is
    /// globally quiet (the only time the leader reads it).
    quiet: Option<(bool, Option<Cycle>, bool)>,
}

/// The leader's verdict for the next round.
#[derive(Clone)]
enum Decision {
    /// Simulate cycle `now`; apply `kills` (original `(node, dir)` pairs
    /// drained from the injector schedule) before any traffic moves.
    Go { now: Cycle, kills: Vec<(u16, u8)> },
    /// The run is over as of cycle `at`; workers flush their meters
    /// (final snapshot + [`Meter::finish`]) and exit without running
    /// another cycle.
    Stop { at: Cycle },
}

/// Why the leader stopped the run (details are assembled post-join, when
/// the main thread has every tile's PEs/banks/fault log back in hand).
enum StopCause {
    Done { at: Cycle },
    CycleLimit { in_flight: usize },
    Watchdog { at: Cycle, in_flight: usize },
    Deadlock { at: Cycle },
}

/// Cross-thread coordination state, shared by reference into the scope.
struct Shared {
    phaser: Phaser,
    decision: Mutex<Decision>,
    reports: Vec<Mutex<TileReport>>,
    /// Boundary-flit mailboxes, one per directed tile pair
    /// (`[parity][from * tiles + to]`), double-buffered by round parity:
    /// round `r` drains buffer `(r+1) & 1` and fills buffer `r & 1`, so
    /// a tile racing ahead within the same barrier window can never push
    /// into a mailbox its neighbor is still draining.
    mailboxes: [Vec<Mutex<Vec<BoundaryFlit>>>; 2],
    /// Tile boundaries: tile `i` owns nodes `starts[i]..starts[i+1]`.
    starts: Vec<u16>,
    /// First panic payload from any worker; rethrown after the join.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    fn tiles(&self) -> usize {
        self.reports.len()
    }

    fn tile_of(&self, node: usize) -> usize {
        self.starts.partition_point(|&s| (s as usize) <= node) - 1
    }

    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.phaser.poison();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker that panicked mid-push poisons the mutex; the payload is
    // rethrown after the join, so the inner data is never trusted.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_tiled<LS: WorkerSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    injector: &mut I,
    forks: Vec<I>,
    meter: &mut M,
) -> (Result<RunResult, RunError>, Vec<(Cycle, TraceEvent)>) {
    let topo = cfg.topology();
    let tiles = forks.len();
    let starts = tile_starts(cfg, tiles);

    let banks_all = build_banks(cfg, preload);
    let pes_all = build_pes(cfg, kernels);
    let wall_start = Instant::now();

    let tile_of = |node: usize| starts.partition_point(|&s| (s as usize) <= node) - 1;
    let mut tile_pes: Vec<Vec<ProcessingElement>> = (0..tiles).map(|_| Vec::new()).collect();
    let mut tile_banks: Vec<Vec<Bank>> = (0..tiles).map(|_| Vec::new()).collect();
    for pe in pes_all {
        tile_pes[tile_of(pe.node().index())].push(pe);
    }
    for bank in banks_all {
        tile_banks[tile_of(bank.node.index())].push(bank);
    }
    let (mut pe_base, mut bank_base) = (0usize, 0usize);
    let mut tile_vec: Vec<Tile<I, M>> = Vec::with_capacity(tiles);
    for (i, ((fork, pes), banks)) in forks.into_iter().zip(tile_pes).zip(tile_banks).enumerate() {
        let nodes = starts[i] as usize..starts[i + 1] as usize;
        let (pes_here, banks_here) = (pes.len(), banks.len());
        tile_vec.push(Tile {
            index: i,
            shard: NetworkShard::new(topo, nodes.start, nodes.end),
            sched: Scheduler::new(pes, banks, nodes, pe_base, bank_base),
            injector: fork,
            meter: meter.fork(),
            trace: Vec::new(),
        });
        pe_base += pes_here;
        bank_base += banks_here;
    }

    // Cycle 0's scheduled kills, drained exactly like the sequential
    // engine's top-of-loop drain.
    let mut kills = Vec::new();
    if I::ACTIVE {
        while let Some(kill) = injector.take_link_kill(0) {
            kills.push((kill.node, kill.dir & 3));
        }
    }
    let boxes = || (0..tiles * tiles).map(|_| Mutex::new(Vec::new())).collect::<Vec<_>>();
    let shared = Shared {
        phaser: Phaser::new(tiles),
        decision: Mutex::new(Decision::Go { now: 0, kills }),
        reports: (0..tiles).map(|_| Mutex::new(TileReport::default())).collect(),
        mailboxes: [boxes(), boxes()],
        starts,
        panic: Mutex::new(None),
    };

    let mut tile_iter = tile_vec.into_iter();
    let mut leader_tile = tile_iter.next().expect("tiles >= 2");
    let followers: Vec<Tile<I, M>> = tile_iter.collect();

    let mut cause: Option<StopCause> = None;
    let mut joined: Vec<Tile<I, M>> = Vec::with_capacity(tiles - 1);
    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = followers
            .into_iter()
            .map(|mut tile| {
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        follower_loop::<LS, I, M>(&mut tile, shared, cfg);
                    }));
                    if let Err(payload) = outcome {
                        shared.store_panic(payload);
                    }
                    tile
                })
            })
            .collect();

        let leader_outcome = catch_unwind(AssertUnwindSafe(|| {
            leader_loop::<LS, I, M>(&mut leader_tile, shared, cfg, injector)
        }));
        match leader_outcome {
            Ok(stop) => cause = stop,
            Err(payload) => shared.store_panic(payload),
        }

        for handle in handles {
            match handle.join() {
                Ok(tile) => joined.push(tile),
                Err(payload) => shared.store_panic(payload),
            }
        }
    });
    if let Some(payload) = lock(&shared.panic).take() {
        resume_unwind(payload);
    }

    // Reassemble global state in tile-index order — which *is* rank order
    // for PEs and bank order for banks, because both maps are monotone in
    // the node index the tiles partition.
    let mut all_tiles = Vec::with_capacity(tiles);
    all_tiles.push(leader_tile);
    all_tiles.extend(joined);

    let mut pes: Vec<ProcessingElement> = Vec::new();
    let mut banks: Vec<Bank> = Vec::new();
    let mut fstats = FabricStats::default();
    let mut fault = injector.stats();
    let mut log_entries: Vec<(Cycle, u8, usize, usize, TraceEvent)> = Vec::new();
    let mut traces: Vec<Vec<(Cycle, TraceEvent)>> = Vec::new();
    let mut meter_parts: Vec<M> = Vec::with_capacity(tiles);
    for (ti, tile) in all_tiles.into_iter().enumerate() {
        fstats.merge(tile.shard.stats());
        fault.merge(&tile.injector.stats());
        for (seq, (cycle, phase, event)) in tile.sched.faults().enumerate() {
            log_entries.push((cycle, phase, ti, seq, event));
        }
        pes.extend(tile.sched.pes);
        banks.extend(tile.sched.banks);
        traces.push(tile.trace);
        meter_parts.push(tile.meter);
    }
    // Merge the per-tile meter forks back in tile-index order: every
    // series slot has exactly one writer, so the element-wise sum is
    // bit-identical to sequential recording. The forks already flushed
    // (sampled + finished) at the stop decision; the caller must NOT
    // finish again.
    meter.absorb(meter_parts);
    log_entries.sort_by_key(|&(cycle, phase, ti, seq, _)| (cycle, phase, ti, seq));
    let fault_log: Vec<(Cycle, TraceEvent)> = log_entries
        .iter()
        .skip(log_entries.len().saturating_sub(FAULT_LOG_CAP))
        .map(|&(cycle, _, _, _, event)| (cycle, event))
        .collect();
    let trace = merge_traces(traces);

    let limit = cfg.cycle_limit();
    let result = match cause.expect("tiled engine stopped without a cause or a panic") {
        StopCause::Done { at } => Ok(finish_result(at, &pes, &fstats, &banks, wall_start, fault)),
        StopCause::CycleLimit { in_flight } => Err(RunError::CycleLimit {
            limit,
            detail: stall_summary(&pes, &banks, in_flight, &fault_log),
        }),
        StopCause::Watchdog { at, in_flight } => Err(RunError::Watchdog {
            at,
            detail: stall_summary(&pes, &banks, in_flight, &fault_log),
        }),
        StopCause::Deadlock { at } => Err(RunError::Deadlock { at, detail: deadlock_detail(&pes) }),
    };
    (result, trace)
}

/// Per-cycle cost weight of a node hosting a PE or an MPMMU bank,
/// relative to [`ROUTER_WEIGHT`] for a node that is only a router. Ticking
/// an active component dominates an idle router (drained shards tick in
/// constant time), so busy nodes weigh heavily and the router term mostly
/// breaks ties across fully idle stretches.
const ACTIVE_NODE_WEIGHT: u64 = 16;
/// Baseline weight of every node (its deflection router).
const ROUTER_WEIGHT: u64 = 1;

/// Load-aware tile boundaries: tile `i` owns nodes
/// `starts[i]..starts[i+1]`.
///
/// Boundaries land on the quantiles of the cumulative per-node simulation
/// weight rather than the node count, so a sparsely populated torus (say
/// 10 PEs in the corner of an 8×8) spreads its *busy* nodes over the
/// workers instead of handing them all to tile 0. Clamps keep every tile
/// at least one node wide. The split is a host-side scheduling choice
/// only: results are bit-identical for every boundary placement (pinned
/// by `tests/parallel_equivalence.rs`).
fn tile_starts(cfg: &SystemConfig, tiles: usize) -> Vec<u16> {
    let nodes = cfg.topology().nodes();
    debug_assert!(2 <= tiles && tiles <= nodes);
    let plan = cfg.node_plan();
    let weight = |node: usize| -> u64 {
        let id = NodeId::new(node as u16);
        if plan.is_bank_node(id) || plan.rank_of_node(id).is_some() {
            ROUTER_WEIGHT + ACTIVE_NODE_WEIGHT
        } else {
            ROUTER_WEIGHT
        }
    };
    let mut prefix: Vec<u64> = Vec::with_capacity(nodes + 1);
    prefix.push(0);
    for n in 0..nodes {
        prefix.push(prefix[n] + weight(n));
    }
    let total = prefix[nodes];
    let mut starts: Vec<u16> = Vec::with_capacity(tiles + 1);
    starts.push(0);
    for i in 1..tiles {
        let target = total * i as u64 / tiles as u64;
        let boundary = prefix.partition_point(|&p| p < target);
        // At least one node per tile, and enough nodes left for the rest.
        let lo = starts[i - 1] as usize + 1;
        let hi = nodes - (tiles - i);
        starts.push(boundary.clamp(lo, hi) as u16);
    }
    starts.push(nodes as u16);
    starts
}

/// Merge per-tile trace buffers into one deterministic stream: cycles
/// ascending, ties broken by tile index, each tile's within-cycle order
/// preserved. (Within a cycle the sequential engine interleaves
/// components phase-major, so cross-engine comparisons are per-cycle
/// multiset equality — see `tests/parallel_equivalence.rs`.)
fn merge_traces(per_tile: Vec<Vec<(Cycle, TraceEvent)>>) -> Vec<(Cycle, TraceEvent)> {
    let mut out = Vec::with_capacity(per_tile.iter().map(Vec::len).sum());
    let mut heads = vec![0usize; per_tile.len()];
    loop {
        let mut min_cycle: Option<Cycle> = None;
        for (t, buf) in per_tile.iter().enumerate() {
            if let Some(&(c, _)) = buf.get(heads[t]) {
                min_cycle = Some(min_cycle.map_or(c, |m| m.min(c)));
            }
        }
        let Some(cycle) = min_cycle else { break };
        for (t, buf) in per_tile.iter().enumerate() {
            while let Some(&(c, event)) = buf.get(heads[t]) {
                if c != cycle {
                    break;
                }
                out.push((c, event));
                heads[t] += 1;
            }
        }
    }
    out
}

fn follower_loop<LS: WorkerSink, I: FaultInjector, M: Meter>(
    tile: &mut Tile<I, M>,
    shared: &Shared,
    cfg: &SystemConfig,
) {
    let mut sink = LS::fresh();
    let mut gen = shared.phaser.generation();
    loop {
        let decision = lock(&shared.decision).clone();
        let (now, kills) = match decision {
            Decision::Go { now, kills } => (now, kills),
            Decision::Stop { at } => {
                finish_tile_meter(tile, at);
                break;
            }
        };
        execute_cycle(tile, shared, cfg, now, &kills, gen, &mut sink);
        if !shared.phaser.arrive_and_wait(gen) {
            break;
        }
        gen += 1;
    }
    tile.trace = sink.into_events();
}

/// Flush one tile's meter at the stop decision: final snapshot of the
/// tile's own components, then close the attribution spans and the
/// partial last window at `at` — the same end cycle every tile uses, so
/// the forks stay in window lockstep for the absorb.
fn finish_tile_meter<I, M: Meter>(tile: &mut Tile<I, M>, at: Cycle) {
    if M::ACTIVE {
        tile.sched.sample(&mut tile.meter);
        tile.meter.finish(at);
    }
}

fn leader_loop<LS: WorkerSink, I: FaultInjector, M: Meter>(
    tile: &mut Tile<I, M>,
    shared: &Shared,
    cfg: &SystemConfig,
    injector: &mut I,
) -> Option<StopCause> {
    let watchdog = cfg.resilience().watchdog_cycles;
    let limit = cfg.cycle_limit();
    let mut sink = LS::fresh();
    let mut gen = shared.phaser.generation();
    // The leader owns the sequential engine's cross-cycle decision state.
    let mut last_fingerprint: u64 = 0;
    let mut last_progress_at: Cycle = 0;
    let mut cause: Option<StopCause> = None;
    loop {
        let decision = lock(&shared.decision).clone();
        let (now, kills) = match decision {
            Decision::Go { now, kills } => (now, kills),
            Decision::Stop { at } => {
                finish_tile_meter(tile, at);
                break;
            }
        };
        execute_cycle(tile, shared, cfg, now, &kills, gen, &mut sink);
        if !shared.phaser.wait_followers() {
            break;
        }

        // Serial section: replicate the sequential engine's end-of-cycle
        // decisions, in its exact order, from the folded tile reports.
        let mut live = 0usize;
        let mut in_flight = 0usize;
        let mut all_banks_quiet = true;
        let mut fp = 0u64;
        let mut wake_guard = false;
        let mut fold = (true, None::<Cycle>, true);
        for report in &shared.reports {
            let r = lock(report).clone();
            live += r.live;
            in_flight += r.in_flight + r.exported;
            all_banks_quiet &= r.banks_quiet;
            fp = fp.wrapping_add(r.fp_partial);
            wake_guard |= r.wake_guard;
            if let Some((timed, min_wake, recv_blocked)) = r.quiet {
                fold.0 &= timed;
                fold.1 = match (fold.1, min_wake) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                fold.2 &= recv_blocked;
            }
        }

        let next = if live == 0 {
            cause = Some(StopCause::Done { at: now });
            Decision::Stop { at: now }
        } else if now >= limit {
            cause = Some(StopCause::CycleLimit { in_flight });
            Decision::Stop { at: now }
        } else {
            let mut stalled = false;
            if watchdog > 0 {
                if fp != last_fingerprint {
                    last_fingerprint = fp;
                    last_progress_at = now;
                } else if wake_guard {
                    // Same healthy-timed-stall carve-out as the
                    // sequential engine's watchdog.
                    last_progress_at = now;
                } else if now - last_progress_at >= watchdog {
                    cause = Some(StopCause::Watchdog { at: now, in_flight });
                    stalled = true;
                }
            }
            if stalled {
                Decision::Stop { at: now }
            } else {
                let mut next_now = now + 1;
                let mut deadlocked = false;
                if in_flight == 0 && all_banks_quiet {
                    match classify_fold(fold.0, fold.1, fold.2) {
                        QuietState::AllTimed { min_wake } => {
                            let t = min_wake.min(limit);
                            if t > now + 1 {
                                last_progress_at = t;
                                next_now = t;
                            }
                        }
                        QuietState::Deadlocked => {
                            cause = Some(StopCause::Deadlock { at: now });
                            deadlocked = true;
                        }
                        QuietState::Mixed => {}
                    }
                }
                if deadlocked {
                    Decision::Stop { at: now }
                } else {
                    let mut kills = Vec::new();
                    if I::ACTIVE {
                        while let Some(kill) = injector.take_link_kill(next_now) {
                            kills.push((kill.node, kill.dir & 3));
                        }
                    }
                    Decision::Go { now: next_now, kills }
                }
            }
        };
        *lock(&shared.decision) = next;
        shared.phaser.release();
        gen += 1;
    }
    tile.trace = sink.into_events();
    cause
}

/// One tile's share of one simulated cycle — the same phases, in the same
/// order, as one iteration of the sequential engine's loop, restricted to
/// the tile's components. Phases 1–3 are the very scheduler the
/// sequential engine runs ([`Scheduler::step`]), over the tile's shard.
fn execute_cycle<LS: WorkerSink, I: FaultInjector, M: Meter>(
    tile: &mut Tile<I, M>,
    shared: &Shared,
    cfg: &SystemConfig,
    now: Cycle,
    kills: &[(u16, u8)],
    round: u64,
    sink: &mut LS,
) {
    let tiles = shared.tiles();
    let cur = (round & 1) as usize;
    let prev = cur ^ 1;

    // Sampling catch-up, as at the top of the sequential loop. Every tile
    // sees the same `now` sequence, so the forks commit windows in
    // lockstep; sampling before the boundary import is equivalent to
    // after it (imports only touch router input latches, which no sampled
    // quantity reads).
    if M::ACTIVE {
        while tile.meter.next_sample() <= now {
            tile.sched.sample(&mut tile.meter);
            tile.meter.commit_window();
        }
    }

    // 0a. Import boundary flits the neighbors' phase 2 latched last
    // cycle. Input latches are untouched until the route phase at the end
    // of this cycle, so importing here is exactly the sequential phase-2
    // delivery. Fixed from-tile order keeps the walk deterministic; the
    // final latch state is order-independent anyway (one writer per
    // (router, dir) input).
    for from in 0..tiles {
        let mut inbox = lock(&shared.mailboxes[prev][from * tiles + tile.index]);
        for (to, from_dir, flit) in inbox.drain(..) {
            tile.shard.import(to, from_dir, flit);
        }
    }

    // 0b. Scheduled permanent faults. Every tile sees the same kill list
    // and disables the link ends it owns (a dead link has a router on
    // each side, possibly in different tiles); the leader alone logs the
    // event, once, like the sequential engine.
    for &(node, dir) in kills {
        if tile.index == 0 {
            let event = TraceEvent::FaultLinkKilled { node, dir };
            if LS::ACTIVE {
                sink.record(now, event);
            }
            tile.sched.log_fault(now, FAULT_LINK_KILL, event);
        }
        tile.shard.kill_link(NodeId::new(node), Dir::ALL[dir as usize & 3]);
    }

    // 1.–3. Deliver, tick, inject. The census gate and the eject-ready
    // walk are tile-local, and the composite uid stamped by the shard
    // keeps arbitration identical to the sequential sweep without any
    // cross-tile ordering.
    tile.sched.step(&mut tile.shard, now, sink, &mut tile.injector, &mut tile.meter);

    // 4. Fabric: route + deliver local latches; boundary latches become
    // exports.
    tile.shard.tick_metered(now, sink, &mut tile.meter);

    // 5. Publish boundary flits into this round's mailboxes and report.
    let exports = tile.shard.take_exports();
    let exported = exports.len();
    for (to, from_dir, flit) in exports {
        let dest = shared.tile_of(to as usize);
        lock(&shared.mailboxes[cur][tile.index * tiles + dest]).push((to, from_dir, flit));
    }

    let sched = &tile.sched;
    let quiet_local = tile.shard.in_flight() == 0 && exported == 0 && banks_quiet(&sched.banks);
    let watchdog_on = cfg.resilience().watchdog_cycles > 0;
    let (fp_partial, wake_guard) = if watchdog_on {
        (progress_fingerprint(&sched.pes, &sched.banks), sched.timed_stall_pending(now))
    } else {
        (0, false)
    };
    *lock(&shared.reports[tile.index]) = TileReport {
        live: sched.live(),
        in_flight: tile.shard.in_flight(),
        exported,
        banks_quiet: banks_quiet(&sched.banks),
        fp_partial,
        wake_guard,
        quiet: quiet_local.then(|| quiet_fold(&sched.pes)),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_noc::coord::Topology;

    fn active_nodes(cfg: &SystemConfig, lo: u16, hi: u16) -> usize {
        let plan = cfg.node_plan();
        (lo..hi)
            .filter(|&n| {
                let id = NodeId::new(n);
                plan.is_bank_node(id) || plan.rank_of_node(id).is_some()
            })
            .count()
    }

    #[test]
    fn tile_starts_balance_load_not_node_count() {
        // 11 busy nodes (bank 0 + 10 ranks) in the low corner of an 8×8:
        // the old equal-node split (32|32) hands every busy node to tile
        // 0; the weighted split moves the boundary into the busy region.
        let topo = Topology::new(8, 8).unwrap();
        let cfg = SystemConfig::builder().topology(topo).compute_pes(10).build().unwrap();
        let starts = tile_starts(&cfg, 2);
        assert_eq!(starts, [0, starts[1], 64]);
        let t0 = active_nodes(&cfg, starts[0], starts[1]);
        let t1 = active_nodes(&cfg, starts[1], starts[2]);
        assert!(t0 < 11, "tile 0 must not own every busy node (got all {t0})");
        assert!(t1 >= 3, "tile 1 got only {t1} busy nodes");
    }

    #[test]
    fn tile_starts_reduce_to_even_split_when_fully_populated() {
        // All nodes busy → uniform weights → the node-count split.
        let topo = Topology::new(4, 4).unwrap();
        let cfg = SystemConfig::builder().topology(topo).compute_pes(15).build().unwrap();
        assert_eq!(tile_starts(&cfg, 4), [0, 4, 8, 12, 16]);
    }

    #[test]
    fn tile_starts_are_valid_partitions() {
        for (w, h, pes, banks, tiles) in [
            (4u8, 4u8, 15usize, 1usize, 2usize),
            (4, 4, 1, 1, 4),
            (8, 8, 10, 4, 7),
            (4, 4, 2, 2, 16),
        ] {
            let topo = Topology::new(w, h).unwrap();
            let cfg = SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .build()
                .unwrap();
            let starts = tile_starts(&cfg, tiles);
            assert_eq!(starts.len(), tiles + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap() as usize, topo.nodes());
            assert!(
                starts.windows(2).all(|p| p[0] < p[1]),
                "{w}x{h}/{tiles} tiles: empty tile in {starts:?}"
            );
        }
    }
}
