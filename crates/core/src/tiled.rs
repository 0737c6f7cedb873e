//! The tiled parallel driver: deterministic intra-run parallelism.
//!
//! [`try_run_tiled`] domain-decomposes the torus into `T` contiguous node
//! ranges (tiles) and runs one worker thread per tile, each owning its
//! tile's shard of the fabric ([`Network::shard`]) and a [`Scheduler`]
//! over the PEs and MPMMU banks whose nodes fall inside it. Every cycle
//! each worker runs the one cycle body of both engines,
//! [`Scheduler::cycle`], over its tile. One spin barrier ([`Phaser`]) per
//! simulated cycle separates the cycles; **the barrier is the clock
//! edge**: everything a tile does between two barriers is the work the
//! sequential driver does for the same components within one `now`, and
//! the only cross-tile traffic is the boundary link latches, exchanged
//! through per-directed-pair mailboxes. At the barrier the leader folds
//! the tile reports ([`CycleReport::merge`]) and runs the one decision
//! chain of both engines ([`Chain::decide`]). This driver itself adds
//! only the boundary import/export, the tile report, the barrier and the
//! merges.
//!
//! Only hook-free runs come here: `System::run_with` offers a run to
//! [`try_run_tiled`] only when its trace sink, fault injector and meter
//! are all inactive, so every tile drives [`Scheduler::cycle`] with
//! `NullSink`, `NullInjector` and `NullMeter`. A traced, faulted or
//! metered run takes the sequential driver at any thread count.
//!
//! # Why the result is bit-identical to the sequential driver
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
//!   (bucket-wise histogram sums) and the cycle reports (sums, ORs and
//!   the quiet fold's AND/MIN, with an identity for empty tiles) are
//!   order-insensitive or merged in tile order, never in
//!   thread-completion order.
//! * **One leader makes every global decision.** Tile 0 (on the calling
//!   thread) runs the decision chain over the folded report.
//!
//! `tests/parallel_equivalence.rs` pins all of this: identical
//! [`RunResult`]s and error details at every thread count, including the
//! golden paper-4×4 fingerprints.

use crate::config::SystemConfig;
use crate::sched::Scheduler;
use crate::system::{
    build_banks, build_pes, AnyKernel, Bank, Chain, CycleReport, RunError, RunResult, Stop,
};
use crate::FabricKind;
use medea_cache::Addr;
use medea_fault::{FaultStats, NullInjector};
use medea_metrics::NullMeter;
use medea_noc::network::{BoundaryFlit, Network};
use medea_noc::{Fabric, FabricStats};
use medea_pe::pe::ProcessingElement;
use medea_sim::ids::NodeId;
use medea_sim::par::Phaser;
use medea_sim::Cycle;
use medea_trace::NullSink;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Run `kernels` on the tiled engine if the configuration selects it,
/// or hand the kernels back (`Err`) for the sequential path.
///
/// The tiled engine engages only when `cfg.host_threads() > 1`, at least
/// two tiles fit the torus, and the fabric is the deflection torus (the
/// ideal fabric is a contention-free ablation model with no shard
/// decomposition). The caller offers only hook-free runs.
pub(crate) fn try_run_tiled(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<AnyKernel>,
) -> Result<Result<RunResult, RunError>, Vec<AnyKernel>> {
    let tiles = cfg.host_threads().min(cfg.topology().nodes());
    if tiles < 2 || cfg.fabric() != FabricKind::Deflection {
        return Err(kernels);
    }
    Ok(run_tiled(cfg, preload, kernels, tiles))
}

/// Everything one worker owns: a contiguous shard of the fabric and a
/// scheduler over the PEs/banks whose nodes fall inside it (rank→node and
/// bank→node maps are monotone, so each tile's lists are contiguous runs
/// of the global rank/bank order).
struct Tile {
    index: usize,
    fabric: Network,
    sched: Scheduler,
}

/// Cross-thread coordination state, shared by reference into the scope.
struct Shared {
    phaser: Phaser,
    /// The leader's verdict for the next round: the cycle to simulate,
    /// or `None` once the run is over.
    decision: Mutex<Option<Cycle>>,
    reports: Vec<Mutex<CycleReport>>,
    /// Whether reports carry the watchdog's inputs.
    watchdog: bool,
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

fn run_tiled(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<AnyKernel>,
    tiles: usize,
) -> Result<RunResult, RunError> {
    let topo = cfg.topology();
    let starts = tile_starts(cfg, tiles);

    let banks_all = build_banks(cfg, preload);
    let pes_all = build_pes::<NullSink>(cfg, kernels);
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
    let mut tile_vec: Vec<Tile> = Vec::with_capacity(tiles);
    for (i, (pes, banks)) in tile_pes.into_iter().zip(tile_banks).enumerate() {
        let nodes = starts[i] as usize..starts[i + 1] as usize;
        tile_vec.push(Tile {
            index: i,
            fabric: Network::shard(topo, nodes.start, nodes.end),
            sched: Scheduler::new(pes, banks, nodes),
        });
    }

    let mut chain = Chain::new(cfg, &mut NullInjector);
    let boxes = || (0..tiles * tiles).map(|_| Mutex::new(Vec::new())).collect::<Vec<_>>();
    let shared = Shared {
        phaser: Phaser::new(tiles),
        decision: Mutex::new(Some(0)),
        reports: (0..tiles).map(|_| Mutex::new(CycleReport::default())).collect(),
        watchdog: chain.watchdog_on(),
        mailboxes: [boxes(), boxes()],
        starts,
        panic: Mutex::new(None),
    };

    let mut tile_iter = tile_vec.into_iter();
    let mut leader_tile = tile_iter.next().expect("tiles >= 2");
    let followers: Vec<Tile> = tile_iter.collect();

    let mut stop: Option<Stop> = None;
    let mut joined: Vec<Tile> = Vec::with_capacity(tiles - 1);
    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = followers
            .into_iter()
            .map(|mut tile| {
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        worker(&mut tile, shared, None);
                    }));
                    if let Err(payload) = outcome {
                        shared.store_panic(payload);
                    }
                    tile
                })
            })
            .collect();

        let leader_outcome =
            catch_unwind(AssertUnwindSafe(|| worker(&mut leader_tile, shared, Some(&mut chain))));
        match leader_outcome {
            Ok(outcome) => stop = outcome,
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
    let mut pes: Vec<ProcessingElement> = Vec::new();
    let mut banks: Vec<Bank> = Vec::new();
    let mut fstats = FabricStats::default();
    for tile in std::iter::once(leader_tile).chain(joined) {
        fstats.merge(tile.fabric.stats());
        pes.extend(tile.sched.pes);
        banks.extend(tile.sched.banks);
    }

    let stop = stop.expect("tiled engine stopped without a cause or a panic");
    stop.conclude(&pes, &banks, &[], &fstats, FaultStats::default(), wall_start)
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

/// One tile's thread: simulate the cycles the leader decides until it
/// stops the run. The leader — tile 0, holding the decision chain — waits
/// for the followers at the clock edge, folds the tile reports in tile
/// order, runs the chain, and releases the followers into the next
/// round. Returns the chain's stop on the leader, `None` on a follower or
/// when a panic poisoned the phaser.
fn worker(tile: &mut Tile, shared: &Shared, mut leader: Option<&mut Chain>) -> Option<Stop> {
    let mut gen = shared.phaser.generation();
    let mut stop = None;
    loop {
        // The guard drops with this statement: the leader relocks it below.
        let Some(now) = *lock(&shared.decision) else { break };
        execute_cycle(tile, shared, now, gen);
        let Some(chain) = leader.as_mut() else {
            if !shared.phaser.arrive_and_wait(gen) {
                break;
            }
            gen += 1;
            continue;
        };
        if !shared.phaser.wait_followers() {
            break;
        }
        let mut report = *lock(&shared.reports[0]);
        for other in &shared.reports[1..] {
            report.merge(&lock(other));
        }
        *lock(&shared.decision) = match chain.decide(now, &report, &mut NullInjector) {
            ControlFlow::Continue(next) => Some(next),
            ControlFlow::Break(cause) => {
                stop = Some(cause);
                None
            }
        };
        shared.phaser.release();
        gen += 1;
    }
    stop
}

/// One tile's share of one simulated cycle: import the boundary flits
/// the neighbours exported last cycle, run the cycle body
/// ([`Scheduler::cycle`]) over the tile's shard, publish the tile's
/// report, and export this cycle's boundary flits.
fn execute_cycle(tile: &mut Tile, shared: &Shared, now: Cycle, round: u64) {
    let tiles = shared.tiles();
    let cur = (round & 1) as usize;

    // Input latches are untouched until the route phase at the end of
    // this cycle, so importing here is exactly the sequential phase-2
    // delivery. Fixed from-tile order keeps the walk deterministic; the
    // final latch state is order-independent anyway (one writer per
    // (router, dir) input).
    for from in 0..tiles {
        let mut inbox = lock(&shared.mailboxes[cur ^ 1][from * tiles + tile.index]);
        for (to, from_dir, flit) in inbox.drain(..) {
            tile.fabric.import(to, from_dir, flit);
        }
    }

    tile.sched.cycle(&mut tile.fabric, now, &[], &mut NullSink, &mut NullInjector, &mut NullMeter);

    // The report counts the undrained exports as in flight.
    let report = CycleReport::new(&tile.sched, tile.fabric.in_flight(), now, shared.watchdog);
    *lock(&shared.reports[tile.index]) = report;
    for flit in tile.fabric.drain_exports() {
        let dest = shared.tile_of(flit.0 as usize);
        lock(&shared.mailboxes[cur][tile.index * tiles + dest]).push(flit);
    }
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
