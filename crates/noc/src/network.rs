//! The deflection-routed folded-torus fabric.
//!
//! A [`Network`] owns the routers of one contiguous node range and moves
//! flits between them with single-cycle links: the whole torus
//! ([`Network::new`]) for the sequential cycle engine, or one tile of it
//! ([`Network::shard`]) for the tiled engine. The two-phase tick (route
//! everything, then deliver everything) gives the delta-cycle semantics
//! of the original SystemC model: all routers observe the state left by
//! the previous cycle. A latched flit whose receiving router lies outside
//! the range becomes an *export* instead of a delivery; the tiled engine
//! hands exports to the owning tile, which [`Network::import`]s them
//! before its next route phase — the same single-cycle link timing. A
//! whole-torus network owns every receiver, so it never exports.
//!
//! The tick is the simulator's hot path and is engineered to be
//! allocation-free and activity-scheduled:
//!
//! * link latches are a persistent double buffer (`latches`), not a
//!   per-cycle collect, and the export list keeps its buffer across
//!   cycles ([`Network::drain_exports`]);
//! * only *active* switches — those holding a latched flit or a pending
//!   injection at the cycle boundary — are routed; an idle switch costs
//!   nothing, which matters because realistic workloads leave most of the
//!   torus dark most of the time;
//! * the flit census ([`Fabric::in_flight`]) is an incrementally
//!   maintained counter, O(1) instead of an all-router scan (the cycle
//!   engine consults it every cycle);
//! * a one-bit-per-router *eject-ready* set marks the non-empty ejection
//!   queues ([`Fabric::next_ejectable`]), so delivery visits only the
//!   nodes that have a flit waiting.

use crate::coord::{Dir, Topology};
use crate::flit::Flit;
use crate::router::DeflectionRouter;
use crate::{Fabric, FabricStats};
use medea_metrics::{Meter, NullMeter};
use medea_sim::{ids::NodeId, Cycle};
use medea_trace::{NullSink, TraceEvent, TraceSink};

/// Arbitration uid for a flit injected at `node` during cycle `now`.
///
/// Routers arbitrate same-age flits by uid (see
/// [`DeflectionRouter::route`]: the sort key is `(injected_at, uid)`), so
/// the uid must reproduce the cycle engine's intra-cycle injection order:
/// within one cycle the engine offers PE flits in rank order, then bank
/// responses in bank order, and both the rank→node and bank→node maps are
/// strictly increasing. Encoding `(is_bank, node)` in the low 9 bits
/// therefore sorts exactly like a shared injection counter would — but is
/// locally computable, which is what lets the tiled parallel engine assign
/// uids without any cross-tile coordination (and why the sequential engine
/// uses the same scheme, keeping both engines bit-identical).
///
/// The uid is unique among concurrently-resident flits: a router accepts at
/// most one injection per node per cycle, and no node hosts both a PE and a
/// bank. `injected_at` occupies bits 9.., so cycle counts must stay below
/// 2^55 — comfortably above the configurable cycle limit.
#[inline]
pub fn compose_uid(now: Cycle, from_bank: bool, node: NodeId) -> u64 {
    (now << 9) | ((from_bank as u64) << 8) | node.index() as u64
}

/// A flit crossing a network boundary: `(receiving node, receiving input
/// direction index, flit)` — what [`Network::drain_exports`] yields and
/// [`Network::import`] consumes.
pub type BoundaryFlit = (u16, u8, Flit);

/// One bit per router: set exactly while its ejection queue is non-empty.
/// A router's queue grows only while it routes and shrinks only on
/// `eject`, so updating the bit at those two points keeps it exact.
#[derive(Debug, Clone)]
struct EjectReady {
    words: Vec<u64>,
}

impl EjectReady {
    fn new(routers: usize) -> Self {
        EjectReady { words: vec![0; routers.div_ceil(64)] }
    }

    fn update(&mut self, i: usize, ready: bool) {
        let bit = 1u64 << (i % 64);
        if ready {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// The lowest ready index at or above `from`.
    fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// Deflection-routed folded-torus network (§II-A) over the node range
/// `[lo, hi)`. Per-router state is indexed by `node - lo`; the public
/// interface names nodes by their global index.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    lo: usize,
    routers: Vec<DeflectionRouter>,
    stats: FabricStats,
    /// Flits inside the range (latches + injection registers + ejection
    /// queues + undrained exports): +1 on accepted injection or import,
    /// -1 on ejection or export drain.
    in_flight: usize,
    /// Per-router output latches, reused every cycle.
    latches: Vec<[Option<Flit>; 4]>,
    /// Routers with work at the next cycle boundary (dedup'd by
    /// `is_active`); swapped with `retired` each tick.
    active: Vec<u16>,
    is_active: Vec<bool>,
    /// Spare buffer holding the previous cycle's working set.
    retired: Vec<u16>,
    /// Routers with a non-empty ejection queue.
    eject_ready: EjectReady,
    /// Deliveries of the latest tick to routers outside the range.
    exports: Vec<BoundaryFlit>,
}

impl Network {
    /// The whole fabric for `topo`.
    pub fn new(topo: Topology) -> Self {
        Network::shard(topo, 0, topo.nodes())
    }

    /// The routers of `topo`'s node range `[lo, hi)`: one tile of the
    /// tiled cycle engine.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi <= topo.nodes()`.
    pub fn shard(topo: Topology, lo: usize, hi: usize) -> Self {
        assert!(lo < hi && hi <= topo.nodes(), "invalid shard range {lo}..{hi}");
        let routers = (lo..hi)
            .map(|i| DeflectionRouter::new(topo, topo.coord_of(NodeId::new(i as u16))))
            .collect();
        let len = hi - lo;
        Network {
            topo,
            lo,
            routers,
            stats: FabricStats::default(),
            in_flight: 0,
            latches: vec![[None; 4]; len],
            active: Vec::with_capacity(len),
            is_active: vec![false; len],
            retired: Vec::with_capacity(len),
            eject_ready: EjectReady::new(len),
            exports: Vec::new(),
        }
    }

    /// The topology this network was built for.
    pub const fn topology(&self) -> Topology {
        self.topo
    }

    /// Range-local index of `node`, if this network owns it.
    fn local(&self, node: usize) -> Option<usize> {
        let local = node.wrapping_sub(self.lo);
        (local < self.routers.len()).then_some(local)
    }

    fn mark_active(&mut self, local: usize) {
        if !self.is_active[local] {
            self.is_active[local] = true;
            self.active.push(local as u16);
        }
    }

    /// Accept a boundary flit another network exported during the
    /// previous cycle: it enters `to`'s input latch from direction
    /// `from_dir`, exactly as a delivery inside one network would.
    pub fn import(&mut self, to: u16, from_dir: u8, flit: Flit) {
        let local = to as usize - self.lo;
        self.routers[local].accept(Dir::ALL[from_dir as usize & 3], flit);
        self.in_flight += 1;
        self.mark_active(local);
    }

    /// Hand out the latest tick's boundary flits, keeping the buffer for
    /// the next tick.
    pub fn drain_exports(&mut self) -> std::vec::Drain<'_, BoundaryFlit> {
        self.in_flight -= self.exports.len();
        self.exports.drain(..)
    }
}

impl Fabric for Network {
    fn try_inject(&mut self, node: NodeId, flit: Flit, now: Cycle) -> Result<(), Flit> {
        self.try_inject_tagged(node, flit, now, false)
    }

    fn try_inject_tagged(
        &mut self,
        node: NodeId,
        mut flit: Flit,
        now: Cycle,
        from_bank: bool,
    ) -> Result<(), Flit> {
        flit.meta.injected_at = now;
        flit.meta.uid = compose_uid(now, from_bank, node);
        let local = node.index() - self.lo;
        match self.routers[local].try_inject(flit) {
            Ok(()) => {
                self.stats.injected += 1;
                self.in_flight += 1;
                self.mark_active(local);
                Ok(())
            }
            Err(flit) => {
                self.stats.inject_refusals += 1;
                Err(flit)
            }
        }
    }

    fn eject(&mut self, node: NodeId) -> Option<Flit> {
        let local = node.index() - self.lo;
        let router = &mut self.routers[local];
        let flit = router.eject();
        if flit.is_some() {
            self.in_flight -= 1;
            self.eject_ready.update(local, router.has_ejectable());
        }
        flit
    }

    fn next_ejectable(&self, from: usize) -> Option<NodeId> {
        let local = self.eject_ready.next(from.saturating_sub(self.lo))?;
        Some(NodeId::new((self.lo + local) as u16))
    }

    fn tick(&mut self, now: Cycle) {
        self.tick_metered(now, &mut NullSink, &mut NullMeter);
    }

    /// Reports per-router deflections (from [`DeflectionRouter::route`])
    /// and the occupancy of every active router's output latches: the
    /// latched-link count as a [`TraceEvent::LinkLoad`] to `sink`, the
    /// 4-bit direction mask to [`Meter::link_busy`], under the nodes'
    /// global ids.
    fn tick_metered<S: TraceSink, M: Meter>(&mut self, now: Cycle, sink: &mut S, meter: &mut M) {
        // This cycle's working set, moved out so the `active` field can
        // start accumulating the next cycle's set into the spare buffer
        // (both buffers are retained — steady state allocates nothing).
        let mut work = std::mem::replace(&mut self.active, std::mem::take(&mut self.retired));
        for &i in &work {
            self.is_active[i as usize] = false;
        }

        // Phase 1: every active router routes its latched flits into the
        // persistent link latches (and may eject one into its queue).
        for &i in &work {
            let router = &mut self.routers[i as usize];
            self.latches[i as usize] = router.route(now, &mut self.stats, sink);
            if router.has_ejectable() {
                self.eject_ready.update(i as usize, true);
            }
        }

        // Phase 2: deliver over the (single-cycle) links, or export across
        // the range boundary; receiving switches and switches with an
        // undrained injection register form the next working set.
        for &i in &work {
            let i = i as usize;
            let node = self.lo + i;
            if S::ACTIVE || M::ACTIVE {
                // Every *active* router reports its occupancy — zeros
                // included, so a draining router's counter series returns
                // to zero instead of freezing at its last busy value.
                // Idle routers are not in the working set and emit
                // nothing.
                let mut mask = 0u8;
                for (d, latch) in self.latches[i].iter().enumerate() {
                    mask |= u8::from(latch.is_some()) << d;
                }
                if S::ACTIVE {
                    let links = mask.count_ones() as u8;
                    sink.record(now, TraceEvent::LinkLoad { node: node as u16, links });
                }
                if M::ACTIVE {
                    meter.link_busy(node as u16, mask);
                }
            }
            let from = self.topo.coord_of(NodeId::new(node as u16));
            for dir in Dir::ALL {
                if let Some(flit) = self.latches[i][dir.index()].take() {
                    let to = self.topo.node_of(self.topo.neighbor(from, dir)).index();
                    match self.local(to) {
                        Some(local) => {
                            self.routers[local].accept(dir.opposite(), flit);
                            self.mark_active(local);
                        }
                        None => {
                            self.exports.push((to as u16, dir.opposite().index() as u8, flit));
                        }
                    }
                }
            }
            if self.routers[i].has_pending_inject() {
                self.mark_active(i);
            }
        }

        work.clear();
        self.retired = work;
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn stats(&self) -> &FabricStats {
        &self.stats
    }

    fn node_count(&self) -> usize {
        self.topo.nodes()
    }

    /// Kills `node`'s output port toward `dir` and the neighbour's
    /// opposite port — each end only if this network owns it, so a link
    /// crossing a tile boundary dies on both sides once every tile has
    /// applied the kill. Each affected switch keeps at least as many live
    /// output ports as live input latches, so the deflection free-port
    /// invariant survives; flits already in flight simply route around
    /// the gap from now on.
    fn kill_link(&mut self, node: NodeId, dir: Dir) {
        let neighbor = self.topo.node_of(self.topo.neighbor(self.topo.coord_of(node), dir));
        for (end, d) in [(node, dir), (neighbor, dir.opposite())] {
            if let Some(local) = self.local(end.index()) {
                self.routers[local].set_link_dead(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketKind;

    fn net() -> Network {
        Network::new(Topology::paper_4x4())
    }

    fn run_until_delivered(net: &mut Network, node: NodeId, limit: Cycle) -> (Flit, Cycle) {
        for now in 0..limit {
            net.tick(now);
            if let Some(f) = net.eject(node) {
                return (f, now);
            }
        }
        panic!("flit not delivered within {limit} cycles");
    }

    #[test]
    fn single_flit_minimal_path() {
        let mut n = net();
        let dest = NodeId::new(5); // (1,1): 2 hops from (0,0)
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 42);
        n.try_inject(NodeId::new(0), flit, 0).unwrap();
        let (arrived, when) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.payload(), 42);
        assert_eq!(arrived.meta.hops, 2);
        // 1 cycle to leave the injection register + 1 per hop.
        assert!(when <= 4, "took {when} cycles");
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn wraparound_link_used() {
        let mut n = net();
        // (0,0) -> (3,0) is one westward wrap hop.
        let dest = NodeId::new(3);
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 7);
        n.try_inject(NodeId::new(0), flit, 0).unwrap();
        let (arrived, _) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.meta.hops, 1);
    }

    #[test]
    fn flit_to_self_delivered_locally() {
        let mut n = net();
        let dest = NodeId::new(6);
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 9);
        n.try_inject(dest, flit, 0).unwrap();
        // Self-addressed traffic leaves the injection register, is latched
        // at the local router and ejected; it still crosses the switch.
        let (arrived, _) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.payload(), 9);
    }

    #[test]
    fn all_pairs_deliver() {
        let mut n = net();
        let topo = n.topology();
        // Pending (source, flit) pairs: every ordered pair of distinct nodes.
        let mut pending: Vec<(NodeId, Flit)> = Vec::new();
        for s in 0..topo.nodes() {
            for d in 0..topo.nodes() {
                if s == d {
                    continue;
                }
                let flit = Flit::message(
                    topo.coord_of(NodeId::new(d as u16)),
                    s as u8,
                    0,
                    0,
                    (s * 100 + d) as u32,
                );
                pending.push((NodeId::new(s as u16), flit));
            }
        }
        let expected = pending.len() as u64;
        let mut delivered = 0u64;
        let mut now: Cycle = 0;
        while delivered < expected && now < 5000 {
            // Inject whatever the routers will take this cycle.
            let mut still_pending = Vec::new();
            for (src, flit) in pending {
                match n.try_inject(src, flit, now) {
                    Ok(()) => {}
                    Err(back) => still_pending.push((src, back)),
                }
            }
            pending = still_pending;
            n.tick(now);
            for node in 0..topo.nodes() {
                while n.eject(NodeId::new(node as u16)).is_some() {
                    delivered += 1;
                }
            }
            now += 1;
        }
        assert_eq!(delivered, expected, "all flits must eventually arrive");
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.stats().delivered, expected);
    }

    #[test]
    fn heavy_contention_is_lossless() {
        // Every node floods node 0; deflection must deliver everything.
        let mut n = net();
        let topo = n.topology();
        let hot = NodeId::new(0);
        let hot_coord = topo.coord_of(hot);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for now in 0..400 {
            if now < 100 {
                for s in 1..topo.nodes() {
                    let f = Flit::new(
                        hot_coord,
                        PacketKind::Message,
                        crate::flit::SubKind::Data,
                        0,
                        0,
                        s as u8,
                        now as u32,
                    );
                    if n.try_inject(NodeId::new(s as u16), f, now).is_ok() {
                        injected += 1;
                    }
                }
            }
            n.tick(now);
            while n.eject(hot).is_some() {
                delivered += 1;
            }
        }
        assert!(injected > 100, "sanity: {injected} injected");
        assert_eq!(delivered, injected, "hot-potato routing must be lossless");
        assert!(n.stats().deflections > 0, "contention must cause deflections");
    }

    #[test]
    fn killed_link_is_routed_around_losslessly() {
        let mut n = net();
        let topo = n.topology();
        // Kill (0,0)->East; traffic (0,0)->(2,0) would take it.
        n.kill_link(NodeId::new(0), Dir::East);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for now in 0..600 {
            if now < 50 {
                for s in 0..topo.nodes() {
                    let d = (s + 2) % topo.nodes();
                    let f = Flit::message(
                        topo.coord_of(NodeId::new(d as u16)),
                        s as u8,
                        0,
                        0,
                        now as u32,
                    );
                    if n.try_inject(NodeId::new(s as u16), f, now).is_ok() {
                        injected += 1;
                    }
                }
            }
            n.tick(now);
            for node in 0..topo.nodes() {
                while n.eject(NodeId::new(node as u16)).is_some() {
                    delivered += 1;
                }
            }
        }
        assert!(injected > 100, "sanity: {injected} injected");
        assert_eq!(delivered, injected, "dead link must not lose flits");
        assert!(n.stats().reroutes > 0, "traffic must have been diverted");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn shard_pair_matches_whole_network() {
        // Two shards exchanging exports through mailboxes must behave
        // bit-identically to the whole fabric: same refusals, same
        // deliveries (uid/hops included), same stats after a tile-order
        // merge. This is the noc-layer half of the tiled engine's
        // determinism argument.
        let topo = Topology::paper_4x4();
        let mut whole = Network::new(topo);
        let mut shards = [Network::shard(topo, 0, 8), Network::shard(topo, 8, 16)];
        let tile_of = |node: usize| usize::from(node >= 8);
        // Boundary flits in flight between cycles, keyed by destination tile.
        let mut mailboxes: [Vec<(u16, u8, Flit)>; 2] = [Vec::new(), Vec::new()];
        for now in 0..400u64 {
            for dest in 0..2 {
                let batch: Vec<_> = mailboxes[dest].drain(..).collect();
                for (to, from_dir, flit) in batch {
                    shards[dest].import(to, from_dir, flit);
                }
            }
            if now < 120 {
                for s in 0..topo.nodes() {
                    let d = (s * 7 + 3) % topo.nodes();
                    if d == s {
                        continue;
                    }
                    let flit = Flit::message(
                        topo.coord_of(NodeId::new(d as u16)),
                        s as u8,
                        0,
                        0,
                        (now * 31 + s as u64) as u32,
                    );
                    let a = whole.try_inject(NodeId::new(s as u16), flit, now).is_ok();
                    let b = shards[tile_of(s)]
                        .try_inject_tagged(NodeId::new(s as u16), flit, now, false)
                        .is_ok();
                    assert_eq!(a, b, "inject divergence at node {s} cycle {now}");
                }
            }
            whole.tick(now);
            for shard in &mut shards {
                shard.tick(now);
            }
            for shard in &mut shards {
                for export in shard.drain_exports() {
                    mailboxes[tile_of(export.0 as usize)].push(export);
                }
            }
            for node in 0..topo.nodes() {
                loop {
                    let a = whole.eject(NodeId::new(node as u16));
                    let b = shards[tile_of(node)].eject(NodeId::new(node as u16));
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.meta.uid, y.meta.uid);
                            assert_eq!(x.meta.hops, y.meta.hops);
                            assert_eq!(x.payload(), y.payload());
                        }
                        (None, None) => break,
                        (a, b) => {
                            panic!("eject divergence at node {node} cycle {now}: {a:?} vs {b:?}")
                        }
                    }
                }
            }
        }
        assert_eq!(whole.in_flight(), 0, "whole fabric must drain");
        assert_eq!(shards[0].in_flight() + shards[1].in_flight(), 0);
        let mut merged = shards[0].stats().clone();
        merged.merge(shards[1].stats());
        assert!(whole.stats().delivered > 0);
        assert_eq!(merged.delivered, whole.stats().delivered);
        assert_eq!(merged.injected, whole.stats().injected);
        assert_eq!(merged.deflections, whole.stats().deflections);
        assert_eq!(merged.inject_refusals, whole.stats().inject_refusals);
        assert_eq!(merged.reroutes, whole.stats().reroutes);
        assert_eq!(&merged.latency, &whole.stats().latency);
    }

    /// Queue `count` self-addressed flits at each node in `nodes`, one per
    /// node per cycle, without ejecting any (the injection register loops
    /// self-addressed traffic straight into the ejection queue).
    fn queue_local<F: Fabric>(fabric: &mut F, topo: Topology, nodes: &[u16], count: usize) {
        for now in 0..count as Cycle {
            for &n in nodes {
                let node = NodeId::new(n);
                let flit = Flit::message(topo.coord_of(node), 0, 0, 0, n.into());
                fabric.try_inject(node, flit, now).unwrap();
            }
            fabric.tick(now);
        }
    }

    /// Every node `next_ejectable` names, walking up from `from`.
    fn ready_walk<F: Fabric>(fabric: &F, from: usize) -> Vec<usize> {
        let mut found = Vec::new();
        let mut from = from;
        while let Some(node) = fabric.next_ejectable(from) {
            found.push(node.index());
            from = node.index() + 1;
        }
        found
    }

    #[test]
    fn next_ejectable_names_queued_nodes_in_ascending_order() {
        // 16x16: the ready set spans four 64-bit words.
        let topo = Topology::new(16, 16).unwrap();
        let mut n = Network::new(topo);
        assert_eq!(ready_walk(&n, 0), Vec::<usize>::new());
        queue_local(&mut n, topo, &[200, 3, 64, 63, 255], 2);
        assert_eq!(ready_walk(&n, 0), [3, 63, 64, 200, 255]);
        assert_eq!(ready_walk(&n, 64), [64, 200, 255]);
        assert_eq!(ready_walk(&n, 65), [200, 255]);
        assert_eq!(n.next_ejectable(256), None);

        // A bit clears only once its queue has drained.
        assert!(n.eject(NodeId::new(64)).is_some());
        assert_eq!(ready_walk(&n, 0), [3, 63, 64, 200, 255]);
        assert!(n.eject(NodeId::new(64)).is_some());
        assert_eq!(ready_walk(&n, 0), [3, 63, 200, 255]);
        assert!(n.eject(NodeId::new(64)).is_none());
        assert_eq!(ready_walk(&n, 0), [3, 63, 200, 255]);
    }

    #[test]
    fn next_ejectable_keeps_a_back_pressured_node() {
        // A bank that refuses a flit stops ejecting; the rest of its queue
        // stays put, and so does its bit, across further ticks.
        let topo = Topology::paper_4x4();
        let mut n = Network::new(topo);
        queue_local(&mut n, topo, &[0], 3);
        assert!(n.eject(NodeId::new(0)).is_some()); // the refused flit, now held
        for now in 3..10 {
            n.tick(now);
            assert_eq!(ready_walk(&n, 0), [0], "cycle {now}");
        }
        while n.eject(NodeId::new(0)).is_some() {}
        assert_eq!(n.next_ejectable(0), None);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn shard_next_ejectable_maps_local_bits_to_global_nodes() {
        let topo = Topology::new(16, 16).unwrap();
        let mut shard = Network::shard(topo, 60, 200);
        queue_local(&mut shard, topo, &[199, 60, 63, 64, 130], 1);
        assert_eq!(ready_walk(&shard, 0), [60, 63, 64, 130, 199]);
        assert_eq!(ready_walk(&shard, 61), [63, 64, 130, 199]);
        assert_eq!(ready_walk(&shard, 131), [199]);
        assert_eq!(shard.next_ejectable(200), None);
        assert_eq!(shard.eject(NodeId::new(130)).map(|f| f.payload()), Some(130));
        assert_eq!(ready_walk(&shard, 0), [60, 63, 64, 199]);
        assert_eq!(shard.drain_exports().len(), 0, "self-addressed traffic never leaves");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = net();
            let topo = n.topology();
            for now in 0..50 {
                for s in 0..topo.nodes() {
                    let d = (s * 7 + 3) % topo.nodes();
                    if d != s {
                        let f = Flit::message(
                            topo.coord_of(NodeId::new(d as u16)),
                            s as u8,
                            0,
                            0,
                            (now * 31 + s as u64) as u32,
                        );
                        let _ = n.try_inject(NodeId::new(s as u16), f, now);
                    }
                }
                n.tick(now);
            }
            (n.stats().delivered, n.stats().deflections, n.in_flight())
        };
        assert_eq!(run(), run());
    }
}
