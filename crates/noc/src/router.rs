//! Deflection-routing ("hot-potato") switch.
//!
//! §II-A: the switch "implements the deflection-routing algorithm which
//! uses a full-blown packet-switching methodology by allowing different
//! routing for every flit of the same packet. The basic idea is that of
//! choosing the presently 'best' route for each incoming flit, without ever
//! keeping more than one flit per input channel". Consequences modeled
//! here:
//!
//! * storage is the theoretical minimum — one latch per input port, nothing
//!   else (no virtual channels, no back-pressure);
//! * every latched flit *must* leave every cycle; contention losers are
//!   deflected to whatever port is free;
//! * arbitration is oldest-first, the classic anti-livelock heuristic for
//!   hot-potato networks (the paper reports livelock is possible in theory
//!   but only "sporadic cases of single flits delivered with high latency"
//!   in practice — the latency histogram exposes exactly that tail);
//! * injection succeeds only when an output port remains free after all
//!   through-traffic is routed; ejection frees a port but is limited to one
//!   flit per cycle (a single ejection channel into the node interface).

use crate::coord::{Coord, Dir, Topology};
use crate::flit::Flit;
use crate::FabricStats;
use medea_sim::fifo::Fifo;
use medea_sim::Cycle;
use medea_trace::{NullSink, TraceEvent, TraceSink};

/// Default depth of the ejection queue between router and node interface.
pub const DEFAULT_EJECT_QUEUE: usize = 8;

/// One deflection-routed switch of the folded torus.
#[derive(Debug, Clone)]
pub struct DeflectionRouter {
    coord: Coord,
    topo: Topology,
    inputs: [Option<Flit>; 4],
    inject_slot: Option<Flit>,
    eject_queue: Fifo<Flit>,
    /// Output ports disabled by fault injection (a stuck-dead link). A
    /// dead link is killed in *both* directions by the fabric, so the
    /// matching input latch never receives a flit either — each affected
    /// switch keeps at least as many live outputs as live inputs and the
    /// deflection free-port guarantee is preserved.
    dead: [bool; 4],
}

impl DeflectionRouter {
    /// Create the switch at `coord` of torus `topo`.
    pub fn new(topo: Topology, coord: Coord) -> Self {
        DeflectionRouter {
            coord,
            topo,
            inputs: [None; 4],
            inject_slot: None,
            eject_queue: Fifo::new("router-eject", DEFAULT_EJECT_QUEUE),
            dead: [false; 4],
        }
    }

    /// Permanently disable the output port toward `dir` (stuck-dead link
    /// fault). The caller must also kill the opposite port of the
    /// neighbouring switch: the routing invariants assume a dead link
    /// carries traffic in neither direction.
    pub fn set_link_dead(&mut self, dir: Dir) {
        self.dead[dir.index()] = true;
    }

    /// Whether the output port toward `dir` has been killed.
    pub const fn link_dead(&self, dir: Dir) -> bool {
        self.dead[dir.index()]
    }

    /// This switch's coordinate.
    pub const fn coord(&self) -> Coord {
        self.coord
    }

    /// Latch a flit arriving over the link from direction `from`.
    ///
    /// # Panics
    ///
    /// Panics if the latch is already occupied — that would mean two flits
    /// traversed one link in one cycle, a fabric bug.
    pub fn accept(&mut self, from: Dir, mut flit: Flit) {
        flit.meta.hops += 1;
        let slot = &mut self.inputs[from.index()];
        assert!(slot.is_none(), "link protocol violation: double delivery on {from}");
        *slot = Some(flit);
    }

    /// Place `flit` in the injection register if it is free.
    ///
    /// # Errors
    ///
    /// Returns the flit back when the register still holds a previous
    /// injection that has not found a free output port yet.
    pub fn try_inject(&mut self, flit: Flit) -> Result<(), Flit> {
        if self.inject_slot.is_some() {
            return Err(flit);
        }
        self.inject_slot = Some(flit);
        Ok(())
    }

    /// Pop the oldest flit destined to this node, if any.
    pub fn eject(&mut self) -> Option<Flit> {
        self.eject_queue.pop()
    }

    /// Whether a flit waits in the ejection queue.
    pub fn has_ejectable(&self) -> bool {
        !self.eject_queue.is_empty()
    }

    /// Flits currently held by this switch (latches + injection register +
    /// ejection queue).
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().flatten().count()
            + usize::from(self.inject_slot.is_some())
            + self.eject_queue.len()
    }

    /// Whether the injection register still holds a flit (it could not be
    /// drained this cycle) — the switch needs another [`route`] call even
    /// if no link traffic arrives.
    ///
    /// [`route`]: DeflectionRouter::route
    pub const fn has_pending_inject(&self) -> bool {
        self.inject_slot.is_some()
    }

    /// Route all latched flits for the cycle ending at `now`, returning the
    /// flits leaving on each output port (indexed by [`Dir::index`]).
    ///
    /// Routing order within the cycle:
    /// 1. at most one local-destination flit is ejected (oldest first);
    /// 2. remaining flits are assigned ports oldest-first, productive
    ///    directions preferred, deflected otherwise;
    /// 3. the injection register is drained into a leftover port if one
    ///    exists (productive preferred).
    ///
    /// This is the innermost loop of the whole simulator and performs no
    /// heap allocation: residents are gathered into a fixed scratch array
    /// and ordered with an insertion sort (at most four elements).
    pub fn route(&mut self, now: Cycle, stats: &mut FabricStats) -> [Option<Flit>; 4] {
        self.route_traced(now, stats, &mut NullSink)
    }

    /// [`route`](DeflectionRouter::route) with deflection events reported
    /// to `sink`. With an inactive sink every emission site constant-folds
    /// away, so `route` monomorphizes to exactly the untraced hot path.
    pub fn route_traced<S: TraceSink>(
        &mut self,
        now: Cycle,
        stats: &mut FabricStats,
        sink: &mut S,
    ) -> [Option<Flit>; 4] {
        let mut resident: [Option<Flit>; 4] = [None; 4];
        let mut count = 0;
        for slot in &mut self.inputs {
            if let Some(flit) = slot.take() {
                resident[count] = Some(flit);
                count += 1;
            }
        }
        // Oldest first; uid breaks ties deterministically. Keys are unique
        // (uids are), so insertion sort matches the previous stable sort.
        let key = |f: &Option<Flit>| {
            let f = f.as_ref().expect("resident slots 0..count are occupied");
            (f.meta.injected_at, f.meta.uid)
        };
        for i in 1..count {
            let mut j = i;
            while j > 0 && key(&resident[j - 1]) > key(&resident[j]) {
                resident.swap(j - 1, j);
                j -= 1;
            }
        }

        // Ejection and port assignment in one oldest-first pass (the
        // ejection decision is per-flit, so splitting into a separate
        // "through" list is unnecessary).
        let mut ejected_one = false;
        let mut outputs: [Option<Flit>; 4] = [None; 4];
        for slot in resident.iter_mut().take(count) {
            let mut flit = slot.take().expect("resident slots 0..count are occupied");
            if flit.dest() == self.coord && !ejected_one && !self.eject_queue.is_full() {
                let latency = now.saturating_sub(flit.meta.injected_at);
                stats.latency.record(latency);
                stats.delivered += 1;
                self.eject_queue.push(flit).unwrap_or_else(|_| unreachable!("checked not full"));
                ejected_one = true;
                continue;
            }
            // A dead productive port diverts the flit (counted as a
            // reroute) but only if it would otherwise have been chosen —
            // the search short-circuits on the first live free port.
            let mut rerouted = false;
            let assigned = self.topo.productive_dirs(self.coord, flit.dest()).find(|d| {
                if self.dead[d.index()] {
                    rerouted = true;
                    return false;
                }
                outputs[d.index()].is_none()
            });
            if rerouted {
                stats.reroutes += 1;
            }
            let dir = match assigned {
                Some(d) => d,
                None => {
                    // Deflect: any live free port. One always exists
                    // because dead links carry no traffic in either
                    // direction, so live through-flits never outnumber
                    // live output ports.
                    flit.meta.deflections += 1;
                    stats.deflections += 1;
                    if S::ACTIVE {
                        let node = self.topo.node_of(self.coord).index() as u16;
                        sink.record(now, TraceEvent::FlitDeflected { node });
                    }
                    Dir::ALL
                        .into_iter()
                        .find(|d| !self.dead[d.index()] && outputs[d.index()].is_none())
                        .expect("through-traffic can never exceed port count")
                }
            };
            outputs[dir.index()] = Some(flit);
        }

        // Phase 3: injection into a leftover port. Self-addressed traffic
        // never enters the links: the node interface loops it straight into
        // the ejection queue (subject to the same single-channel limit).
        if let Some(flit) = self.inject_slot.take() {
            if flit.dest() == self.coord {
                if !ejected_one && !self.eject_queue.is_full() {
                    let latency = now.saturating_sub(flit.meta.injected_at);
                    stats.latency.record(latency);
                    stats.delivered += 1;
                    self.eject_queue
                        .push(flit)
                        .unwrap_or_else(|_| unreachable!("checked not full"));
                } else {
                    self.inject_slot = Some(flit);
                }
                return outputs;
            }
            let mut rerouted = false;
            let free_productive = self.topo.productive_dirs(self.coord, flit.dest()).find(|d| {
                if self.dead[d.index()] {
                    rerouted = true;
                    return false;
                }
                outputs[d.index()].is_none()
            });
            let free_any = free_productive.or_else(|| {
                Dir::ALL.into_iter().find(|d| !self.dead[d.index()] && outputs[d.index()].is_none())
            });
            match free_any {
                Some(d) => {
                    outputs[d.index()] = Some(flit);
                    // Counted only when the flit actually leaves, so a
                    // blocked injection does not inflate the counter
                    // every cycle it waits.
                    if rerouted {
                        stats.reroutes += 1;
                    }
                }
                None => self.inject_slot = Some(flit), // wait for a free slot
            }
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Flit;

    fn topo() -> Topology {
        Topology::paper_4x4()
    }

    fn flit_to(dest: Coord, uid: u64, injected_at: Cycle) -> Flit {
        let mut f = Flit::message(dest, 0, 0, 0, uid as u32);
        f.meta.uid = uid;
        f.meta.injected_at = injected_at;
        f
    }

    #[test]
    fn lone_flit_takes_productive_port() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        r.accept(Dir::West, flit_to(Coord::new(2, 0), 1, 0));
        let outs = r.route(1, &mut stats);
        // (0,0)->(2,0): east is productive.
        assert!(outs[Dir::East.index()].is_some());
        assert_eq!(stats.deflections, 0);
    }

    #[test]
    fn local_flit_is_ejected_with_latency() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(1, 1));
        let mut stats = FabricStats::default();
        r.accept(Dir::North, flit_to(Coord::new(1, 1), 1, 5));
        let outs = r.route(9, &mut stats);
        assert!(outs.iter().all(Option::is_none));
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.latency.summary().max(), Some(4));
        assert!(r.eject().is_some());
        assert!(r.eject().is_none());
    }

    #[test]
    fn only_one_ejection_per_cycle() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(1, 1));
        let mut stats = FabricStats::default();
        r.accept(Dir::North, flit_to(Coord::new(1, 1), 1, 0));
        r.accept(Dir::South, flit_to(Coord::new(1, 1), 2, 0));
        let outs = r.route(3, &mut stats);
        assert_eq!(stats.delivered, 1);
        // The second local flit must be deflected back out.
        assert_eq!(outs.iter().flatten().count(), 1);
        assert_eq!(stats.deflections, 1);
    }

    #[test]
    fn contention_deflects_youngest() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        // Both flits want East (dest (1,0)); older one (injected earlier)
        // must win the productive port.
        let old = flit_to(Coord::new(1, 0), 1, 0);
        let young = flit_to(Coord::new(1, 0), 2, 10);
        r.accept(Dir::West, young);
        r.accept(Dir::South, old);
        let outs = r.route(11, &mut stats);
        assert_eq!(outs[Dir::East.index()].unwrap().meta.uid, 1);
        assert_eq!(stats.deflections, 1);
        let deflected =
            outs.iter().flatten().find(|f| f.meta.uid == 2).expect("young flit must still leave");
        assert_eq!(deflected.meta.deflections, 1);
    }

    #[test]
    fn four_through_flits_all_leave() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        for (i, d) in Dir::ALL.into_iter().enumerate() {
            r.accept(d, flit_to(Coord::new(2, 2), i as u64, i as Cycle));
        }
        let outs = r.route(5, &mut stats);
        assert_eq!(outs.iter().flatten().count(), 4);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn injection_waits_when_ports_full() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        for (i, d) in Dir::ALL.into_iter().enumerate() {
            r.accept(d, flit_to(Coord::new(2, 2), i as u64, 0));
        }
        r.try_inject(flit_to(Coord::new(1, 0), 99, 1)).unwrap();
        // A second injection while the register is full must be refused.
        assert!(r.try_inject(flit_to(Coord::new(1, 0), 100, 1)).is_err());
        let outs = r.route(2, &mut stats);
        assert_eq!(outs.iter().flatten().count(), 4);
        assert!(outs.iter().flatten().all(|f| f.meta.uid != 99));
        assert_eq!(r.occupancy(), 1, "injected flit still waiting");
        // Next cycle the ports are free and the flit leaves.
        let outs = r.route(3, &mut stats);
        assert_eq!(outs.iter().flatten().count(), 1);
        assert_eq!(outs.iter().flatten().next().unwrap().meta.uid, 99);
    }

    #[test]
    fn dead_port_diverts_and_counts_reroute() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        // (0,0)->(2,0): east is the sole productive port; kill it.
        r.set_link_dead(Dir::East);
        assert!(r.link_dead(Dir::East));
        r.accept(Dir::West, flit_to(Coord::new(2, 0), 1, 0));
        let outs = r.route(1, &mut stats);
        assert!(outs[Dir::East.index()].is_none(), "dead port must stay silent");
        assert_eq!(outs.iter().flatten().count(), 1, "flit still leaves on a live port");
        assert_eq!(stats.reroutes, 1);
        assert_eq!(stats.deflections, 1, "no live productive port means a deflection");
    }

    #[test]
    fn injection_avoids_dead_port() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        r.set_link_dead(Dir::East);
        r.try_inject(flit_to(Coord::new(2, 0), 7, 0)).unwrap();
        let outs = r.route(1, &mut stats);
        assert!(outs[Dir::East.index()].is_none());
        assert_eq!(outs.iter().flatten().count(), 1);
        assert_eq!(stats.reroutes, 1);
    }

    #[test]
    fn live_productive_port_is_not_a_reroute() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let mut stats = FabricStats::default();
        // (0,0)->(2,2) routes East/South; West is never productive for
        // this destination, so killing it must not count a reroute.
        r.set_link_dead(Dir::West);
        r.accept(Dir::North, flit_to(Coord::new(2, 2), 1, 0));
        let outs = r.route(1, &mut stats);
        assert_eq!(outs.iter().flatten().count(), 1);
        assert_eq!(stats.reroutes, 0);
        assert_eq!(stats.deflections, 0);
    }

    #[test]
    fn hops_counted_on_accept() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        let f = flit_to(Coord::new(2, 0), 1, 0);
        assert_eq!(f.meta.hops, 0);
        r.accept(Dir::West, f);
        let mut stats = FabricStats::default();
        let outs = r.route(1, &mut stats);
        assert_eq!(outs.iter().flatten().next().unwrap().meta.hops, 1);
    }

    #[test]
    #[should_panic(expected = "double delivery")]
    fn double_accept_panics() {
        let mut r = DeflectionRouter::new(topo(), Coord::new(0, 0));
        r.accept(Dir::West, flit_to(Coord::new(1, 0), 1, 0));
        r.accept(Dir::West, flit_to(Coord::new(1, 0), 2, 0));
    }
}
