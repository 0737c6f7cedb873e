//! The seed implementation of the deflection fabric, frozen.
//!
//! [`ReferenceNetwork`] (and its switch, [`ReferenceRouter`]) is the
//! fabric exactly as first written: the router gathers residents into
//! per-cycle `Vec`s and `sort_by_key`s them, the network collects every
//! router's outputs into a fresh `Vec` each tick and routes *all*
//! switches whether or not they hold a flit, and `in_flight` is an
//! all-router occupancy scan.
//!
//! It is kept for two jobs:
//!
//! * **behavioral yardstick** — property tests drive identical traffic
//!   through [`ReferenceNetwork`] and the optimized
//!   [`crate::network::Network`] and demand bit-identical statistics, so
//!   every future hot-path change is checked against the original
//!   semantics;
//! * **performance baseline** — the cycle engine's oracle,
//!   `medea_core::oracle::run_reference`, runs on it, and the
//!   `BENCH_sim_speed.json` harness uses that oracle as the honest
//!   "before" of the zero-allocation/activity-scheduling work.
//!
//! Do not optimize this module; that would defeat both jobs.

use crate::coord::{Coord, Dir, Topology};
use crate::flit::Flit;
use crate::{Fabric, FabricStats};
use medea_sim::fifo::Fifo;
use medea_sim::{ids::NodeId, Cycle};

use crate::router::DEFAULT_EJECT_QUEUE;

/// The seed deflection switch: allocates two `Vec`s per routed cycle.
#[derive(Debug, Clone)]
pub struct ReferenceRouter {
    coord: Coord,
    topo: Topology,
    inputs: [Option<Flit>; 4],
    inject_slot: Option<Flit>,
    eject_queue: Fifo<Flit>,
}

impl ReferenceRouter {
    /// Create the switch at `coord` of torus `topo`.
    pub fn new(topo: Topology, coord: Coord) -> Self {
        ReferenceRouter {
            coord,
            topo,
            inputs: [None; 4],
            inject_slot: None,
            eject_queue: Fifo::new("ref-router-eject", DEFAULT_EJECT_QUEUE),
        }
    }

    fn accept(&mut self, from: Dir, mut flit: Flit) {
        flit.meta.hops += 1;
        let slot = &mut self.inputs[from.index()];
        assert!(slot.is_none(), "link protocol violation: double delivery on {from}");
        *slot = Some(flit);
    }

    fn try_inject(&mut self, flit: Flit) -> Result<(), Flit> {
        if self.inject_slot.is_some() {
            return Err(flit);
        }
        self.inject_slot = Some(flit);
        Ok(())
    }

    fn eject(&mut self) -> Option<Flit> {
        self.eject_queue.pop()
    }

    fn occupancy(&self) -> usize {
        self.inputs.iter().flatten().count()
            + usize::from(self.inject_slot.is_some())
            + self.eject_queue.len()
    }

    /// The seed routing function, verbatim.
    fn route(&mut self, now: Cycle, stats: &mut FabricStats) -> [Option<Flit>; 4] {
        let mut resident: Vec<Flit> = Vec::with_capacity(5);
        for slot in &mut self.inputs {
            if let Some(flit) = slot.take() {
                resident.push(flit);
            }
        }
        // Oldest first; uid breaks ties deterministically.
        resident.sort_by_key(|f| (f.meta.injected_at, f.meta.uid));

        // Phase 1: ejection (single ejection channel per cycle).
        let mut ejected_one = false;
        let mut through: Vec<Flit> = Vec::with_capacity(resident.len());
        for flit in resident {
            if flit.dest() == self.coord && !ejected_one && !self.eject_queue.is_full() {
                let latency = now.saturating_sub(flit.meta.injected_at);
                stats.latency.record(latency);
                stats.delivered += 1;
                self.eject_queue.push(flit).unwrap_or_else(|_| unreachable!("checked not full"));
                ejected_one = true;
            } else {
                through.push(flit);
            }
        }

        // Phase 2: port assignment, oldest first.
        let mut outputs: [Option<Flit>; 4] = [None; 4];
        for mut flit in through {
            let assigned = self
                .topo
                .productive_dirs(self.coord, flit.dest())
                .find(|d| outputs[d.index()].is_none());
            let dir = match assigned {
                Some(d) => d,
                None => {
                    flit.meta.deflections += 1;
                    stats.deflections += 1;
                    Dir::ALL
                        .into_iter()
                        .find(|d| outputs[d.index()].is_none())
                        .expect("through-traffic can never exceed port count")
                }
            };
            outputs[dir.index()] = Some(flit);
        }

        // Phase 3: injection into a leftover port.
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
            let free_productive = self
                .topo
                .productive_dirs(self.coord, flit.dest())
                .find(|d| outputs[d.index()].is_none());
            let free_any = free_productive
                .or_else(|| Dir::ALL.into_iter().find(|d| outputs[d.index()].is_none()));
            match free_any {
                Some(d) => outputs[d.index()] = Some(flit),
                None => self.inject_slot = Some(flit), // wait for a free slot
            }
        }
        outputs
    }
}

/// The seed fabric: per-cycle `Vec` collect, all routers routed every
/// cycle, O(routers) flit census.
#[derive(Debug, Clone)]
pub struct ReferenceNetwork {
    topo: Topology,
    routers: Vec<ReferenceRouter>,
    stats: FabricStats,
}

impl ReferenceNetwork {
    /// Build the fabric for `topo`.
    pub fn new(topo: Topology) -> Self {
        let routers = (0..topo.nodes())
            .map(|i| ReferenceRouter::new(topo, topo.coord_of(NodeId::new(i as u16))))
            .collect();
        ReferenceNetwork { topo, routers, stats: FabricStats::default() }
    }

    /// The topology this network was built for.
    pub const fn topology(&self) -> Topology {
        self.topo
    }

    fn router_mut(&mut self, node: NodeId) -> &mut ReferenceRouter {
        &mut self.routers[node.index()]
    }
}

impl Fabric for ReferenceNetwork {
    fn try_inject(&mut self, node: NodeId, flit: Flit, now: Cycle) -> Result<(), Flit> {
        self.try_inject_tagged(node, flit, now, false)
    }

    // The seed fabric originally stamped flits from a shared `next_uid`
    // counter; it now shares [`crate::network::compose_uid`] with the
    // optimized fabric so the equivalence suites can compare ejected
    // flits *bit for bit*, uid included. This is a pure relabeling, not
    // an optimization: the uid only ever feeds the `(injected_at, uid)`
    // arbitration sort above, and `compose_uid` orders same-cycle flits
    // exactly as the engine's injection sequence (and therefore the old
    // counter) did, so every routing decision is unchanged.
    fn try_inject_tagged(
        &mut self,
        node: NodeId,
        mut flit: Flit,
        now: Cycle,
        from_bank: bool,
    ) -> Result<(), Flit> {
        flit.meta.injected_at = now;
        flit.meta.uid = crate::network::compose_uid(now, from_bank, node);
        match self.router_mut(node).try_inject(flit) {
            Ok(()) => {
                self.stats.injected += 1;
                Ok(())
            }
            Err(flit) => {
                self.stats.inject_refusals += 1;
                Err(flit)
            }
        }
    }

    fn eject(&mut self, node: NodeId) -> Option<Flit> {
        self.router_mut(node).eject()
    }

    fn tick(&mut self, now: Cycle) {
        // Phase 1: every router routes its latched flits.
        let outputs: Vec<[Option<Flit>; 4]> =
            self.routers.iter_mut().map(|r| r.route(now, &mut self.stats)).collect();
        // Phase 2: deliver over the (single-cycle) links.
        for (i, outs) in outputs.into_iter().enumerate() {
            let from = self.topo.coord_of(NodeId::new(i as u16));
            for dir in Dir::ALL {
                if let Some(flit) = outs[dir.index()] {
                    let to = self.topo.neighbor(from, dir);
                    let to_idx = self.topo.node_of(to).index();
                    self.routers[to_idx].accept(dir.opposite(), flit);
                }
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.routers.iter().map(ReferenceRouter::occupancy).sum()
    }

    fn stats(&self) -> &FabricStats {
        &self.stats
    }

    fn node_count(&self) -> usize {
        self.topo.nodes()
    }
}
