//! Folded-torus network-on-chip with deflection ("hot-potato") routing.
//!
//! Implements §II-A and §II-D of the MEDEA paper:
//!
//! * a two-dimensional **folded torus** topology ([`coord`]) — folding is a
//!   physical-layout device that equalizes link lengths, so at the
//!   cycle-accurate level every link costs one cycle and the logical
//!   connectivity is an ordinary torus;
//! * **deflection routing** ([`router`]): a switch never stores more than
//!   one flit per input channel, each incoming flit is routed independently
//!   every cycle (full packet switching at flit granularity), there is no
//!   back-pressure, and contention losers are deflected to free ports;
//! * the **three-level packet format** of Fig. 5 ([`flit`], [`codec`]) with
//!   its seven packet types and 4-bit sequence numbers for out-of-order
//!   reassembly at the receiver;
//! * the deflection fabric ([`network`]) and a contention-free reference
//!   fabric ([`ideal`]) used by the ablation benchmarks;
//! * synthetic traffic generators and a standalone measurement loop
//!   ([`traffic`]) for NoC-only characterization.
//!
//! # Example
//!
//! ```
//! use medea_noc::{coord::Topology, flit::{Flit, PacketKind}, network::Network, Fabric};
//! use medea_sim::ids::NodeId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = Topology::new(4, 4)?;
//! let mut net = Network::new(topo);
//! let flit = Flit::message(topo.coord_of(NodeId::new(5)), 0, 0, 0, 0xDEAD);
//! net.try_inject(NodeId::new(0), flit, 0).map_err(|_| "injection refused")?;
//! for now in 0..32 {
//!     net.tick(now);
//!     if let Some(arrived) = net.eject(NodeId::new(5)) {
//!         assert_eq!(arrived.payload(), 0xDEAD);
//!         assert_eq!(arrived.kind(), PacketKind::Message);
//!         return Ok(());
//!     }
//! }
//! panic!("flit never arrived");
//! # }
//! ```

pub mod codec;
pub mod coord;
pub mod flit;
pub mod ideal;
pub mod network;
pub mod reference;
pub mod router;
pub mod traffic;

use flit::Flit;
use medea_metrics::Meter;
use medea_sim::{ids::NodeId, Cycle};
use medea_trace::TraceSink;

/// Aggregate fabric statistics exposed by every [`Fabric`] implementation.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Per-flit in-network latency (inject→eject), cycles.
    pub latency: medea_sim::stats::Log2Histogram,
    /// Total flits delivered.
    pub delivered: u64,
    /// Total flits injected.
    pub injected: u64,
    /// Total deflection events (flit granted a non-productive port).
    pub deflections: u64,
    /// Injection attempts refused because no output slot was free.
    pub inject_refusals: u64,
    /// Routing decisions diverted around a killed link (a productive port
    /// was dead, so the flit left through another port). Zero unless
    /// fault injection killed a link.
    pub reroutes: u64,
}

/// A network fabric: anything that can carry MEDEA flits between nodes.
///
/// Two implementations exist: the paper's deflection-routed folded torus
/// ([`network::Network`]) and a contention-free ideal fabric
/// ([`ideal::IdealNetwork`]) used as an ablation baseline. Cycle engines
/// that tick a fabric every cycle should be generic over `F: Fabric`
/// rather than hold a `Box<dyn Fabric>`, so the per-cycle
/// `tick`/`in_flight` calls inline into the hot loop.
pub trait Fabric {
    /// Attempt to inject `flit` at `node` during cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns the flit back if the router cannot accept it this cycle
    /// (hot-potato switches accept an injection only when an output slot
    /// remains after routing through-traffic).
    fn try_inject(&mut self, node: NodeId, flit: Flit, now: Cycle) -> Result<(), Flit>;

    /// [`Fabric::try_inject`] with the injecting agent's class attached:
    /// `from_bank` is true for MPMMU bank responses, false for PE traffic.
    ///
    /// Fabrics that derive the flit's arbitration uid from its injection
    /// site (see [`network::compose_uid`]) use the tag to reproduce the
    /// engine's intra-cycle injection order — PEs in rank order, then
    /// banks in bank order — without a shared counter. The default simply
    /// ignores the tag, which is correct for fabrics with their own uid
    /// sequencing (the reference and ideal networks).
    fn try_inject_tagged(
        &mut self,
        node: NodeId,
        flit: Flit,
        now: Cycle,
        _from_bank: bool,
    ) -> Result<(), Flit> {
        self.try_inject(node, flit, now)
    }

    /// Remove the oldest flit waiting in `node`'s ejection queue, if any.
    fn eject(&mut self, node: NodeId) -> Option<Flit>;

    /// The lowest-indexed node at or above `from` whose ejection queue
    /// may hold a flit, or `None` when there is none. Cycle engines walk
    /// delivery with it (`from = node + 1` after each hit), in ascending
    /// node order. Fabrics that track their non-empty ejection queues
    /// name only those; the default names every node in turn, which is
    /// always correct (an empty queue simply ejects nothing).
    fn next_ejectable(&self, from: usize) -> Option<NodeId> {
        (from < self.node_count()).then(|| NodeId::new(from as u16))
    }

    /// Advance the fabric by one cycle ending at `now`.
    fn tick(&mut self, now: Cycle);

    /// [`Fabric::tick`] with NoC events (deflections, per-router link
    /// load) reported to `sink` and per-link occupancy masks to `meter`
    /// ([`Meter::link_busy`]). Every emission site sits behind the
    /// compile-time constants `S::ACTIVE` and `M::ACTIVE`, so with a
    /// `NullSink` and a `NullMeter` this is exactly [`Fabric::tick`]. The
    /// default ticks plainly: a fabric without contended switches (the
    /// ideal and reference fabrics) has nothing to report.
    fn tick_metered<S: TraceSink, M: Meter>(&mut self, now: Cycle, _sink: &mut S, _meter: &mut M)
    where
        Self: Sized,
    {
        self.tick(now);
    }

    /// Number of flits currently inside the fabric (in links, latches or
    /// ejection queues). Zero means the fabric is drained — the full-system
    /// simulator uses this for idle fast-forwarding.
    fn in_flight(&self) -> usize;

    /// Aggregate statistics.
    fn stats(&self) -> &FabricStats;

    /// Number of nodes addressable on this fabric.
    fn node_count(&self) -> usize;

    /// Permanently kill the link leaving `node` toward `dir` (fault
    /// injection). Implementations must disable *both* directions of the
    /// physical link. The default is a no-op for fabrics without
    /// contended links (the ideal fabric has nothing to kill).
    fn kill_link(&mut self, _node: NodeId, _dir: coord::Dir) {}
}
