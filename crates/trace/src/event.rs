//! The typed, timestamped event vocabulary of the tracing subsystem.
//!
//! One [`TraceEvent`] is one architectural occurrence at one node on one
//! cycle. Events are small `Copy` values built from primitives only (node
//! indices, wire codes, addresses), so this crate sits *below* every
//! hardware-model crate in the dependency graph and each layer can emit
//! events without pulling its neighbours in.
//!
//! Events group into five [`EventClass`]es, mirroring the layers the
//! engine instruments:
//!
//! | class    | events                                                     |
//! |----------|------------------------------------------------------------|
//! | `NOC`    | flit inject / deliver / deflect, per-router link load       |
//! | `CACHE`  | L1 hit/miss/write-through, flush, invalidate, reorder slips |
//! | `MEM`    | per-bank MPMMU transactions, lock acquire/contend/release   |
//! | `KERNEL` | send/recv packet spans and eMPI message/collective spans    |
//! | `FAULT`  | injected faults: flit corruption, link kills, bank drops/delays, PE stalls |

use medea_sim::Cycle;
use std::fmt;

/// Bitmask of event classes — the capture filter of a sink
/// (`RingSink::with_classes`). Kernel span markers flow whenever the run's
/// sink is active or metrics are on; the filter decides what is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventClass(u8);

impl EventClass {
    /// No classes.
    pub const NONE: EventClass = EventClass(0);
    /// NoC events: flit inject/deliver/deflect, link load.
    pub const NOC: EventClass = EventClass(1);
    /// PE-side cache events: hits, misses, flushes, invalidates, reorder
    /// slips.
    pub const CACHE: EventClass = EventClass(1 << 1);
    /// Memory events: MPMMU transactions and lock traffic, per bank.
    pub const MEM: EventClass = EventClass(1 << 2);
    /// Kernel-level spans: packet send/recv and eMPI operations.
    pub const KERNEL: EventClass = EventClass(1 << 3);
    /// Injected-fault events: flit corruption, link kills, bank
    /// drops/delays, PE stall windows (the medea-fault subsystem).
    pub const FAULT: EventClass = EventClass(1 << 4);
    /// Every class.
    pub const ALL: EventClass = EventClass(0b1_1111);

    /// Whether any class of `other` is present in `self`.
    pub const fn intersects(self, other: EventClass) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether every class of `other` is present in `self`.
    pub const fn contains(self, other: EventClass) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no class is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Short label used by the CSV exporter.
    pub const fn label(self) -> &'static str {
        match self.0 {
            1 => "noc",
            2 => "cache",
            4 => "mem",
            8 => "kernel",
            16 => "fault",
            _ => "mixed",
        }
    }
}

impl std::ops::BitOr for EventClass {
    type Output = EventClass;

    fn bitor(self, rhs: EventClass) -> EventClass {
        EventClass(self.0 | rhs.0)
    }
}

/// The eight `TYPE`-field wire codes, named for exporters (kept in sync
/// with `medea_noc::flit::PacketKind::code`).
pub const fn packet_kind_name(code: u8) -> &'static str {
    match code {
        0 => "single-read",
        1 => "single-write",
        2 => "block-read",
        3 => "block-write",
        4 => "lock",
        5 => "unlock",
        6 => "message",
        7 => "coherence",
        _ => "unknown",
    }
}

/// Coherence opcode names for exporters (kept in sync with
/// `medea_noc::flit::CohOp::code`; this crate sits below `medea-noc` so
/// the code crosses as a raw `u8`).
pub const fn coh_op_name(code: u8) -> &'static str {
    match code {
        0 => "gets",
        1 => "getm",
        2 => "putm",
        3 => "unblock",
        4 => "inv",
        5 => "fetch",
        6 => "fetch-inv",
        7 => "inv-ack",
        8 => "clean-ack",
        9 => "grant-s",
        10 => "grant-e",
        11 => "grant-m",
        12 => "putm-grant",
        13 => "putm-ack",
        _ => "unknown",
    }
}

/// What an L1 access did (the cache-class event payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheEventKind {
    /// Load served by the cache.
    LoadHit,
    /// Load that missed and started the allocate machinery.
    LoadMiss,
    /// Store absorbed by the cache (write-back hit).
    StoreHit,
    /// Store that missed and needs a line allocate (write-back).
    StoreMiss,
    /// Store forwarded to memory by a write-through cache.
    StoreThrough,
    /// Flush of a clean line (no traffic).
    Flush,
    /// Flush that wrote a dirty line back (§II-E producer step).
    FlushWriteback,
    /// DII line invalidate (§II-E consumer step).
    Invalidate,
}

impl CacheEventKind {
    /// Exporter name.
    pub const fn name(self) -> &'static str {
        match self {
            CacheEventKind::LoadHit => "load-hit",
            CacheEventKind::LoadMiss => "load-miss",
            CacheEventKind::StoreHit => "store-hit",
            CacheEventKind::StoreMiss => "store-miss",
            CacheEventKind::StoreThrough => "store-through",
            CacheEventKind::Flush => "flush",
            CacheEventKind::FlushWriteback => "flush-writeback",
            CacheEventKind::Invalidate => "invalidate",
        }
    }
}

/// A kernel-level operation delimited by span events.
///
/// `Send`/`Recv` are the engine-observed packet operations (one TIE
/// packet each); the `Msg*`/collective variants are emitted by the eMPI
/// layer around whole protocol exchanges and therefore *nest* the packet
/// spans in the rendered trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelOp {
    /// One TIE packet streamed into the arbiter.
    Send,
    /// One blocking packet receive (wait included).
    Recv,
    /// A whole eMPI message send (framing, chunking, credits).
    MsgSend,
    /// A whole eMPI message receive.
    MsgRecv,
    /// Full-duplex eMPI sendrecv exchange.
    Sendrecv,
    /// eMPI barrier.
    Barrier,
    /// eMPI broadcast.
    Bcast,
    /// eMPI reduce-to-root.
    Reduce,
    /// eMPI allreduce.
    Allreduce,
    /// eMPI gather-to-root.
    Gather,
    /// eMPI scatter-from-root.
    Scatter,
}

impl KernelOp {
    /// Exporter name.
    pub const fn name(self) -> &'static str {
        match self {
            KernelOp::Send => "send",
            KernelOp::Recv => "recv",
            KernelOp::MsgSend => "empi-send",
            KernelOp::MsgRecv => "empi-recv",
            KernelOp::Sendrecv => "empi-sendrecv",
            KernelOp::Barrier => "barrier",
            KernelOp::Bcast => "bcast",
            KernelOp::Reduce => "reduce",
            KernelOp::Allreduce => "allreduce",
            KernelOp::Gather => "gather",
            KernelOp::Scatter => "scatter",
        }
    }

    /// Whether this op is a multi-party collective: cycles a PE spends
    /// blocked inside one are synchronization wait, not point-to-point
    /// communication, and the metrics profiler attributes them separately.
    pub const fn is_collective(self) -> bool {
        matches!(
            self,
            KernelOp::Barrier
                | KernelOp::Bcast
                | KernelOp::Reduce
                | KernelOp::Allreduce
                | KernelOp::Gather
                | KernelOp::Scatter
        )
    }
}

impl fmt::Display for KernelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced architectural occurrence. See the module table for the
/// class each variant belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A flit entered the fabric at `node`.
    FlitInjected {
        /// Injecting node.
        node: u16,
        /// `TYPE`-field wire code (see [`packet_kind_name`]).
        kind: u8,
    },
    /// A flit left the fabric into `node`'s interface.
    FlitDelivered {
        /// Ejecting node.
        node: u16,
        /// Fabric-assigned flit id (correlates with the injection).
        uid: u64,
        /// Inject→eject cycles.
        latency: u64,
        /// Routers traversed.
        hops: u16,
        /// Times this flit was deflected.
        deflections: u16,
    },
    /// A router granted a flit a non-productive port.
    FlitDeflected {
        /// Deflecting router's node.
        node: u16,
    },
    /// Output-link occupancy of one *active* router for one cycle
    /// (0..=4). A zero marks an active router draining (its counter
    /// series returns to zero); routers outside the fabric's working set
    /// emit nothing.
    LinkLoad {
        /// The router's node.
        node: u16,
        /// Occupied output links this cycle.
        links: u8,
    },
    /// An L1 access or coherence operation on `node`'s PE.
    CacheAccess {
        /// The PE's node.
        node: u16,
        /// What the access did.
        kind: CacheEventKind,
        /// Word (or line) address.
        addr: u32,
    },
    /// A block-read data word arrived out of address order at `node`'s
    /// reorder buffer.
    ReorderSlip {
        /// The PE's node.
        node: u16,
    },
    /// `node`'s L1 responder handled a directory probe (directory-MESI
    /// mode only): an `Inv`, `Fetch` or `FetchInv` received from a home
    /// bank, or the `Unblock` it sends after installing a fill.
    CohProbe {
        /// The PE's node.
        node: u16,
        /// Coherence opcode wire code (see [`coh_op_name`]).
        op: u8,
        /// Line address.
        addr: u32,
    },
    /// An MPMMU bank dispatched a shared-memory transaction.
    MemTxn {
        /// The bank's node.
        bank: u16,
        /// Requesting node.
        src: u16,
        /// `TYPE`-field wire code of the transaction.
        kind: u8,
        /// Target address.
        addr: u32,
    },
    /// A directory home (MPMMU bank) acted on a coherence transaction
    /// (directory-MESI mode only): a `GetS`/`GetM`/`PutM` it dispatched,
    /// or an `Inv`/`Fetch`/`FetchInv` probe it sent towards `src`.
    CohHome {
        /// The home bank's node.
        bank: u16,
        /// Requesting (or probed) node.
        src: u16,
        /// Coherence opcode wire code (see [`coh_op_name`]).
        op: u8,
        /// Line address.
        addr: u32,
    },
    /// A lock request was granted.
    LockAcquired {
        /// The owning bank's node.
        bank: u16,
        /// Requesting node.
        src: u16,
        /// Lock word address.
        addr: u32,
    },
    /// A lock request was Nack'd (busy) — the requester backs off and
    /// retries.
    LockContended {
        /// The owning bank's node.
        bank: u16,
        /// Requesting node.
        src: u16,
        /// Lock word address.
        addr: u32,
    },
    /// A lock was released.
    LockReleased {
        /// The owning bank's node.
        bank: u16,
        /// Requesting node.
        src: u16,
        /// Lock word address.
        addr: u32,
    },
    /// A kernel-level operation began on `node`.
    SpanBegin {
        /// The PE's node.
        node: u16,
        /// The operation.
        op: KernelOp,
    },
    /// A kernel-level operation ended on `node`.
    SpanEnd {
        /// The PE's node.
        node: u16,
        /// The operation.
        op: KernelOp,
    },
    /// An injected transient fault flipped one payload bit of a message
    /// flit delivered at `node`.
    FaultFlitCorrupted {
        /// The ejecting node.
        node: u16,
        /// Which payload bit was flipped (0..32).
        bit: u8,
    },
    /// An injected permanent fault killed one torus link.
    FaultLinkKilled {
        /// The link's source router.
        node: u16,
        /// Output-port direction index of the dead link.
        dir: u8,
    },
    /// An injected fault dropped an MPMMU read-response flit.
    FaultBankDrop {
        /// The bank's node.
        bank: u16,
    },
    /// An injected fault delayed an MPMMU transaction's service.
    FaultBankDelay {
        /// The bank's node.
        bank: u16,
        /// Extra service cycles added.
        cycles: u32,
    },
    /// An injected fault stalled a PE's execution engine.
    FaultPeStall {
        /// The PE's node.
        node: u16,
        /// Cycles the engine is frozen.
        cycles: u32,
    },
}

impl TraceEvent {
    /// The class this event belongs to (the sink-side capture filter key).
    pub const fn class(self) -> EventClass {
        match self {
            TraceEvent::FlitInjected { .. }
            | TraceEvent::FlitDelivered { .. }
            | TraceEvent::FlitDeflected { .. }
            | TraceEvent::LinkLoad { .. } => EventClass::NOC,
            TraceEvent::CacheAccess { .. }
            | TraceEvent::ReorderSlip { .. }
            | TraceEvent::CohProbe { .. } => EventClass::CACHE,
            TraceEvent::MemTxn { .. }
            | TraceEvent::CohHome { .. }
            | TraceEvent::LockAcquired { .. }
            | TraceEvent::LockContended { .. }
            | TraceEvent::LockReleased { .. } => EventClass::MEM,
            TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => EventClass::KERNEL,
            TraceEvent::FaultFlitCorrupted { .. }
            | TraceEvent::FaultLinkKilled { .. }
            | TraceEvent::FaultBankDrop { .. }
            | TraceEvent::FaultBankDelay { .. }
            | TraceEvent::FaultPeStall { .. } => EventClass::FAULT,
        }
    }

    /// The node whose track this event renders on (banks are nodes too).
    pub const fn node(self) -> u16 {
        match self {
            TraceEvent::FlitInjected { node, .. }
            | TraceEvent::FlitDelivered { node, .. }
            | TraceEvent::FlitDeflected { node }
            | TraceEvent::LinkLoad { node, .. }
            | TraceEvent::CacheAccess { node, .. }
            | TraceEvent::ReorderSlip { node }
            | TraceEvent::CohProbe { node, .. }
            | TraceEvent::SpanBegin { node, .. }
            | TraceEvent::SpanEnd { node, .. }
            | TraceEvent::FaultFlitCorrupted { node, .. }
            | TraceEvent::FaultLinkKilled { node, .. }
            | TraceEvent::FaultPeStall { node, .. } => node,
            TraceEvent::MemTxn { bank, .. }
            | TraceEvent::CohHome { bank, .. }
            | TraceEvent::LockAcquired { bank, .. }
            | TraceEvent::LockContended { bank, .. }
            | TraceEvent::LockReleased { bank, .. }
            | TraceEvent::FaultBankDrop { bank }
            | TraceEvent::FaultBankDelay { bank, .. } => bank,
        }
    }
}

/// A captured event with its cycle timestamp — what sinks store and
/// exporters consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle at which the event occurred.
    pub at: Cycle,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mask_algebra() {
        let m = EventClass::NOC | EventClass::KERNEL;
        assert!(m.intersects(EventClass::NOC));
        assert!(m.intersects(EventClass::KERNEL));
        assert!(!m.intersects(EventClass::CACHE));
        assert!(EventClass::ALL.contains(m));
        assert!(!m.contains(EventClass::ALL));
        assert!(EventClass::NONE.is_empty());
        assert!(!EventClass::MEM.is_empty());
    }

    #[test]
    fn every_event_has_a_single_class() {
        let samples = [
            TraceEvent::FlitInjected { node: 1, kind: 6 },
            TraceEvent::FlitDelivered { node: 1, uid: 7, latency: 3, hops: 2, deflections: 0 },
            TraceEvent::FlitDeflected { node: 1 },
            TraceEvent::LinkLoad { node: 1, links: 2 },
            TraceEvent::CacheAccess { node: 1, kind: CacheEventKind::LoadHit, addr: 0x40 },
            TraceEvent::ReorderSlip { node: 1 },
            TraceEvent::CohProbe { node: 1, op: 4, addr: 0x40 },
            TraceEvent::MemTxn { bank: 0, src: 1, kind: 0, addr: 0x40 },
            TraceEvent::CohHome { bank: 0, src: 1, op: 1, addr: 0x40 },
            TraceEvent::LockAcquired { bank: 0, src: 1, addr: 0x200 },
            TraceEvent::LockContended { bank: 0, src: 1, addr: 0x200 },
            TraceEvent::LockReleased { bank: 0, src: 1, addr: 0x200 },
            TraceEvent::SpanBegin { node: 1, op: KernelOp::Barrier },
            TraceEvent::SpanEnd { node: 1, op: KernelOp::Barrier },
            TraceEvent::FaultFlitCorrupted { node: 1, bit: 7 },
            TraceEvent::FaultLinkKilled { node: 1, dir: 2 },
            TraceEvent::FaultBankDrop { bank: 0 },
            TraceEvent::FaultBankDelay { bank: 0, cycles: 64 },
            TraceEvent::FaultPeStall { node: 1, cycles: 32 },
        ];
        for ev in samples {
            let class = ev.class();
            let single = [
                EventClass::NOC,
                EventClass::CACHE,
                EventClass::MEM,
                EventClass::KERNEL,
                EventClass::FAULT,
            ]
            .into_iter()
            .filter(|c| class.intersects(*c))
            .count();
            assert_eq!(single, 1, "{ev:?}");
        }
    }

    #[test]
    fn packet_kind_names_cover_wire_codes() {
        for code in 0..8u8 {
            assert_ne!(packet_kind_name(code), "unknown");
        }
        assert_eq!(packet_kind_name(7), "coherence");
        assert_eq!(packet_kind_name(8), "unknown");
    }

    #[test]
    fn coh_op_names_cover_assigned_codes() {
        for code in 0..14u8 {
            assert_ne!(coh_op_name(code), "unknown");
        }
        assert_eq!(coh_op_name(14), "unknown");
    }
}
