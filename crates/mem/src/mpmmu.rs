//! The Multiprocessor Memory Management Unit (§II-C, Fig. 4).
//!
//! A pure NoC slave serializing all shared-memory transactions:
//!
//! * **Read** (single/block): request token → MPMMU looks the data up in
//!   its local cache (DDR on miss) → data flit(s) through the outgoing
//!   FIFO. Block-read responses carry sequence numbers 0..3 so the
//!   requester's reorder buffer can handle out-of-order delivery.
//! * **Write** (single/block): request token → **grant** ack → requester
//!   streams data flits into the Pif-Data FIFO → MPMMU commits to memory →
//!   **final** ack. The two-step handshake is the paper's implicit
//!   flow-control scheme that keeps MPMMU buffering minimal.
//! * **Lock/Unlock**: word-granularity lock table; busy locks are Nack'd
//!   and the requesting bridge retries (documented design choice).
//!
//! Source identification: the application-level `src-id` field equals the
//! linear node index of the requester (the field is sized per topology to
//! hold a full node index, up to 256 nodes on a 16×16 torus), which is
//! how responses find their way back.

use crate::backing::BackingStore;
use crate::ddr::DdrModel;
use crate::lock::LockTable;
use medea_cache::{
    line_of, Addr, CacheConfig, CachePolicy, CoherenceMode, CoherenceStats, SetAssocCache,
    StoreOutcome, WORDS_PER_LINE,
};
use medea_fault::{FaultInjector, NullInjector};
use medea_noc::coord::Topology;
use medea_noc::flit::{burst_code, CohOp, Flit, PacketKind, SubKind};
use medea_sim::fifo::Fifo;
use medea_sim::ids::NodeId;
use medea_sim::stats::Counter;
use medea_sim::Cycle;
use medea_trace::{NullSink, TraceEvent, TraceSink};
use std::collections::{HashMap, VecDeque};

/// MPMMU configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpmmuConfig {
    /// Number of processors in the system: the depth of the
    /// Pif-Request/Control queue ("the depth of this queue is as large as
    /// the number of processors", §II-C).
    pub num_procs: usize,
    /// Depth of the Pif-Data queue.
    pub data_fifo_depth: usize,
    /// Depth of the outgoing FIFO.
    pub out_fifo_depth: usize,
    /// Fixed per-transaction processing cost of the "special processor".
    pub service_overhead: Cycle,
    /// Latency of an MPMMU-cache hit.
    pub cache_hit_latency: Cycle,
    /// Geometry of the MPMMU-local cache.
    pub cache: CacheConfig,
    /// Size of the DDR backing store in bytes.
    pub mem_bytes: usize,
    /// DDR timing.
    pub ddr: DdrModel,
    /// Coherence protocol the system runs. Under [`CoherenceMode::Dii`]
    /// (the paper-faithful default) no `Coherence` flits ever exist and
    /// the directory machinery below is dead weight with zero timing
    /// effect; under [`CoherenceMode::MesiDirectory`] this bank is the
    /// directory home for every line the `BankMap` assigns it.
    pub coherence: CoherenceMode,
}

impl MpmmuConfig {
    /// Paper-flavoured defaults for a system with `num_procs` processors
    /// and `mem_bytes` of DDR.
    pub fn new(num_procs: usize, mem_bytes: usize) -> Self {
        MpmmuConfig {
            num_procs: num_procs.max(1),
            data_fifo_depth: 16,
            out_fifo_depth: 16,
            service_overhead: 4,
            cache_hit_latency: 2,
            cache: CacheConfig::new(16 * 1024, CachePolicy::WriteBack)
                .expect("16 kB WB is a valid geometry"),
            mem_bytes,
            ddr: DdrModel::default(),
            coherence: CoherenceMode::Dii,
        }
    }
}

/// Transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpmmuStats {
    /// Single-read transactions served.
    pub single_reads: Counter,
    /// Block-read transactions served.
    pub block_reads: Counter,
    /// Single-write transactions committed.
    pub single_writes: Counter,
    /// Block-write transactions committed.
    pub block_writes: Counter,
    /// Lock requests granted.
    pub locks_granted: Counter,
    /// Lock requests Nack'd (busy).
    pub lock_nacks: Counter,
    /// Unlocks performed.
    pub unlocks: Counter,
    /// Unlock protocol violations (Nack'd).
    pub unlock_errors: Counter,
    /// Cycles spent busy (serving or awaiting write data).
    pub busy_cycles: Counter,
    /// Flits dropped because they were not valid MPMMU traffic.
    pub protocol_drops: Counter,
}

impl MpmmuStats {
    /// Accumulate another bank's counters into this one (the per-bank →
    /// aggregate reduction of a banked system's run report).
    pub fn merge(&mut self, other: &MpmmuStats) {
        self.single_reads.add(other.single_reads.get());
        self.block_reads.add(other.block_reads.get());
        self.single_writes.add(other.single_writes.get());
        self.block_writes.add(other.block_writes.get());
        self.locks_granted.add(other.locks_granted.get());
        self.lock_nacks.add(other.lock_nacks.get());
        self.unlocks.add(other.unlocks.get());
        self.unlock_errors.add(other.unlock_errors.get());
        self.busy_cycles.add(other.busy_cycles.get());
        self.protocol_drops.add(other.protocol_drops.get());
    }
}

#[derive(Debug, Clone)]
enum State {
    Idle,
    /// Serving: responses emitted when `until` is reached.
    Busy {
        until: Cycle,
        then: Completion,
    },
    /// Write in flight: grant sent, awaiting `expect` data flits from
    /// `src`.
    AwaitData {
        src: u8,
        kind: PacketKind,
        addr: Addr,
        words: Vec<Option<u32>>,
        expect: usize,
    },
    /// Directory transaction in flight: probes sent, collecting
    /// invalidation acks and/or the owner's data (MESI mode only).
    CohCollect(CohCollect),
    /// Fill sent; blocked until the requester's `Unblock` confirms the
    /// line is installed. Serializing here is what makes the protocol
    /// race-free on the unordered deflection fabric: no probe for this
    /// line can be generated before its fill is architecturally visible.
    CohAwaitUnblock,
}

/// In-flight directory transaction: what the home is still waiting for
/// before it can fill the requester.
#[derive(Debug, Clone)]
struct CohCollect {
    /// Line-aligned address of the transaction.
    line: Addr,
    /// Requesting node (fill destination).
    req: u8,
    /// `true` for `GetM` (grant M), `false` for `GetS` (grant S).
    want_m: bool,
    /// The previous owner, kept as a sharer after a `GetS` downgrade.
    prev_owner: Option<u8>,
    /// `Inv` probes still unacknowledged.
    pending_acks: usize,
    /// Still waiting for the owner's data or `CleanAck`.
    need_owner: bool,
    /// Dirty data streamed back by the owner (all-`Some` = complete).
    data: [Option<u32>; WORDS_PER_LINE],
}

impl CohCollect {
    fn done(&self) -> bool {
        self.pending_acks == 0 && !self.need_owner
    }
}

/// Per-line directory entry of a MESI home bank. Invalid (uncached) is
/// represented by absence.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirEntry {
    /// Clean copies at these nodes (insertion-ordered, so probe order is
    /// deterministic).
    Shared(Vec<u16>),
    /// Sole copy at this node, possibly dirty (L1 state E or M).
    Owned(u16),
}

#[derive(Debug, Clone)]
enum Completion {
    /// Emit these flits, then go idle.
    Respond(Vec<Flit>),
    /// Emit a grant for a write and start collecting data.
    Grant { src: u8, kind: PacketKind, addr: Addr, expect: usize },
    /// Emit a coherence fill (4 data flits + grant), then await Unblock.
    CohFill(Vec<Flit>),
    /// Emit directory probes, then collect their acks/data.
    CohProbes { probes: Vec<Flit>, collect: CohCollect },
}

/// The MPMMU node model.
#[derive(Debug, Clone)]
pub struct Mpmmu {
    topo: Topology,
    node: NodeId,
    cfg: MpmmuConfig,
    req_fifo: Fifo<Flit>,
    data_fifo: Fifo<Flit>,
    staging: VecDeque<Flit>,
    out_fifo: Fifo<Flit>,
    cache: SetAssocCache,
    store: BackingStore,
    locks: LockTable,
    state: State,
    stats: MpmmuStats,
    /// MESI directory for the lines this bank is home to. Empty (and
    /// never touched) under [`CoherenceMode::Dii`].
    dir: HashMap<Addr, DirEntry>,
    coh_stats: CoherenceStats,
}

impl Mpmmu {
    /// Build the MPMMU at `node` of `topo`.
    pub fn new(topo: Topology, node: NodeId, cfg: MpmmuConfig) -> Self {
        Mpmmu {
            topo,
            node,
            req_fifo: Fifo::new("mpmmu-req", cfg.num_procs),
            data_fifo: Fifo::new("mpmmu-data", cfg.data_fifo_depth),
            staging: VecDeque::new(),
            out_fifo: Fifo::new("mpmmu-out", cfg.out_fifo_depth),
            cache: SetAssocCache::new(cfg.cache),
            store: BackingStore::new(cfg.mem_bytes),
            locks: LockTable::new(),
            state: State::Idle,
            cfg,
            stats: MpmmuStats::default(),
            dir: HashMap::new(),
            coh_stats: CoherenceStats::default(),
        }
    }

    /// The node this MPMMU occupies.
    pub const fn node(&self) -> NodeId {
        self.node
    }

    /// Transaction statistics.
    pub const fn stats(&self) -> &MpmmuStats {
        &self.stats
    }

    /// MPMMU-local cache statistics.
    pub fn cache_stats(&self) -> &medea_cache::CacheStats {
        self.cache.stats()
    }

    /// Directory-side coherence counters (all zero under
    /// [`CoherenceMode::Dii`]).
    pub const fn coherence_stats(&self) -> &CoherenceStats {
        &self.coh_stats
    }

    /// Current `(request, data, out)` FIFO occupancies — the metrics
    /// sampler's bank-pressure snapshot. Data counts the staging queue
    /// too: flits parked there are still buffered in the bank.
    pub fn fifo_occupancy(&self) -> (usize, usize, usize) {
        (self.req_fifo.len(), self.data_fifo.len() + self.staging.len(), self.out_fifo.len())
    }

    /// Direct (zero-time) access to the architectural memory content.
    /// Used for program loading before reset and for result checking after
    /// the run — never during simulation.
    pub fn debug_store(&mut self) -> &mut BackingStore {
        &mut self.store
    }

    /// Read a word's architecturally current value, looking through the
    /// MPMMU cache first (the cache may hold lines newer than DDR).
    pub fn debug_read_word(&mut self, addr: Addr) -> u32 {
        if self.cache.probe(addr) {
            self.cache.load_word(addr).expect("probed resident")
        } else {
            self.store.read_word(addr)
        }
    }

    /// Deliver a flit ejected from the NoC at the MPMMU node.
    ///
    /// # Errors
    ///
    /// Returns the flit back if its target FIFO is full; the caller should
    /// retry next cycle (the node interface holds it).
    pub fn handle_incoming(&mut self, flit: Flit) -> Result<(), Flit> {
        if flit.kind() == PacketKind::Coherence {
            return self.handle_coherence(flit);
        }
        if !flit.kind().is_shared_memory() {
            // Message traffic addressed at the MPMMU is a software bug;
            // drop it loudly in stats.
            self.stats.protocol_drops.inc();
            return Ok(());
        }
        match flit.sub() {
            SubKind::Request => self.req_fifo.push(flit).map_err(|e| e.0),
            SubKind::Data => self.data_fifo.push(flit).map_err(|e| e.0),
            SubKind::Ack | SubKind::Nack => {
                self.stats.protocol_drops.inc();
                Ok(())
            }
        }
    }

    /// Route a coherence flit: transaction-starting ops queue behind the
    /// ordinary request FIFO (one serialization point per bank — the
    /// directory's race-freedom argument); everything else is a reply to
    /// the in-flight transaction and is absorbed immediately.
    fn handle_coherence(&mut self, flit: Flit) -> Result<(), Flit> {
        match flit.sub() {
            SubKind::Request => match flit.coh_op() {
                Some(CohOp::GetS | CohOp::GetM | CohOp::PutM) => {
                    self.req_fifo.push(flit).map_err(|e| e.0)
                }
                Some(CohOp::Unblock) => {
                    if matches!(self.state, State::CohAwaitUnblock) {
                        self.state = State::Idle;
                    } else {
                        self.stats.protocol_drops.inc();
                    }
                    Ok(())
                }
                _ => {
                    self.stats.protocol_drops.inc();
                    Ok(())
                }
            },
            SubKind::Data => match &mut self.state {
                // PutM writeback stream: rides the ordinary write path.
                State::AwaitData { kind: PacketKind::Coherence, .. } => {
                    self.data_fifo.push(flit).map_err(|e| e.0)
                }
                // Dirty line flushed by a probed owner.
                State::CohCollect(c) => {
                    let seq = flit.seq() as usize;
                    if seq < WORDS_PER_LINE {
                        c.data[seq] = Some(flit.payload());
                        if c.data.iter().all(Option::is_some) {
                            c.need_owner = false;
                        }
                    } else {
                        self.stats.protocol_drops.inc();
                    }
                    Ok(())
                }
                _ => {
                    self.stats.protocol_drops.inc();
                    Ok(())
                }
            },
            SubKind::Ack => {
                match (&mut self.state, flit.coh_op()) {
                    (State::CohCollect(c), Some(CohOp::InvAck)) => {
                        c.pending_acks = c.pending_acks.saturating_sub(1);
                    }
                    (State::CohCollect(c), Some(CohOp::CleanAck)) => {
                        c.need_owner = false;
                    }
                    _ => self.stats.protocol_drops.inc(),
                }
                Ok(())
            }
            SubKind::Nack => {
                self.stats.protocol_drops.inc();
                Ok(())
            }
        }
    }

    /// Pop the next response flit to inject into the NoC.
    pub fn pop_outgoing(&mut self) -> Option<Flit> {
        self.out_fifo.pop()
    }

    /// Put back a response flit the router refused this cycle.
    pub fn return_outgoing(&mut self, flit: Flit) {
        // Front of the queue: ordering must be preserved.
        let mut rest: Vec<Flit> = std::iter::once(flit).chain(self.drain_out()).collect();
        for f in rest.drain(..) {
            self.out_fifo.push(f).expect("refill cannot exceed prior occupancy + 1");
        }
    }

    fn drain_out(&mut self) -> Vec<Flit> {
        let mut v = Vec::with_capacity(self.out_fifo.len());
        while let Some(f) = self.out_fifo.pop() {
            v.push(f);
        }
        v
    }

    /// Whether the MPMMU has no work at all (fast-forward predicate).
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
            && self.req_fifo.is_empty()
            && self.data_fifo.is_empty()
            && self.staging.is_empty()
            && self.out_fifo.is_empty()
    }

    /// The cycle at which the current service completes, if busy.
    pub fn busy_until(&self) -> Option<Cycle> {
        match &self.state {
            State::Busy { until, .. } => Some(*until),
            _ => None,
        }
    }

    /// Advance one cycle, untraced and fault-free.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_faulted(now, &mut NullSink, &mut NullInjector);
    }

    /// [`tick`](Mpmmu::tick) with per-bank transaction and lock events
    /// reported to `sink` (emitted at request dispatch) and bank faults
    /// drawn from `injector`: read-response **drops** (SingleRead/BlockRead
    /// `Data` flits discarded at the staging → out-FIFO boundary — write
    /// acks, grants and lock traffic are exempt, mirroring the bridge's
    /// reads-only retry) and service **delays** (extra cycles folded into
    /// the dispatch overhead). The drop decision is rolled per (bank,
    /// cycle): response flits staged in the same cycle share its fate, so
    /// a lost block read loses the whole line — the coarsest loss the
    /// bridge's timeout must recover from. With [`NullSink`] and
    /// [`NullInjector`] every site constant-folds away and this is exactly
    /// [`tick`](Mpmmu::tick).
    pub fn tick_faulted<S: TraceSink, I: FaultInjector>(
        &mut self,
        now: Cycle,
        sink: &mut S,
        injector: &mut I,
    ) {
        // Move staged responses into the bounded outgoing FIFO.
        while let Some(&f) = self.staging.front() {
            if I::ACTIVE
                && f.sub() == SubKind::Data
                && matches!(f.kind(), PacketKind::SingleRead | PacketKind::BlockRead)
                && injector.bank_drop(now, self.node.index() as u16)
            {
                self.staging.pop_front();
                if S::ACTIVE {
                    sink.record(now, TraceEvent::FaultBankDrop { bank: self.node.index() as u16 });
                }
                continue;
            }
            match self.out_fifo.push(f) {
                Ok(()) => {
                    self.staging.pop_front();
                }
                Err(_) => break,
            }
        }

        if !matches!(self.state, State::Idle) {
            self.stats.busy_cycles.inc();
        }

        match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => self.dispatch(now, sink, injector),
            State::Busy { until, then } => {
                if now >= until {
                    self.complete(then);
                } else {
                    self.state = State::Busy { until, then };
                }
            }
            State::AwaitData { src, kind, addr, mut words, expect } => {
                while let Some(flit) = self.data_fifo.pop() {
                    debug_assert_eq!(flit.src_id(), src, "interleaved write data");
                    let seq = flit.seq() as usize;
                    if seq < words.len() {
                        words[seq] = Some(flit.payload());
                    } else {
                        self.stats.protocol_drops.inc();
                    }
                }
                if words.iter().take(expect).all(Option::is_some) {
                    let latency = self.commit_write(src, kind, addr, &words, expect);
                    let seq = if kind == PacketKind::Coherence { CohOp::PutMAck.code() } else { 1 };
                    let ack = self.response(src, kind, SubKind::Ack, seq, addr);
                    self.state =
                        State::Busy { until: now + latency, then: Completion::Respond(vec![ack]) };
                } else {
                    self.state = State::AwaitData { src, kind, addr, words, expect };
                }
            }
            State::CohCollect(c) => {
                if c.done() {
                    // All-`Some` data means the owner flushed a dirty
                    // line; all-`None` means every probe was answered
                    // clean (memory already current).
                    let dirty = c.data.iter().all(Option::is_some);
                    let mut lat = 0;
                    if dirty {
                        let mut arr = [0u32; WORDS_PER_LINE];
                        for (i, w) in c.data.iter().enumerate() {
                            arr[i] = w.expect("dirty ⇒ all words collected");
                        }
                        lat += self.mem_write_line(c.line, arr);
                    }
                    let entry = if c.want_m {
                        DirEntry::Owned(c.req as u16)
                    } else {
                        let mut v = Vec::with_capacity(2);
                        if let Some(o) = c.prev_owner {
                            v.push(o as u16);
                        }
                        v.push(c.req as u16);
                        DirEntry::Shared(v)
                    };
                    let grant = if c.want_m { CohOp::GrantM } else { CohOp::GrantS };
                    self.dir_insert(c.line, entry);
                    let (flits, rlat) = self.build_fill(c.req, c.line, grant);
                    self.state =
                        State::Busy { until: now + lat + rlat, then: Completion::CohFill(flits) };
                } else {
                    self.state = State::CohCollect(c);
                }
            }
            // Released by the requester's Unblock in `handle_coherence`.
            State::CohAwaitUnblock => self.state = State::CohAwaitUnblock,
        }
    }

    fn dispatch<S: TraceSink, I: FaultInjector>(
        &mut self,
        now: Cycle,
        sink: &mut S,
        injector: &mut I,
    ) {
        let Some(req) = self.req_fifo.pop() else {
            return;
        };
        debug_assert_eq!(req.sub(), SubKind::Request);
        let src = req.src_id();
        let addr = req.payload();
        let mut overhead = self.cfg.service_overhead;
        if I::ACTIVE {
            // A slow bank is slow for every transaction it serves: the
            // injected delay rides the service overhead all kinds share.
            let extra = injector.bank_delay(now, self.node.index() as u16);
            if extra > 0 {
                overhead += extra as Cycle;
                if S::ACTIVE {
                    sink.record(
                        now,
                        TraceEvent::FaultBankDelay {
                            bank: self.node.index() as u16,
                            cycles: extra,
                        },
                    );
                }
            }
        }
        if S::ACTIVE
            && !matches!(req.kind(), PacketKind::Lock | PacketKind::Unlock | PacketKind::Coherence)
        {
            sink.record(
                now,
                TraceEvent::MemTxn {
                    bank: self.node.index() as u16,
                    src: src as u16,
                    kind: req.kind().code(),
                    addr,
                },
            );
        }
        match req.kind() {
            PacketKind::SingleRead => {
                let (value, lat) = self.mem_read_word(addr);
                self.stats.single_reads.inc();
                let data = self.response(src, PacketKind::SingleRead, SubKind::Data, 0, value);
                self.state = State::Busy {
                    until: now + overhead + lat,
                    then: Completion::Respond(vec![data]),
                };
            }
            PacketKind::BlockRead => {
                let line = line_of(addr);
                let (data, lat) = self.mem_read_line(line);
                self.stats.block_reads.inc();
                let flits = data
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        let mut f =
                            self.response(src, PacketKind::BlockRead, SubKind::Data, i as u8, *w);
                        f = Flit::new(
                            f.dest(),
                            f.kind(),
                            f.sub(),
                            i as u8,
                            burst_code(WORDS_PER_LINE),
                            f.src_id(),
                            f.payload(),
                        );
                        f
                    })
                    .collect();
                self.state =
                    State::Busy { until: now + overhead + lat, then: Completion::Respond(flits) };
            }
            PacketKind::SingleWrite | PacketKind::BlockWrite => {
                let expect = if req.kind() == PacketKind::SingleWrite { 1 } else { WORDS_PER_LINE };
                self.state = State::Busy {
                    until: now + overhead,
                    then: Completion::Grant { src, kind: req.kind(), addr, expect },
                };
            }
            PacketKind::Lock => {
                let granted = self.locks.try_lock(addr, NodeId::new(src as u16));
                if S::ACTIVE {
                    let (bank, src) = (self.node.index() as u16, src as u16);
                    sink.record(
                        now,
                        if granted {
                            TraceEvent::LockAcquired { bank, src, addr }
                        } else {
                            TraceEvent::LockContended { bank, src, addr }
                        },
                    );
                }
                let sub = if granted {
                    self.stats.locks_granted.inc();
                    SubKind::Ack
                } else {
                    self.stats.lock_nacks.inc();
                    SubKind::Nack
                };
                let resp = self.response(src, PacketKind::Lock, sub, 0, addr);
                self.state =
                    State::Busy { until: now + overhead, then: Completion::Respond(vec![resp]) };
            }
            PacketKind::Unlock => {
                let sub = match self.locks.unlock(addr, NodeId::new(src as u16)) {
                    Ok(()) => {
                        if S::ACTIVE {
                            sink.record(
                                now,
                                TraceEvent::LockReleased {
                                    bank: self.node.index() as u16,
                                    src: src as u16,
                                    addr,
                                },
                            );
                        }
                        self.stats.unlocks.inc();
                        SubKind::Ack
                    }
                    Err(_) => {
                        self.stats.unlock_errors.inc();
                        SubKind::Nack
                    }
                };
                let resp = self.response(src, PacketKind::Unlock, sub, 0, addr);
                self.state =
                    State::Busy { until: now + overhead, then: Completion::Respond(vec![resp]) };
            }
            PacketKind::Coherence => {
                let op = req.coh_op().expect("request FIFO only admits GetS/GetM/PutM");
                let line = line_of(addr);
                let src16 = src as u16;
                if S::ACTIVE {
                    sink.record(
                        now,
                        TraceEvent::CohHome {
                            bank: self.node.index() as u16,
                            src: src as u16,
                            op: op.code(),
                            addr: line,
                        },
                    );
                }
                match op {
                    CohOp::GetS => {
                        self.coh_stats.gets += 1;
                        match self.dir.get(&line).cloned() {
                            Some(DirEntry::Owned(owner)) if owner != src16 => {
                                // Someone may hold it dirty: downgrade
                                // them to S and collect their data.
                                self.coh_stats.fetches_sent += 1;
                                if S::ACTIVE {
                                    sink.record(
                                        now,
                                        TraceEvent::CohProbe {
                                            node: owner,
                                            op: CohOp::Fetch.code(),
                                            addr: line,
                                        },
                                    );
                                }
                                let probe = self.probe(owner, CohOp::Fetch, line);
                                let collect = CohCollect {
                                    line,
                                    req: src,
                                    want_m: false,
                                    prev_owner: Some(owner as u8),
                                    pending_acks: 0,
                                    need_owner: true,
                                    data: [None; WORDS_PER_LINE],
                                };
                                self.state = State::Busy {
                                    until: now + overhead,
                                    then: Completion::CohProbes { probes: vec![probe], collect },
                                };
                            }
                            dir => {
                                // Uncached, already shared, or the old
                                // owner re-fetching after a silent clean
                                // eviction: fill straight from memory.
                                let entry = match dir {
                                    Some(DirEntry::Shared(mut v)) => {
                                        if !v.contains(&src16) {
                                            v.push(src16);
                                        }
                                        DirEntry::Shared(v)
                                    }
                                    _ => DirEntry::Owned(src16),
                                };
                                let grant = if matches!(entry, DirEntry::Owned(_)) {
                                    CohOp::GrantE
                                } else {
                                    CohOp::GrantS
                                };
                                self.dir_insert(line, entry);
                                let (flits, lat) = self.build_fill(src, line, grant);
                                self.state = State::Busy {
                                    until: now + overhead + lat,
                                    then: Completion::CohFill(flits),
                                };
                            }
                        }
                    }
                    CohOp::GetM => {
                        self.coh_stats.getm += 1;
                        match self.dir.get(&line).cloned() {
                            Some(DirEntry::Owned(owner)) if owner != src16 => {
                                self.coh_stats.fetches_sent += 1;
                                if S::ACTIVE {
                                    sink.record(
                                        now,
                                        TraceEvent::CohProbe {
                                            node: owner,
                                            op: CohOp::FetchInv.code(),
                                            addr: line,
                                        },
                                    );
                                }
                                let probe = self.probe(owner, CohOp::FetchInv, line);
                                let collect = CohCollect {
                                    line,
                                    req: src,
                                    want_m: true,
                                    prev_owner: None,
                                    pending_acks: 0,
                                    need_owner: true,
                                    data: [None; WORDS_PER_LINE],
                                };
                                self.state = State::Busy {
                                    until: now + overhead,
                                    then: Completion::CohProbes { probes: vec![probe], collect },
                                };
                            }
                            Some(DirEntry::Shared(v)) if v.iter().any(|&s| s != src16) => {
                                let others: Vec<u16> =
                                    v.iter().copied().filter(|&s| s != src16).collect();
                                self.coh_stats.invalidations_sent += others.len() as u64;
                                let probes: Vec<Flit> = others
                                    .iter()
                                    .map(|&s| {
                                        if S::ACTIVE {
                                            sink.record(
                                                now,
                                                TraceEvent::CohProbe {
                                                    node: s,
                                                    op: CohOp::Inv.code(),
                                                    addr: line,
                                                },
                                            );
                                        }
                                        self.probe(s, CohOp::Inv, line)
                                    })
                                    .collect();
                                let collect = CohCollect {
                                    line,
                                    req: src,
                                    want_m: true,
                                    prev_owner: None,
                                    pending_acks: others.len(),
                                    need_owner: false,
                                    data: [None; WORDS_PER_LINE],
                                };
                                self.state = State::Busy {
                                    until: now + overhead,
                                    then: Completion::CohProbes { probes, collect },
                                };
                            }
                            _ => {
                                // Uncached, sole sharer upgrading, or the
                                // owner re-requesting: grant M directly.
                                self.dir_insert(line, DirEntry::Owned(src16));
                                let (flits, lat) = self.build_fill(src, line, CohOp::GrantM);
                                self.state = State::Busy {
                                    until: now + overhead + lat,
                                    then: Completion::CohFill(flits),
                                };
                            }
                        }
                    }
                    CohOp::PutM => {
                        self.coh_stats.putm += 1;
                        self.state = State::Busy {
                            until: now + overhead,
                            then: Completion::Grant {
                                src,
                                kind: PacketKind::Coherence,
                                addr: line,
                                expect: WORDS_PER_LINE,
                            },
                        };
                    }
                    _ => unreachable!("request FIFO only admits GetS/GetM/PutM"),
                }
            }
            PacketKind::Message => unreachable!("filtered in handle_incoming"),
        }
    }

    fn complete(&mut self, completion: Completion) {
        match completion {
            Completion::Respond(flits) => {
                self.staging.extend(flits);
                self.state = State::Idle;
            }
            Completion::Grant { src, kind, addr, expect } => {
                let seq = if kind == PacketKind::Coherence { CohOp::PutMGrant.code() } else { 0 };
                let grant = self.response(src, kind, SubKind::Ack, seq, addr);
                self.staging.push_back(grant);
                self.state =
                    State::AwaitData { src, kind, addr, words: vec![None; WORDS_PER_LINE], expect };
            }
            Completion::CohFill(flits) => {
                self.staging.extend(flits);
                self.state = State::CohAwaitUnblock;
            }
            Completion::CohProbes { probes, collect } => {
                self.staging.extend(probes);
                self.state = State::CohCollect(collect);
            }
        }
    }

    fn commit_write(
        &mut self,
        src: u8,
        kind: PacketKind,
        addr: Addr,
        words: &[Option<u32>],
        expect: usize,
    ) -> Cycle {
        match kind {
            PacketKind::SingleWrite => {
                self.stats.single_writes.inc();
                let value = words[0].expect("collected");
                self.mem_write_word(addr, value)
            }
            PacketKind::BlockWrite => {
                self.stats.block_writes.inc();
                let line = line_of(addr);
                let mut data = [0u32; WORDS_PER_LINE];
                for (i, slot) in words.iter().take(expect).enumerate() {
                    data[i] = slot.expect("collected");
                }
                self.mem_write_line(line, data)
            }
            PacketKind::Coherence => {
                // PutM writeback. Commit only if the directory still says
                // `src` owns the line: a racing GetM serialized first
                // already harvested this data via FetchInv, making this
                // stream stale — discard it (the PutMAck still flows, so
                // the evicting bridge completes normally).
                let line = line_of(addr);
                if self.dir.get(&line) == Some(&DirEntry::Owned(src as u16)) {
                    self.dir.remove(&line);
                    let mut data = [0u32; WORDS_PER_LINE];
                    for (i, slot) in words.iter().take(expect).enumerate() {
                        data[i] = slot.expect("collected");
                    }
                    self.mem_write_line(line, data)
                } else {
                    0
                }
            }
            _ => unreachable!("only writes reach commit_write"),
        }
    }

    fn response(&self, src: u8, kind: PacketKind, sub: SubKind, seq: u8, data: u32) -> Flit {
        let dest = self.topo.coord_of(NodeId::new(src as u16));
        Flit::new(dest, kind, sub, seq, 0, self.node.index() as u8, data)
    }

    // ---- MESI directory helpers ----

    fn dir_insert(&mut self, line: Addr, entry: DirEntry) {
        self.dir.insert(line, entry);
        let occ = self.dir.len() as u64;
        if occ > self.coh_stats.directory_lines_peak {
            self.coh_stats.directory_lines_peak = occ;
        }
    }

    /// Build a probe flit addressed at the L1 of `dest`.
    fn probe(&self, dest: u16, op: CohOp, line: Addr) -> Flit {
        Flit::coherence(
            self.topo.coord_of(NodeId::new(dest)),
            SubKind::Request,
            op,
            self.node.index() as u8,
            line,
        )
    }

    /// Read the line and build the fill packet: 4 sequenced data flits
    /// plus the grant ack carrying the MESI state to install.
    fn build_fill(&mut self, src: u8, line: Addr, grant: CohOp) -> (Vec<Flit>, Cycle) {
        let (data, lat) = self.mem_read_line(line);
        let dest = self.topo.coord_of(NodeId::new(src as u16));
        let me = self.node.index() as u8;
        let mut flits: Vec<Flit> = data
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Flit::new(
                    dest,
                    PacketKind::Coherence,
                    SubKind::Data,
                    i as u8,
                    burst_code(WORDS_PER_LINE),
                    me,
                    *w,
                )
            })
            .collect();
        flits.push(Flit::coherence(dest, SubKind::Ack, grant, me, line));
        (flits, lat)
    }

    // ---- memory hierarchy (MPMMU cache in front of DDR) ----

    fn allocate(&mut self, line: Addr) -> Cycle {
        let mut lat = self.cfg.ddr.read_latency(WORDS_PER_LINE);
        if let Some(victim) = self.cache.evict_for(line) {
            self.store.write_line(victim.line, victim.data);
            lat += self.cfg.ddr.write_latency(WORDS_PER_LINE);
        }
        let data = self.store.read_line(line);
        self.cache.fill_line(line, data);
        lat
    }

    fn mem_read_line(&mut self, line: Addr) -> ([u32; WORDS_PER_LINE], Cycle) {
        let mut lat = self.cfg.cache_hit_latency;
        if !self.cache.probe(line) {
            lat += self.allocate(line);
        }
        let mut data = [0u32; WORDS_PER_LINE];
        for (i, word) in data.iter_mut().enumerate() {
            *word =
                self.cache.load_word(line + (i as Addr) * 4).expect("line resident after allocate");
        }
        (data, lat)
    }

    fn mem_read_word(&mut self, addr: Addr) -> (u32, Cycle) {
        let mut lat = self.cfg.cache_hit_latency;
        if !self.cache.probe(addr) {
            lat += self.allocate(line_of(addr));
        }
        let value = self.cache.load_word(addr).expect("resident after allocate");
        (value, lat)
    }

    fn mem_write_word(&mut self, addr: Addr, value: u32) -> Cycle {
        let mut lat = self.cfg.cache_hit_latency;
        match self.cache.store_word(addr, value) {
            StoreOutcome::Absorbed => {}
            StoreOutcome::WriteThrough => {
                self.store.write_word(addr, value);
                lat += self.cfg.ddr.write_latency(1);
            }
            StoreOutcome::NeedsAllocate => {
                lat += self.allocate(line_of(addr));
                match self.cache.store_word(addr, value) {
                    StoreOutcome::Absorbed => {}
                    other => unreachable!("retry after allocate: {other:?}"),
                }
            }
        }
        lat
    }

    fn mem_write_line(&mut self, line: Addr, data: [u32; WORDS_PER_LINE]) -> Cycle {
        let mut lat = self.cfg.cache_hit_latency;
        if !self.cache.probe(line) {
            lat += self.allocate(line);
        }
        for (i, word) in data.iter().enumerate() {
            match self.cache.store_word(line + (i as Addr) * 4, *word) {
                StoreOutcome::Absorbed => {}
                StoreOutcome::WriteThrough => {
                    self.store.write_word(line + (i as Addr) * 4, *word);
                }
                StoreOutcome::NeedsAllocate => unreachable!("line resident"),
            }
        }
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(num_procs: usize) -> Mpmmu {
        let topo = Topology::paper_4x4();
        Mpmmu::new(topo, NodeId::new(0), MpmmuConfig::new(num_procs, 64 * 1024))
    }

    fn req(kind: PacketKind, src: u8, addr: u32) -> Flit {
        // Requests travel toward the MPMMU at (0,0).
        Flit::request(medea_noc::coord::Coord::new(0, 0), kind, src, addr)
    }

    fn data_flit(src: u8, seq: u8, value: u32) -> Flit {
        Flit::new(
            medea_noc::coord::Coord::new(0, 0),
            PacketKind::BlockWrite,
            SubKind::Data,
            seq,
            burst_code(4),
            src,
            value,
        )
    }

    fn run_until_response(m: &mut Mpmmu, start: Cycle, limit: Cycle) -> (Flit, Cycle) {
        for now in start..start + limit {
            m.tick(now);
            if let Some(f) = m.pop_outgoing() {
                return (f, now);
            }
        }
        panic!("no response within {limit} cycles");
    }

    #[test]
    fn single_read_roundtrip() {
        let mut m = mk(4);
        m.debug_store().write_word(0x100, 77);
        m.handle_incoming(req(PacketKind::SingleRead, 5, 0x100)).unwrap();
        let (resp, when) = run_until_response(&mut m, 0, 100);
        assert_eq!(resp.kind(), PacketKind::SingleRead);
        assert_eq!(resp.sub(), SubKind::Data);
        assert_eq!(resp.payload(), 77);
        // Response goes back to node 5 = (1,1).
        assert_eq!(resp.dest(), medea_noc::coord::Coord::new(1, 1));
        // Cold miss: must include DDR latency.
        assert!(when >= 24, "response at {when} ignored DDR latency");
        assert_eq!(m.stats().single_reads.get(), 1);
    }

    #[test]
    fn cached_read_is_faster() {
        let mut m = mk(4);
        m.debug_store().write_word(0x100, 1);
        m.handle_incoming(req(PacketKind::SingleRead, 5, 0x100)).unwrap();
        let (_, cold) = run_until_response(&mut m, 0, 200);
        let start = cold + 1;
        m.handle_incoming(req(PacketKind::SingleRead, 5, 0x100)).unwrap();
        let (_, warm_abs) = run_until_response(&mut m, start, 200);
        let warm = warm_abs - start;
        assert!(warm < cold, "warm {warm} !< cold {cold}");
    }

    #[test]
    fn block_read_returns_four_sequenced_flits() {
        let mut m = mk(4);
        m.debug_store().write_line(0x40, [10, 20, 30, 40]);
        m.handle_incoming(req(PacketKind::BlockRead, 3, 0x44)).unwrap();
        let mut flits = Vec::new();
        for now in 0..200 {
            m.tick(now);
            while let Some(f) = m.pop_outgoing() {
                flits.push(f);
            }
            if flits.len() == 4 {
                break;
            }
        }
        assert_eq!(flits.len(), 4);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq() as usize, i);
            assert_eq!(f.payload(), (10 * (i + 1)) as u32);
            assert_eq!(f.burst_flits(), 4);
        }
    }

    #[test]
    fn write_protocol_grant_data_ack() {
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::SingleWrite, 2, 0x200)).unwrap();
        let (grant, when) = run_until_response(&mut m, 0, 100);
        assert_eq!(grant.sub(), SubKind::Ack);
        assert_eq!(grant.seq(), 0, "grant carries seq 0");
        // Send the data flit.
        let mut d = data_flit(2, 0, 4242);
        d = Flit::new(d.dest(), PacketKind::SingleWrite, SubKind::Data, 0, 0, 2, 4242);
        m.handle_incoming(d).unwrap();
        let (ack, _) = run_until_response(&mut m, when + 1, 200);
        assert_eq!(ack.sub(), SubKind::Ack);
        assert_eq!(ack.seq(), 1, "final ack carries seq 1");
        assert_eq!(m.debug_read_word(0x200), 4242);
        assert_eq!(m.stats().single_writes.get(), 1);
    }

    #[test]
    fn block_write_out_of_order_data() {
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::BlockWrite, 2, 0x80)).unwrap();
        let (_grant, when) = run_until_response(&mut m, 0, 100);
        // Data arrives out of order — sequence numbers sort it out.
        for seq in [2u8, 0, 3, 1] {
            m.handle_incoming(data_flit(2, seq, 100 + seq as u32)).unwrap();
        }
        let (ack, _) = run_until_response(&mut m, when + 1, 300);
        assert_eq!(ack.sub(), SubKind::Ack);
        assert_eq!(m.debug_read_word(0x80), 100);
        assert_eq!(m.debug_read_word(0x84), 101);
        assert_eq!(m.debug_read_word(0x88), 102);
        assert_eq!(m.debug_read_word(0x8C), 103);
    }

    #[test]
    fn lock_grant_nack_unlock() {
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::Lock, 1, 0x300)).unwrap();
        let (r1, t1) = run_until_response(&mut m, 0, 50);
        assert_eq!(r1.sub(), SubKind::Ack);
        m.handle_incoming(req(PacketKind::Lock, 2, 0x300)).unwrap();
        let (r2, t2) = run_until_response(&mut m, t1 + 1, 50);
        assert_eq!(r2.sub(), SubKind::Nack);
        m.handle_incoming(req(PacketKind::Unlock, 1, 0x300)).unwrap();
        let (r3, t3) = run_until_response(&mut m, t2 + 1, 50);
        assert_eq!(r3.sub(), SubKind::Ack);
        m.handle_incoming(req(PacketKind::Lock, 2, 0x300)).unwrap();
        let (r4, _) = run_until_response(&mut m, t3 + 1, 50);
        assert_eq!(r4.sub(), SubKind::Ack);
        assert_eq!(m.stats().lock_nacks.get(), 1);
        assert_eq!(m.stats().locks_granted.get(), 2);
    }

    #[test]
    fn unlock_violation_nacked() {
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::Unlock, 1, 0x300)).unwrap();
        let (r, _) = run_until_response(&mut m, 0, 50);
        assert_eq!(r.sub(), SubKind::Nack);
        assert_eq!(m.stats().unlock_errors.get(), 1);
    }

    #[test]
    fn requests_serialized_in_order() {
        let mut m = mk(4);
        m.debug_store().write_word(0x10, 1);
        m.debug_store().write_word(0x20, 2);
        m.handle_incoming(req(PacketKind::SingleRead, 1, 0x10)).unwrap();
        m.handle_incoming(req(PacketKind::SingleRead, 2, 0x20)).unwrap();
        let (first, t1) = run_until_response(&mut m, 0, 200);
        let (second, _) = run_until_response(&mut m, t1 + 1, 200);
        assert_eq!(first.payload(), 1);
        assert_eq!(second.payload(), 2);
    }

    #[test]
    fn req_fifo_backpressure() {
        let mut m = mk(2); // request queue depth 2
        assert!(m.handle_incoming(req(PacketKind::SingleRead, 1, 0x0)).is_ok());
        assert!(m.handle_incoming(req(PacketKind::SingleRead, 2, 0x0)).is_ok());
        assert!(m.handle_incoming(req(PacketKind::SingleRead, 3, 0x0)).is_err());
    }

    #[test]
    fn message_flit_dropped() {
        let mut m = mk(4);
        let msg = Flit::message(medea_noc::coord::Coord::new(0, 0), 1, 0, 0, 5);
        assert!(m.handle_incoming(msg).is_ok());
        assert_eq!(m.stats().protocol_drops.get(), 1);
        assert!(m.is_idle());
    }

    #[test]
    fn idle_detection() {
        let mut m = mk(4);
        assert!(m.is_idle());
        m.handle_incoming(req(PacketKind::SingleRead, 1, 0x0)).unwrap();
        assert!(!m.is_idle());
        let _ = run_until_response(&mut m, 0, 200);
        m.tick(1000);
        assert!(m.is_idle());
    }

    #[test]
    fn return_outgoing_preserves_order() {
        let mut m = mk(4);
        m.debug_store().write_line(0x40, [9, 8, 7, 6]);
        m.handle_incoming(req(PacketKind::BlockRead, 3, 0x40)).unwrap();
        let mut first = None;
        for now in 0..200 {
            m.tick(now);
            if let Some(f) = m.pop_outgoing() {
                first = Some(f);
                break;
            }
        }
        let f = first.unwrap();
        m.return_outgoing(f);
        let again = m.pop_outgoing().unwrap();
        assert_eq!(again, f, "returned flit must come out first again");
    }

    #[test]
    fn injected_drop_swallows_read_responses_only() {
        use medea_fault::{FaultConfig, ScheduledInjector, PPM};
        let mut inj = ScheduledInjector::new(FaultConfig {
            bank_drop_ppm: PPM as u32, // every read response lost
            ..FaultConfig::default()
        });
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::SingleRead, 2, 0x40)).unwrap();
        for now in 0..400 {
            m.tick_faulted(now, &mut medea_trace::NullSink, &mut inj);
            assert!(m.pop_outgoing().is_none(), "dropped response escaped at {now}");
        }
        assert!(inj.stats().bank_drops > 0);
        // A lock ack is control traffic: never dropped.
        m.handle_incoming(req(PacketKind::Lock, 2, 0x40)).unwrap();
        let mut granted = false;
        for now in 400..500 {
            m.tick_faulted(now, &mut medea_trace::NullSink, &mut inj);
            if let Some(f) = m.pop_outgoing() {
                assert_eq!(f.kind(), PacketKind::Lock);
                assert_eq!(f.sub(), SubKind::Ack);
                granted = true;
                break;
            }
        }
        assert!(granted, "lock traffic must survive a drop-everything bank");
    }

    // ---- MESI directory flows ----

    fn coh_req(op: CohOp, src: u8, addr: u32) -> Flit {
        Flit::coherence(medea_noc::coord::Coord::new(0, 0), SubKind::Request, op, src, addr)
    }

    fn coh_data(src: u8, seq: u8, value: u32) -> Flit {
        Flit::new(
            medea_noc::coord::Coord::new(0, 0),
            PacketKind::Coherence,
            SubKind::Data,
            seq,
            burst_code(4),
            src,
            value,
        )
    }

    fn coh_ack(op: CohOp, src: u8, addr: u32) -> Flit {
        Flit::coherence(medea_noc::coord::Coord::new(0, 0), SubKind::Ack, op, src, addr)
    }

    fn collect_flits(m: &mut Mpmmu, start: Cycle, limit: Cycle, n: usize) -> (Vec<Flit>, Cycle) {
        let mut v = Vec::new();
        for now in start..start + limit {
            m.tick(now);
            while let Some(f) = m.pop_outgoing() {
                v.push(f);
            }
            if v.len() >= n {
                return (v, now);
            }
        }
        panic!("only {} of {n} flits within {limit} cycles", v.len());
    }

    #[test]
    fn coh_gets_cold_fill_grants_exclusive_then_unblock_releases() {
        let mut m = mk(8);
        m.debug_store().write_line(0x40, [1, 2, 3, 4]);
        m.handle_incoming(coh_req(CohOp::GetS, 5, 0x40)).unwrap();
        let (flits, when) = collect_flits(&mut m, 0, 200, 5);
        assert_eq!(flits.len(), 5, "4 data + grant");
        for (i, f) in flits[..4].iter().enumerate() {
            assert_eq!(f.kind(), PacketKind::Coherence);
            assert_eq!(f.sub(), SubKind::Data);
            assert_eq!(f.seq() as usize, i);
            assert_eq!(f.payload(), (i + 1) as u32);
        }
        assert_eq!(flits[4].coh_op(), Some(CohOp::GrantE), "sole copy is granted E");
        // Home is blocked until the requester unblocks it.
        m.tick(when + 1);
        assert!(!m.is_idle(), "home must await Unblock");
        m.handle_incoming(coh_req(CohOp::Unblock, 5, 0x40)).unwrap();
        m.tick(when + 2);
        assert!(m.is_idle());
        assert_eq!(m.coherence_stats().gets, 1);
        assert_eq!(m.coherence_stats().directory_lines_peak, 1);
    }

    #[test]
    fn coh_second_reader_downgrades_owner_and_grants_shared() {
        let mut m = mk(8);
        m.debug_store().write_line(0x40, [9, 9, 9, 9]);
        m.handle_incoming(coh_req(CohOp::GetS, 5, 0x40)).unwrap();
        let (_, t0) = collect_flits(&mut m, 0, 200, 5);
        m.handle_incoming(coh_req(CohOp::Unblock, 5, 0x40)).unwrap();
        // Second reader: home must Fetch-probe the owner (node 5).
        m.handle_incoming(coh_req(CohOp::GetS, 3, 0x40)).unwrap();
        let (probes, t1) = collect_flits(&mut m, t0 + 1, 200, 1);
        assert_eq!(probes[0].coh_op(), Some(CohOp::Fetch));
        assert_eq!(probes[0].dest(), m.topo.coord_of(NodeId::new(5)));
        assert_eq!(m.coherence_stats().fetches_sent, 1);
        // Owner answers clean: line was only E, memory is current.
        m.handle_incoming(coh_ack(CohOp::CleanAck, 5, 0x40)).unwrap();
        let (fill, _) = collect_flits(&mut m, t1 + 1, 200, 5);
        assert_eq!(fill[4].coh_op(), Some(CohOp::GrantS), "downgraded line is granted S");
        assert_eq!(fill[0].payload(), 9);
        m.handle_incoming(coh_req(CohOp::Unblock, 3, 0x40)).unwrap();
        m.tick(10_000);
        assert!(m.is_idle());
    }

    #[test]
    fn coh_getm_invalidates_all_other_sharers() {
        let mut m = mk(8);
        // Build Shared{5, 3}: GetS by 5, downgrade via GetS by 3.
        m.handle_incoming(coh_req(CohOp::GetS, 5, 0x40)).unwrap();
        let (_, t0) = collect_flits(&mut m, 0, 200, 5);
        m.handle_incoming(coh_req(CohOp::Unblock, 5, 0x40)).unwrap();
        m.handle_incoming(coh_req(CohOp::GetS, 3, 0x40)).unwrap();
        let (_, t1) = collect_flits(&mut m, t0 + 1, 200, 1);
        m.handle_incoming(coh_ack(CohOp::CleanAck, 5, 0x40)).unwrap();
        let (_, t2) = collect_flits(&mut m, t1 + 1, 200, 5);
        m.handle_incoming(coh_req(CohOp::Unblock, 3, 0x40)).unwrap();
        // Writer 6 arrives: both sharers must be invalidated.
        m.handle_incoming(coh_req(CohOp::GetM, 6, 0x40)).unwrap();
        let (invs, t3) = collect_flits(&mut m, t2 + 1, 200, 2);
        assert!(invs.iter().all(|f| f.coh_op() == Some(CohOp::Inv)));
        let dests: Vec<_> = invs.iter().map(Flit::dest).collect();
        assert_eq!(
            dests,
            vec![m.topo.coord_of(NodeId::new(5)), m.topo.coord_of(NodeId::new(3))],
            "probe order follows sharer insertion order"
        );
        assert_eq!(m.coherence_stats().invalidations_sent, 2);
        // Fill is withheld until every ack lands.
        m.handle_incoming(coh_ack(CohOp::InvAck, 5, 0x40)).unwrap();
        for now in t3 + 1..t3 + 20 {
            m.tick(now);
            assert!(m.pop_outgoing().is_none(), "fill escaped before all InvAcks");
        }
        m.handle_incoming(coh_ack(CohOp::InvAck, 3, 0x40)).unwrap();
        let (fill, _) = collect_flits(&mut m, t3 + 20, 200, 5);
        assert_eq!(fill[4].coh_op(), Some(CohOp::GrantM));
        m.handle_incoming(coh_req(CohOp::Unblock, 6, 0x40)).unwrap();
        m.tick(20_000);
        assert!(m.is_idle());
    }

    #[test]
    fn coh_putm_commits_writeback_and_frees_directory() {
        let mut m = mk(8);
        m.handle_incoming(coh_req(CohOp::GetM, 5, 0x80)).unwrap();
        let (fill, t0) = collect_flits(&mut m, 0, 200, 5);
        assert_eq!(fill[4].coh_op(), Some(CohOp::GrantM));
        m.handle_incoming(coh_req(CohOp::Unblock, 5, 0x80)).unwrap();
        // Owner evicts: PutM handshake (grant → data → ack).
        m.handle_incoming(coh_req(CohOp::PutM, 5, 0x80)).unwrap();
        let (grant, t1) = collect_flits(&mut m, t0 + 1, 200, 1);
        assert_eq!(grant[0].coh_op(), Some(CohOp::PutMGrant));
        for seq in [1u8, 3, 0, 2] {
            m.handle_incoming(coh_data(5, seq, 0xD0 + seq as u32)).unwrap();
        }
        let (ack, _) = collect_flits(&mut m, t1 + 1, 300, 1);
        assert_eq!(ack[0].coh_op(), Some(CohOp::PutMAck));
        assert_eq!(m.debug_read_word(0x80), 0xD0);
        assert_eq!(m.debug_read_word(0x8C), 0xD3);
        assert_eq!(m.coherence_stats().putm, 1);
        // Directory entry is gone: the next reader gets E again.
        m.handle_incoming(coh_req(CohOp::GetS, 3, 0x80)).unwrap();
        let (refill, _) = collect_flits(&mut m, 10_000, 200, 5);
        assert_eq!(refill[4].coh_op(), Some(CohOp::GrantE));
        assert_eq!(refill[0].payload(), 0xD0);
    }

    #[test]
    fn coh_stale_putm_after_fetchinv_is_discarded() {
        let mut m = mk(8);
        m.handle_incoming(coh_req(CohOp::GetM, 5, 0x80)).unwrap();
        let (_, t0) = collect_flits(&mut m, 0, 200, 5);
        m.handle_incoming(coh_req(CohOp::Unblock, 5, 0x80)).unwrap();
        // A racing writer is serialized before the owner's PutM: the
        // home FetchInv-probes node 5, whose responder answers from its
        // in-flight writeback data.
        m.handle_incoming(coh_req(CohOp::GetM, 6, 0x80)).unwrap();
        let (probe, t1) = collect_flits(&mut m, t0 + 1, 200, 1);
        assert_eq!(probe[0].coh_op(), Some(CohOp::FetchInv));
        for seq in 0..4u8 {
            m.handle_incoming(coh_data(5, seq, 0xAA0 + seq as u32)).unwrap();
        }
        let (fill, t2) = collect_flits(&mut m, t1 + 1, 300, 5);
        assert_eq!(fill[4].coh_op(), Some(CohOp::GrantM));
        assert_eq!(fill[0].payload(), 0xAA0, "fill carries the harvested dirty data");
        m.handle_incoming(coh_req(CohOp::Unblock, 6, 0x80)).unwrap();
        // Node 5's original PutM finally arrives: granted and acked, but
        // its stale data must not clobber node 6's ownership.
        m.handle_incoming(coh_req(CohOp::PutM, 5, 0x80)).unwrap();
        let (grant, t3) = collect_flits(&mut m, t2 + 1, 200, 1);
        assert_eq!(grant[0].coh_op(), Some(CohOp::PutMGrant));
        for seq in 0..4u8 {
            m.handle_incoming(coh_data(5, seq, 0xDEAD)).unwrap();
        }
        let (ack, _) = collect_flits(&mut m, t3 + 1, 300, 1);
        assert_eq!(ack[0].coh_op(), Some(CohOp::PutMAck), "evictor still completes");
        assert_eq!(m.debug_read_word(0x80), 0xAA0, "stale PutM data discarded");
        assert_eq!(m.dir.get(&0x80), Some(&DirEntry::Owned(6)), "node 6 still owns the line");
    }

    #[test]
    fn injected_delay_slows_service() {
        use medea_fault::{FaultConfig, ScheduledInjector, PPM};
        let mut m = mk(4);
        m.handle_incoming(req(PacketKind::SingleRead, 2, 0x40)).unwrap();
        let (_, base) = run_until_response(&mut m, 0, 400);

        let mut inj = ScheduledInjector::new(FaultConfig {
            bank_delay_ppm: PPM as u32,
            bank_delay_cycles: 64,
            ..FaultConfig::default()
        });
        let mut slow = mk(4);
        slow.handle_incoming(req(PacketKind::SingleRead, 2, 0x40)).unwrap();
        let mut arrived = None;
        for now in 0..1000 {
            slow.tick_faulted(now, &mut medea_trace::NullSink, &mut inj);
            if slow.pop_outgoing().is_some() {
                arrived = Some(now);
                break;
            }
        }
        let slow_at = arrived.expect("delayed, not lost");
        assert!(slow_at >= base + 64, "delay must defer the response: base {base}, slow {slow_at}");
        assert_eq!(inj.stats().bank_delays, 1);
        assert_eq!(inj.stats().bank_delay_cycles, 64);
    }
}
