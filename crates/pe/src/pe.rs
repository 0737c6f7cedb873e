//! The processing element: L1 cache + execution engine serving one
//! application kernel.
//!
//! The engine is a cycle-level state machine. Each kernel request
//! ([`crate::kernel_if::PeRequest`]) is executed in one or more cycles:
//!
//! * compute and FP requests stall for their cycle cost;
//! * cached accesses cost one cycle per word on a hit; a miss runs the full
//!   §II-B/§II-C machinery — dirty-victim block-write, block-read with
//!   reorder buffer, line fill, retry;
//! * flush/invalidate are the §II-E software-coherence operations;
//! * lock/unlock and uncached accesses go straight to the bridge;
//! * send streams one flit per cycle into the arbiter (the TIE port's peak
//!   rate); receive blocks on the TIE reassembly unit and charges one
//!   cycle per word for the register-to-memory copy.
//!
//! The PE is *blocking*: one architectural operation at a time, like the
//! simple in-order cores the paper argues many-core CMPs are moving to.
//!
//! The kernel is hosted in one of two kinds ([`medea_sim::coroutine`]): a
//! *task* — a future the PE polls in place, on the engine thread, each
//! time it fetches the next request — or a *thread* — a blocking closure
//! on its own OS thread, resumed by a channel rendezvous. The reply→fetch→begin chain in the step loop is
//! the same for both.

use crate::arbiter::{ArbiterConfig, NocArbiter};
use crate::bridge::{BridgeConfig, BridgeOp, BridgeResult, Pif2NocBridge};
use crate::coherence::ProbeResponder;
use crate::fpu::FpModel;
use crate::kernel_if::{f64_to_words, words_to_f64, PeRequest, PeResponse};
use crate::tie::{packetize, TieReceiver};
use medea_cache::{
    line_of, Addr, CacheConfig, CoherenceMode, CoherenceStats, MesiState, SetAssocCache,
    StoreOutcome, WORDS_PER_LINE,
};
use medea_mem::BankMap;
use medea_metrics::PeActivity;
use medea_noc::coord::Topology;
use medea_noc::flit::{CohOp, Flit, PacketKind, SubKind};
use medea_sim::coroutine::{Fetched, KernelHost, KernelPort, TaskPort};
use medea_sim::ids::NodeId;
use medea_sim::stats::Counter;
use medea_sim::Cycle;
use medea_trace::{CacheEventKind, KernelOp, TraceEvent, TraceSink};
use std::collections::{HashMap, VecDeque};
use std::future::Future;

/// The port a thread kernel receives: issue [`PeRequest`]s, block for
/// [`PeResponse`]s.
pub type PePort = KernelPort<PeRequest, PeResponse>;

/// The port a task kernel receives: each [`PeRequest`] is awaited.
pub type PeTaskPort = TaskPort<PeRequest, PeResponse>;

/// Processing-element configuration.
#[derive(Debug, Clone, Copy)]
pub struct PeConfig {
    /// The node this PE occupies.
    pub node: NodeId,
    /// L1 cache geometry and policy.
    pub cache: CacheConfig,
    /// FP-emulation cost model.
    pub fp: FpModel,
    /// NoC-access arbiter build option.
    pub arbiter: ArbiterConfig,
    /// pif2NoC bridge parameters.
    pub bridge: BridgeConfig,
    /// Coherence option: the paper's software DII (default) or the
    /// beyond-the-paper hardware directory MESI (§II-E extension).
    pub coherence: CoherenceMode,
}

/// Per-PE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Kernel requests served.
    pub requests: Counter,
    /// Cycles spent in compute/FP stalls.
    pub compute_cycles: Counter,
    /// Cycles spent executing memory operations (cached + uncached +
    /// coherence + lock).
    pub mem_cycles: Counter,
    /// Cycles spent sending messages (including arbiter back-pressure).
    pub send_cycles: Counter,
    /// Cycles spent blocked in `Recv`.
    pub recv_wait_cycles: Counter,
    /// Message packets sent.
    pub packets_sent: Counter,
    /// Message packets received.
    pub packets_received: Counter,
    /// Messages retransmitted end-to-end by the resilient eMPI layer
    /// (reported via [`PeRequest::FaultNote`]).
    pub retransmits: Counter,
    /// Retransmission requests (NACKs) sent by the resilient eMPI layer.
    pub nacks_sent: Counter,
}

/// Fast-forward hint: what the PE is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// Kernel finished; the PE is permanently idle.
    Done,
    /// Pure time stall: nothing will happen before this cycle.
    At(Cycle),
    /// Waiting on external hardware (NoC, MPMMU, arbiter) — cannot skip.
    External,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemShape {
    LoadWord,
    LoadF64,
    Store,
}

#[derive(Debug, Clone, Copy)]
struct WordOp {
    addr: Addr,
    store: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
enum MemPhase {
    Access,
    VictimWriteback { line: Addr },
    LineFetch { line: Addr },
    WriteThrough,
}

#[derive(Debug, Clone)]
struct MemExec {
    shape: MemShape,
    words: [WordOp; 2],
    count: usize,
    idx: usize,
    acc: [u32; 2],
    phase: MemPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirectShape {
    FlushWriteback,
    UncachedLoad,
    UncachedStore,
    Lock,
    Unlock,
}

#[derive(Debug, Clone)]
enum Exec {
    Fetch,
    /// `act` tags what the stalled cycles *are* for the metrics profiler
    /// (compute burst, memory latency, receive copy); it never affects
    /// execution.
    Stall {
        until: Cycle,
        resp: PeResponse,
        act: PeActivity,
    },
    Mem(MemExec),
    BridgeWait {
        shape: DirectShape,
    },
    Send {
        flits: VecDeque<Flit>,
    },
    Recv {
        from: Option<u8>,
    },
    Done,
}

/// One processing element with its kernel (a task it polls in place or a
/// kernel thread; see [`medea_sim::coroutine`]).
#[derive(Debug)]
pub struct ProcessingElement {
    cfg: PeConfig,
    topo: Topology,
    /// Checked-at-construction application-level source id (the node
    /// index; shared by the bridge and the TIE send path).
    src_id: u8,
    host: KernelHost<PeRequest, PeResponse>,
    cache: SetAssocCache,
    bridge: Pif2NocBridge,
    rx: TieReceiver,
    arbiter: NocArbiter,
    /// Directory-MESI state of resident lines (hardware coherence only;
    /// stays empty under DII). Entries for silently evicted clean lines
    /// go stale, so every read is gated on `cache.probe`.
    mesi: HashMap<Addr, MesiState>,
    /// L1-side probe responder (inert under DII).
    coh: ProbeResponder,
    exec: Exec,
    /// Nesting depth of eMPI collectives, maintained from the zero-cycle
    /// `TraceSpan` markers. Purely observational: it reclassifies blocked
    /// send/recv cycles as collective wait for the metrics profiler.
    /// Stays 0 when markers do not flow (spans and metrics both off).
    collective_depth: u32,
    stats: PeStats,
}

impl ProcessingElement {
    /// Build the PE and spawn its kernel on a thread of its own.
    /// Shared-memory transactions are routed to their owning MPMMU bank
    /// via `banks`.
    pub fn new<F>(cfg: PeConfig, topo: Topology, banks: BankMap, kernel: F) -> Self
    where
        F: FnOnce(PePort) + Send + 'static,
    {
        Self::hosting(cfg, topo, banks, KernelHost::spawn(&cfg.node.to_string(), kernel))
    }

    /// Build the PE around a task kernel: `kernel` receives the task port
    /// and returns the future the PE polls each time it fetches the next
    /// request.
    pub fn new_task<F, Fut>(cfg: PeConfig, topo: Topology, banks: BankMap, kernel: F) -> Self
    where
        F: FnOnce(PeTaskPort) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        Self::hosting(cfg, topo, banks, KernelHost::task(&cfg.node.to_string(), kernel))
    }

    fn hosting(
        cfg: PeConfig,
        topo: Topology,
        banks: BankMap,
        host: KernelHost<PeRequest, PeResponse>,
    ) -> Self {
        let src_id = u8::try_from(cfg.node.index())
            .expect("node index exceeds the 8-bit src-id budget (at most 256 nodes)");
        ProcessingElement {
            cfg,
            topo,
            src_id,
            host,
            cache: SetAssocCache::new(cfg.cache),
            bridge: Pif2NocBridge::new(banks, src_id, cfg.bridge),
            rx: TieReceiver::new(),
            arbiter: NocArbiter::new(cfg.arbiter),
            mesi: HashMap::new(),
            coh: ProbeResponder::new(),
            exec: Exec::Fetch,
            collective_depth: 0,
            stats: PeStats::default(),
        }
    }

    /// Whether the hardware directory-MESI option is enabled.
    fn coherent(&self) -> bool {
        self.cfg.coherence.is_hardware()
    }

    /// MESI state of `line`, residency-gated: a stale map entry left by a
    /// silent clean eviction must never be read.
    fn line_state(&self, line: Addr) -> Option<MesiState> {
        if self.cache.probe(line) {
            self.mesi.get(&line).copied()
        } else {
            None
        }
    }

    /// The node this PE occupies.
    pub const fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// Execution statistics.
    pub const fn stats(&self) -> &PeStats {
        &self.stats
    }

    /// L1 cache statistics.
    pub fn cache_stats(&self) -> &medea_cache::CacheStats {
        self.cache.stats()
    }

    /// TIE receiver statistics.
    pub fn tie_stats(&self) -> &crate::tie::TieStats {
        self.rx.stats()
    }

    /// Bridge statistics.
    pub fn bridge_stats(&self) -> &crate::bridge::BridgeStats {
        self.bridge.stats()
    }

    /// L1-side coherence statistics (all-zero under DII).
    pub const fn coherence_stats(&self) -> &CoherenceStats {
        self.coh.stats()
    }

    /// Whether the kernel has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.exec, Exec::Done)
    }

    /// What this PE is spending the current cycle on, for the metrics
    /// profiler. Blocked send/recv inside an eMPI collective (tracked via
    /// the zero-cycle span markers) reports as
    /// [`PeActivity::CollectiveWait`]; a PE between requests (`Fetch`)
    /// reports compute, since fetch chains consume no simulated cycles.
    pub fn activity(&self) -> PeActivity {
        let in_collective = self.collective_depth > 0;
        match &self.exec {
            Exec::Done => PeActivity::Done,
            Exec::Fetch => PeActivity::Compute,
            Exec::Stall { act, .. } => {
                if *act == PeActivity::RecvWait && in_collective {
                    PeActivity::CollectiveWait
                } else {
                    *act
                }
            }
            Exec::Mem(_) => PeActivity::Mem,
            Exec::BridgeWait { shape } => {
                if *shape == DirectShape::Lock {
                    PeActivity::LockWait
                } else {
                    PeActivity::Mem
                }
            }
            Exec::Send { .. } => {
                if in_collective {
                    PeActivity::CollectiveWait
                } else {
                    PeActivity::Send
                }
            }
            Exec::Recv { .. } => {
                if in_collective {
                    PeActivity::CollectiveWait
                } else {
                    PeActivity::RecvWait
                }
            }
        }
    }

    /// Flits queued in the NoC-access arbiter (metrics sampling hook).
    pub fn arbiter_occupancy(&self) -> usize {
        self.arbiter.occupancy()
    }

    /// Packets buffered in the TIE receiver — completed plus still
    /// assembling. This backlog is the engine-visible face of the eMPI
    /// credit window: the protocol sizes its credits so this never grows
    /// beyond the receiver's buffer budget.
    pub fn rx_backlog(&self) -> usize {
        self.rx.pending_packets() + self.rx.partial_packets()
    }

    /// Whether the PE is blocked waiting for an incoming message with
    /// nothing of its own in flight and no satisfying packet queued (the
    /// deadlock-detection predicate: if every live PE is in this state and
    /// the fabric and MPMMU are drained, no message can ever arrive).
    pub fn is_recv_blocked(&self) -> bool {
        match &self.exec {
            Exec::Recv { from } => {
                !self.rx.has_packet(*from)
                    && !self.rx.has_partials()
                    && self.arbiter.occupancy() == 0
                    && !self.bridge.has_output()
                    && self.coh.is_idle()
            }
            _ => false,
        }
    }

    /// If ticking this PE is provably a no-op until a known cycle, that
    /// cycle (`Cycle::MAX` for a retired PE) — the per-PE wake-scheduling
    /// hook of the cycle engine.
    ///
    /// Eligibility is deliberately strict: the engine may skip `tick`
    /// calls only while the PE sits in a pure time stall (or is done)
    /// *and* its bridge and arbiter are completely drained, because then
    /// a tick performs no state change and no statistics update, and the
    /// PE cannot inject traffic. Message deliveries to a sleeping PE only
    /// buffer into the TIE receiver and never shorten a time stall, so a
    /// computed wake time stays valid until the next tick.
    pub fn sleep_until(&self) -> Option<Cycle> {
        let drained = self.arbiter.occupancy() == 0 && !self.bridge.is_busy() && self.coh.is_idle();
        match &self.exec {
            Exec::Stall { until, .. } if drained => Some(*until),
            Exec::Done if drained => Some(Cycle::MAX),
            _ => None,
        }
    }

    /// Whether this PE waits only for a flit — the parking hook of the
    /// cycle engine. Until a flit is delivered to it, every tick would
    /// change nothing but one wait counter, which
    /// [`credit_parked`](Self::credit_parked) makes up for on waking.
    ///
    /// That holds with an empty arbiter and an idle probe responder, a
    /// bridge that [awaits a flit](Pif2NocBridge::awaits_flit), and an
    /// engine in one of three states: a cached access outside its access
    /// phase (victim writeback, line fetch or write-through in flight), a
    /// direct bridge transaction, or a `Recv` with no matching completed
    /// packet. Only a delivery can change any of them.
    pub fn awaits_flit(&self) -> bool {
        if self.arbiter.occupancy() != 0 || !self.coh.is_idle() || !self.bridge.awaits_flit() {
            return false;
        }
        match &self.exec {
            Exec::Mem(m) => !matches!(m.phase, MemPhase::Access),
            Exec::BridgeWait { .. } => true,
            Exec::Recv { from } => !self.rx.has_packet(*from),
            _ => false,
        }
    }

    /// Add what `ticks` skipped ticks of a PE that
    /// [awaits a flit](Self::awaits_flit) would have counted: one
    /// `mem_cycles` per tick while a memory operation waits, one
    /// `recv_wait_cycles` while a `Recv` blocks.
    pub fn credit_parked(&mut self, ticks: Cycle) {
        match &self.exec {
            Exec::Mem(_) | Exec::BridgeWait { .. } => self.stats.mem_cycles.add(ticks),
            Exec::Recv { .. } => self.stats.recv_wait_cycles.add(ticks),
            _ => debug_assert_eq!(ticks, 0, "only a PE that awaits a flit is parked"),
        }
    }

    /// Fast-forward hint (see [`Wakeup`]).
    pub fn wakeup(&self) -> Wakeup {
        // Pending probe work overrides every exec-state hint: a "done" or
        // stalled PE must still answer the directory.
        if !self.coh.is_idle() {
            return Wakeup::External;
        }
        match &self.exec {
            Exec::Done => Wakeup::Done,
            Exec::Stall { until, .. } => Wakeup::At(*until),
            Exec::Mem(_) | Exec::BridgeWait { .. } => {
                if self.arbiter.occupancy() == 0 && !self.bridge.has_output() {
                    match self.bridge.backoff_until() {
                        Some(t) => Wakeup::At(t),
                        None => Wakeup::External,
                    }
                } else {
                    Wakeup::External
                }
            }
            Exec::Send { .. } | Exec::Recv { .. } | Exec::Fetch => Wakeup::External,
        }
    }

    /// Deliver a flit ejected from the NoC at this node, reporting
    /// reorder-buffer slips (block-read data arriving out of address
    /// order) to `sink`.
    pub fn deliver<S: TraceSink>(&mut self, flit: Flit, now: Cycle, sink: &mut S) {
        // Coherence *requests* at a PE are directory probes for the
        // responder; coherence data/acks are fill traffic for the bridge.
        if flit.kind() == PacketKind::Coherence && flit.sub() == SubKind::Request {
            self.coh.push_probe(flit);
            return;
        }
        if flit.kind().is_shared_memory() {
            if S::ACTIVE {
                let before = self.bridge.stats().out_of_order_flits.get();
                self.bridge.handle_response(flit, now);
                if self.bridge.stats().out_of_order_flits.get() > before {
                    sink.record(now, TraceEvent::ReorderSlip { node: self.src_id as u16 });
                }
            } else {
                self.bridge.handle_response(flit, now);
            }
        } else {
            self.rx.deliver(flit);
        }
    }

    /// Pick a flit to inject into the router this cycle, if any.
    pub fn select_inject(&mut self) -> Option<Flit> {
        self.arbiter.select()
    }

    /// Put back a flit the router refused.
    pub fn restore_inject(&mut self, flit: Flit) {
        self.arbiter.restore(flit);
    }

    /// Advance the PE by one cycle, reporting cache accesses, coherence
    /// operations and packet-span events to `sink`. With an inactive sink
    /// every emission site constant-folds away.
    pub fn tick<S: TraceSink>(&mut self, now: Cycle, sink: &mut S) {
        self.bridge.tick(now);
        // One queued directory probe served per cycle, even while the
        // execution engine is stalled or done (provably a no-op under DII:
        // the responder's queues stay empty forever).
        self.coh.service(&self.topo, self.src_id, &mut self.cache, &mut self.mesi);
        // Move at most one shared-memory flit into the arbiter per cycle
        // (the bridge's output latch drains at link rate); the bridge's
        // own transaction outranks probe replies.
        if self.bridge.has_output() && self.arbiter.can_accept_bridge() {
            let flit = self.bridge.take_output().expect("has_output");
            self.arbiter.accept_bridge(flit);
        } else if self.coh.has_out() && self.arbiter.can_accept_bridge() {
            let flit = self.coh.pop_out().expect("has_out");
            self.arbiter.accept_bridge(flit);
        }
        self.step(now, sink);
    }

    fn step<S: TraceSink>(&mut self, now: Cycle, sink: &mut S) {
        // A tick may chain reply→fetch→begin so back-to-back operations
        // lose no cycles; every iteration either blocks or consumes a
        // kernel request, so the loop terminates.
        loop {
            let continue_loop = match std::mem::replace(&mut self.exec, Exec::Fetch) {
                Exec::Done => {
                    self.exec = Exec::Done;
                    false
                }
                Exec::Fetch => match self.host.fetch() {
                    Fetched::Finished => {
                        // Surface kernel panics on the engine thread:
                        // swallowing one here would turn an eMPI protocol
                        // diagnostic into a baffling downstream deadlock.
                        assert!(
                            !self.host.join(),
                            "kernel on {} panicked; see the kernel's panic message above",
                            self.cfg.node
                        );
                        self.exec = Exec::Done;
                        false
                    }
                    Fetched::Request(PeRequest::TraceSpan { op, begin }) => {
                        // Markers consume zero simulated cycles and update
                        // no statistic (not even `requests`): the run must
                        // be bit-identical whether they flow or not. The
                        // collective-depth tracker is equally invisible —
                        // it only relabels wait cycles for the profiler.
                        if op.is_collective() {
                            if begin {
                                self.collective_depth += 1;
                            } else {
                                self.collective_depth = self.collective_depth.saturating_sub(1);
                            }
                        }
                        if S::ACTIVE {
                            let node = self.src_id as u16;
                            sink.record(
                                now,
                                if begin {
                                    TraceEvent::SpanBegin { node, op }
                                } else {
                                    TraceEvent::SpanEnd { node, op }
                                },
                            );
                        }
                        self.host.reply(PeResponse::Unit);
                        true
                    }
                    Fetched::Request(PeRequest::FaultNote { retransmits, nacks }) => {
                        // Resilience notes follow the TraceSpan contract:
                        // zero simulated cycles, dedicated counters only,
                        // so fault-free runs stay bit-identical.
                        self.stats.retransmits.add(retransmits as u64);
                        self.stats.nacks_sent.add(nacks as u64);
                        self.host.reply(PeResponse::Unit);
                        true
                    }
                    Fetched::Request(req) => {
                        self.stats.requests.inc();
                        self.begin(req, now, sink);
                        false
                    }
                },
                Exec::Stall { until, resp, act } => {
                    if now >= until {
                        self.host.reply(resp);
                        self.exec = Exec::Fetch;
                        true
                    } else {
                        self.exec = Exec::Stall { until, resp, act };
                        false
                    }
                }
                Exec::Mem(m) => {
                    self.stats.mem_cycles.inc();
                    self.step_mem(m, now, sink)
                }
                Exec::BridgeWait { shape } => {
                    self.stats.mem_cycles.inc();
                    match self.bridge.take_result() {
                        Some(result) => {
                            let resp = Self::map_direct(shape, result);
                            self.host.reply(resp);
                            self.exec = Exec::Fetch;
                            true
                        }
                        None => {
                            self.exec = Exec::BridgeWait { shape };
                            false
                        }
                    }
                }
                Exec::Send { mut flits } => {
                    self.stats.send_cycles.inc();
                    if self.arbiter.can_accept_message() {
                        if let Some(flit) = flits.pop_front() {
                            self.arbiter.accept_message(flit);
                        }
                    }
                    if flits.is_empty() {
                        self.stats.packets_sent.inc();
                        if S::ACTIVE {
                            let node = self.src_id as u16;
                            sink.record(now, TraceEvent::SpanEnd { node, op: KernelOp::Send });
                        }
                        self.host.reply(PeResponse::Unit);
                        self.exec = Exec::Fetch;
                        true
                    } else {
                        self.exec = Exec::Send { flits };
                        false
                    }
                }
                Exec::Recv { from } => match self.rx.take_packet(from) {
                    Some(packet) => {
                        self.stats.packets_received.inc();
                        if S::ACTIVE {
                            let node = self.src_id as u16;
                            sink.record(now, TraceEvent::SpanEnd { node, op: KernelOp::Recv });
                        }
                        // One cycle per word for the seq-indexed copy into
                        // local memory (Fig. 2-b).
                        let cost = packet.data.len() as Cycle;
                        self.exec = Exec::Stall {
                            until: now + cost,
                            resp: PeResponse::Packet(packet),
                            act: PeActivity::RecvWait,
                        };
                        false
                    }
                    None => {
                        self.stats.recv_wait_cycles.inc();
                        self.exec = Exec::Recv { from };
                        false
                    }
                },
            };
            if !continue_loop {
                break;
            }
        }
    }

    fn begin<S: TraceSink>(&mut self, req: PeRequest, now: Cycle, sink: &mut S) {
        let fp = self.cfg.fp;
        let node = self.src_id as u16;
        let stall =
            |until: Cycle, resp: PeResponse, act: PeActivity| Exec::Stall { until, resp, act };
        self.exec = match req {
            PeRequest::Compute { cycles } => {
                // Saturating: an unbounded compute sleeps until the cycle
                // limit stops the run.
                let c = cycles.max(1);
                self.stats.compute_cycles.add(c);
                stall(now.saturating_add(c), PeResponse::Unit, PeActivity::Compute)
            }
            PeRequest::FpAdd { a, b } => {
                self.stats.compute_cycles.add(fp.add_cycles());
                stall(now + fp.add_cycles(), PeResponse::F64(a + b), PeActivity::Compute)
            }
            PeRequest::FpSub { a, b } => {
                self.stats.compute_cycles.add(fp.add_cycles());
                stall(now + fp.add_cycles(), PeResponse::F64(a - b), PeActivity::Compute)
            }
            PeRequest::FpMul { a, b } => {
                self.stats.compute_cycles.add(fp.mul_cycles());
                stall(now + fp.mul_cycles(), PeResponse::F64(a * b), PeActivity::Compute)
            }
            PeRequest::FpDiv { a, b } => {
                self.stats.compute_cycles.add(fp.div_cycles());
                stall(now + fp.div_cycles(), PeResponse::F64(a / b), PeActivity::Compute)
            }
            PeRequest::LoadWord { addr } => Exec::Mem(MemExec {
                shape: MemShape::LoadWord,
                words: [WordOp { addr, store: None }; 2],
                count: 1,
                idx: 0,
                acc: [0; 2],
                phase: MemPhase::Access,
            }),
            PeRequest::StoreWord { addr, value } => Exec::Mem(MemExec {
                shape: MemShape::Store,
                words: [WordOp { addr, store: Some(value) }; 2],
                count: 1,
                idx: 0,
                acc: [0; 2],
                phase: MemPhase::Access,
            }),
            PeRequest::LoadF64 { addr } => Exec::Mem(MemExec {
                shape: MemShape::LoadF64,
                words: [WordOp { addr, store: None }, WordOp { addr: addr + 4, store: None }],
                count: 2,
                idx: 0,
                acc: [0; 2],
                phase: MemPhase::Access,
            }),
            PeRequest::StoreF64 { addr, value } => {
                let (lo, hi) = f64_to_words(value);
                Exec::Mem(MemExec {
                    shape: MemShape::Store,
                    words: [
                        WordOp { addr, store: Some(lo) },
                        WordOp { addr: addr + 4, store: Some(hi) },
                    ],
                    count: 2,
                    idx: 0,
                    acc: [0; 2],
                    phase: MemPhase::Access,
                })
            }
            PeRequest::FlushLine { addr } => match self.cache.flush_line(addr) {
                medea_cache::FlushOutcome::Clean => {
                    if S::ACTIVE {
                        let kind = CacheEventKind::Flush;
                        sink.record(now, TraceEvent::CacheAccess { node, kind, addr });
                    }
                    stall(now + 1, PeResponse::Unit, PeActivity::Mem)
                }
                medea_cache::FlushOutcome::Writeback(v) => {
                    if S::ACTIVE {
                        let kind = CacheEventKind::FlushWriteback;
                        sink.record(now, TraceEvent::CacheAccess { node, kind, addr });
                    }
                    // Under MESI a dirty line means we own it; a plain
                    // block write refreshes memory without touching the
                    // directory, so the resident copy downgrades M→E.
                    if self.coherent() {
                        self.mesi.insert(v.line, MesiState::Exclusive);
                    }
                    self.bridge.start(BridgeOp::BlockWrite { line: v.line, data: v.data });
                    Exec::BridgeWait { shape: DirectShape::FlushWriteback }
                }
            },
            PeRequest::InvalidateLine { addr } => {
                self.cache.invalidate_line(addr);
                // A deliberate discard: the directory may keep treating us
                // as owner/sharer, which the conservative probe-ack rules
                // make harmless.
                self.mesi.remove(&line_of(addr));
                if S::ACTIVE {
                    let kind = CacheEventKind::Invalidate;
                    sink.record(now, TraceEvent::CacheAccess { node, kind, addr });
                }
                stall(now + 1, PeResponse::Unit, PeActivity::Mem)
            }
            PeRequest::UncachedLoad { addr } => {
                self.bridge.start(BridgeOp::SingleRead { addr });
                Exec::BridgeWait { shape: DirectShape::UncachedLoad }
            }
            PeRequest::UncachedStore { addr, value } => {
                self.bridge.start(BridgeOp::SingleWrite { addr, value });
                Exec::BridgeWait { shape: DirectShape::UncachedStore }
            }
            PeRequest::Lock { addr } => {
                self.bridge.start(BridgeOp::Lock { addr });
                Exec::BridgeWait { shape: DirectShape::Lock }
            }
            PeRequest::Unlock { addr } => {
                self.bridge.start(BridgeOp::Unlock { addr });
                Exec::BridgeWait { shape: DirectShape::Unlock }
            }
            PeRequest::Send { dest, payload } => {
                if S::ACTIVE {
                    sink.record(now, TraceEvent::SpanBegin { node, op: KernelOp::Send });
                }
                let flits = packetize(self.topo.coord_of(dest), self.src_id, &payload);
                Exec::Send { flits: flits.into() }
            }
            PeRequest::Recv { from } => {
                if S::ACTIVE {
                    sink.record(now, TraceEvent::SpanBegin { node, op: KernelOp::Recv });
                }
                Exec::Recv { from }
            }
            PeRequest::TryRecv { from } => {
                let packet = self.rx.take_packet(from);
                let cost = 1 + packet.as_ref().map(|p| p.data.len() as Cycle).unwrap_or(0);
                if packet.is_some() {
                    self.stats.packets_received.inc();
                }
                stall(now + cost, PeResponse::MaybePacket(packet), PeActivity::RecvWait)
            }
            PeRequest::Now => stall(now + 1, PeResponse::Time(now), PeActivity::Compute),
            PeRequest::TraceSpan { .. } | PeRequest::FaultNote { .. } => {
                unreachable!("zero-cycle notes are consumed in the fetch loop")
            }
        };
    }

    fn map_direct(shape: DirectShape, result: BridgeResult) -> PeResponse {
        match (shape, result) {
            (DirectShape::FlushWriteback, BridgeResult::WriteDone) => PeResponse::Unit,
            (DirectShape::UncachedLoad, BridgeResult::Word(w)) => PeResponse::Word(w),
            (DirectShape::UncachedStore, BridgeResult::WriteDone) => PeResponse::Unit,
            (DirectShape::Lock, BridgeResult::LockGranted) => PeResponse::Unit,
            (DirectShape::Unlock, BridgeResult::UnlockDone) => PeResponse::Unit,
            (DirectShape::Unlock, BridgeResult::UnlockRejected) => {
                panic!("unlock rejected by MPMMU: kernel released a lock it does not hold")
            }
            (shape, result) => {
                panic!("bridge returned {result:?} while PE awaited {shape:?}")
            }
        }
    }

    /// Process one cycle of a cached memory operation. Returns whether the
    /// step loop should continue (a reply was issued).
    fn step_mem<S: TraceSink>(&mut self, mut m: MemExec, now: Cycle, sink: &mut S) -> bool {
        let node = self.src_id as u16;
        let cache_event = |sink: &mut S, kind: CacheEventKind, addr: Addr| {
            if S::ACTIVE {
                sink.record(now, TraceEvent::CacheAccess { node, kind, addr });
            }
        };
        match m.phase {
            MemPhase::Access => {
                let word = m.words[m.idx];
                match word.store {
                    None => match self.cache.load_word(word.addr) {
                        Some(v) => {
                            cache_event(sink, CacheEventKind::LoadHit, word.addr);
                            m.acc[m.idx] = v;
                            m.idx += 1;
                            return self.word_done(m, now);
                        }
                        None => {
                            cache_event(sink, CacheEventKind::LoadMiss, word.addr);
                            self.start_allocate(&mut m, word.addr);
                        }
                    },
                    Some(value) => {
                        // MESI: a store may only be absorbed with write
                        // permission (M or E). A hit on a Shared line must
                        // first drop the local copy and refetch through
                        // `GetM` so the home invalidates the other sharers.
                        if self.coherent()
                            && self.line_state(line_of(word.addr)) == Some(MesiState::Shared)
                        {
                            cache_event(sink, CacheEventKind::StoreMiss, word.addr);
                            self.cache.invalidate_line(word.addr);
                            self.mesi.remove(&line_of(word.addr));
                            self.start_allocate(&mut m, word.addr);
                            self.exec = Exec::Mem(m);
                            return false;
                        }
                        match self.cache.store_word(word.addr, value) {
                            StoreOutcome::Absorbed => {
                                cache_event(sink, CacheEventKind::StoreHit, word.addr);
                                if self.coherent() {
                                    // Silent E→M upgrade (or M staying M): the
                                    // directory already records us as owner.
                                    self.mesi.insert(line_of(word.addr), MesiState::Modified);
                                }
                                m.idx += 1;
                                return self.word_done(m, now);
                            }
                            StoreOutcome::WriteThrough => {
                                cache_event(sink, CacheEventKind::StoreThrough, word.addr);
                                self.bridge.start(BridgeOp::SingleWrite { addr: word.addr, value });
                                m.phase = MemPhase::WriteThrough;
                            }
                            StoreOutcome::NeedsAllocate => {
                                cache_event(sink, CacheEventKind::StoreMiss, word.addr);
                                self.start_allocate(&mut m, word.addr);
                            }
                        }
                    }
                }
                self.exec = Exec::Mem(m);
                false
            }
            MemPhase::VictimWriteback { line } => {
                if let Some(result) = self.bridge.take_result() {
                    debug_assert_eq!(result, BridgeResult::WriteDone);
                    if self.coherent() {
                        // PutM handshake done: the home owns the victim's
                        // data now, so the race window closes.
                        self.coh.end_writeback();
                        self.start_coh_fetch(&mut m, line);
                    } else {
                        self.bridge.start(BridgeOp::BlockRead { line });
                        m.phase = MemPhase::LineFetch { line };
                    }
                }
                self.exec = Exec::Mem(m);
                false
            }
            MemPhase::LineFetch { line } => {
                if let Some(result) = self.bridge.take_result() {
                    let data = match result {
                        BridgeResult::Line(d) => d,
                        BridgeResult::CohLine { data, grant } => {
                            let state = match grant {
                                CohOp::GrantM => MesiState::Modified,
                                CohOp::GrantE => MesiState::Exclusive,
                                _ => MesiState::Shared,
                            };
                            self.mesi.insert(line, state);
                            // Release the home: it stays blocked on this
                            // line until our Unblock crosses the NoC, so no
                            // probe can race the fill-install-retry window.
                            self.coh.push_out(Flit::coherence(
                                self.bridge.home_coord(line),
                                SubKind::Request,
                                CohOp::Unblock,
                                self.src_id,
                                line,
                            ));
                            data
                        }
                        other => panic!("line fetch returned {other:?}"),
                    };
                    self.cache.fill_line(line, data);
                    m.phase = MemPhase::Access; // retry: guaranteed hit
                }
                self.exec = Exec::Mem(m);
                false
            }
            MemPhase::WriteThrough => {
                if let Some(result) = self.bridge.take_result() {
                    debug_assert_eq!(result, BridgeResult::WriteDone);
                    m.idx += 1;
                    return self.word_done(m, now);
                }
                self.exec = Exec::Mem(m);
                false
            }
        }
    }

    fn start_allocate(&mut self, m: &mut MemExec, addr: Addr) {
        let line = line_of(addr);
        match self.cache.evict_for(line) {
            Some(victim) if self.coherent() => {
                // Dirty eviction under MESI: give ownership back with PutM,
                // and keep the data answerable in the responder's buffer in
                // case a FetchInv races the handshake.
                self.mesi.remove(&victim.line);
                self.coh.begin_writeback(victim.line, victim.data);
                self.bridge.start(BridgeOp::CohPutM { line: victim.line, data: victim.data });
                m.phase = MemPhase::VictimWriteback { line };
            }
            Some(victim) => {
                self.bridge.start(BridgeOp::BlockWrite { line: victim.line, data: victim.data });
                m.phase = MemPhase::VictimWriteback { line };
            }
            None if self.coherent() => self.start_coh_fetch(m, line),
            None => {
                self.bridge.start(BridgeOp::BlockRead { line });
                m.phase = MemPhase::LineFetch { line };
            }
        }
    }

    /// Begin the coherent fetch of `line`: `GetM` when the pending word is
    /// a store (write permission), `GetS` otherwise.
    fn start_coh_fetch(&mut self, m: &mut MemExec, line: Addr) {
        let op = if m.words[m.idx].store.is_some() {
            BridgeOp::CohGetM { line }
        } else {
            BridgeOp::CohGetS { line }
        };
        self.bridge.start(op);
        m.phase = MemPhase::LineFetch { line };
    }

    /// A word finished; either continue with the next word or reply.
    fn word_done(&mut self, mut m: MemExec, _now: Cycle) -> bool {
        if m.idx < m.count {
            m.phase = MemPhase::Access;
            self.exec = Exec::Mem(m);
            return false;
        }
        let resp = match m.shape {
            MemShape::LoadWord => PeResponse::Word(m.acc[0]),
            MemShape::LoadF64 => PeResponse::F64(words_to_f64(m.acc[0], m.acc[1])),
            MemShape::Store => PeResponse::Unit,
        };
        self.host.reply(resp);
        self.exec = Exec::Fetch;
        true
    }

    const _ASSERT_LINE_IS_FOUR_WORDS: () = assert!(WORDS_PER_LINE == 4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpu::MulOption;
    use medea_cache::CachePolicy;
    use medea_noc::coord::Coord;
    use medea_trace::NullSink;

    fn cfg(node: u16) -> PeConfig {
        PeConfig {
            node: NodeId::new(node),
            cache: CacheConfig::new(2048, CachePolicy::WriteBack).unwrap(),
            fp: FpModel::new(MulOption::MulHigh),
            arbiter: ArbiterConfig::default(),
            bridge: BridgeConfig::default(),
            coherence: CoherenceMode::Dii,
        }
    }

    fn topo() -> Topology {
        Topology::paper_4x4()
    }

    /// The paper's single-bank map: everything at node 0.
    fn bank0() -> BankMap {
        BankMap::single(topo(), NodeId::new(0))
    }

    /// Tick `pe` until it is done, answering bridge traffic with a trivial
    /// "magic memory" that reflects flits back instantly (zero-latency
    /// MPMMU). Returns elapsed cycles.
    fn run_with_magic_memory(pe: &mut ProcessingElement, limit: Cycle) -> Cycle {
        use medea_noc::flit::{PacketKind, SubKind};
        let mut mem = std::collections::HashMap::<u32, u32>::new();
        // (kind, base address, words expected, words received so far)
        type PendingWrite = (PacketKind, u32, usize, Vec<(u8, u32)>);
        let mut pending_write: Option<PendingWrite> = None;
        for now in 0..limit {
            pe.tick(now, &mut NullSink);
            // Collect everything the PE wants to send and answer at once —
            // an infinitely fast memory, fine for engine unit tests.
            while let Some(flit) = pe.select_inject() {
                match (flit.kind(), flit.sub()) {
                    (PacketKind::Message, _) => { /* loopback tests deliver manually */ }
                    (PacketKind::SingleRead, SubKind::Request) => {
                        let v = mem.get(&flit.payload()).copied().unwrap_or(0);
                        let resp = Flit::new(
                            flit.dest(),
                            PacketKind::SingleRead,
                            SubKind::Data,
                            0,
                            0,
                            0,
                            v,
                        );
                        pe.deliver(resp, now, &mut NullSink);
                    }
                    (PacketKind::BlockRead, SubKind::Request) => {
                        let line = flit.payload() & !0xF;
                        for i in 0..4u32 {
                            let v = mem.get(&(line + i * 4)).copied().unwrap_or(0);
                            let resp = Flit::new(
                                flit.dest(),
                                PacketKind::BlockRead,
                                SubKind::Data,
                                i as u8,
                                2,
                                0,
                                v,
                            );
                            pe.deliver(resp, now, &mut NullSink);
                        }
                    }
                    (PacketKind::SingleWrite | PacketKind::BlockWrite, SubKind::Request) => {
                        let expect = if flit.kind() == PacketKind::SingleWrite { 1 } else { 4 };
                        pending_write = Some((flit.kind(), flit.payload(), expect, Vec::new()));
                        let grant = Flit::new(flit.dest(), flit.kind(), SubKind::Ack, 0, 0, 0, 0);
                        pe.deliver(grant, now, &mut NullSink);
                    }
                    (_, SubKind::Data) => {
                        let (kind, addr, expect, ref mut words) =
                            pending_write.as_mut().expect("write in flight");
                        words.push((flit.seq(), flit.payload()));
                        if words.len() == *expect {
                            let base =
                                if *kind == PacketKind::SingleWrite { *addr } else { *addr & !0xF };
                            for (seq, w) in words.iter() {
                                mem.insert(base + *seq as u32 * 4, *w);
                            }
                            let ack = Flit::new(flit.dest(), *kind, SubKind::Ack, 1, 0, 0, 0);
                            let kind_done = *kind;
                            let _ = kind_done;
                            pending_write = None;
                            pe.deliver(ack, now, &mut NullSink);
                        }
                    }
                    (PacketKind::Lock, SubKind::Request) => {
                        let ack =
                            Flit::new(flit.dest(), PacketKind::Lock, SubKind::Ack, 0, 0, 0, 0);
                        pe.deliver(ack, now, &mut NullSink);
                    }
                    (PacketKind::Unlock, SubKind::Request) => {
                        let ack =
                            Flit::new(flit.dest(), PacketKind::Unlock, SubKind::Ack, 0, 0, 0, 0);
                        pe.deliver(ack, now, &mut NullSink);
                    }
                    other => panic!("magic memory got {other:?}"),
                }
            }
            if pe.is_done() {
                return now;
            }
        }
        panic!("kernel did not finish within {limit} cycles");
    }

    #[test]
    fn compute_costs_its_cycles() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::Compute { cycles: 50 }).unwrap();
        });
        let t = run_with_magic_memory(&mut pe, 200);
        assert!((50..=55).contains(&t), "compute(50) took {t}");
        assert_eq!(pe.stats().compute_cycles.get(), 50);
    }

    #[test]
    fn fp_costs_match_model() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            match port.call(PeRequest::FpAdd { a: 1.5, b: 2.25 }).unwrap() {
                PeResponse::F64(v) => assert_eq!(v, 3.75),
                other => panic!("{other:?}"),
            }
            match port.call(PeRequest::FpMul { a: 3.0, b: 4.0 }).unwrap() {
                PeResponse::F64(v) => assert_eq!(v, 12.0),
                other => panic!("{other:?}"),
            }
        });
        let t = run_with_magic_memory(&mut pe, 200);
        // 19 + 26 plus small fetch overheads.
        assert!((45..=50).contains(&t), "fp pair took {t}");
    }

    #[test]
    fn store_then_load_roundtrips_through_cache() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::StoreF64 { addr: 0x100, value: 6.5 }).unwrap();
            match port.call(PeRequest::LoadF64 { addr: 0x100 }).unwrap() {
                PeResponse::F64(v) => assert_eq!(v, 6.5),
                other => panic!("{other:?}"),
            }
        });
        run_with_magic_memory(&mut pe, 2000);
        assert!(pe.cache_stats().load_hits.get() >= 2);
    }

    #[test]
    fn wb_miss_goes_through_memory() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            match port.call(PeRequest::LoadWord { addr: 0x40 }).unwrap() {
                PeResponse::Word(w) => assert_eq!(w, 0),
                other => panic!("{other:?}"),
            }
            // Second load of the same line: hit, no new bridge traffic.
            port.call(PeRequest::LoadWord { addr: 0x44 }).unwrap();
        });
        run_with_magic_memory(&mut pe, 2000);
        assert_eq!(pe.cache_stats().load_misses.get(), 1);
        // Two hits: the post-fill retry of the missing word plus 0x44.
        assert_eq!(pe.cache_stats().load_hits.get(), 2);
        assert_eq!(pe.bridge_stats().transactions.get(), 1);
    }

    #[test]
    fn wt_store_writes_through_every_time() {
        let mut c = cfg(1);
        c.cache = CacheConfig::new(2048, CachePolicy::WriteThrough).unwrap();
        let mut pe = ProcessingElement::new(c, topo(), bank0(), |port: PePort| {
            for i in 0..4u32 {
                port.call(PeRequest::StoreWord { addr: 0x80, value: i }).unwrap();
            }
        });
        run_with_magic_memory(&mut pe, 4000);
        // 4 stores = 4 single-write transactions.
        assert_eq!(pe.bridge_stats().transactions.get(), 4);
    }

    #[test]
    fn flush_writes_dirty_line_back() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::StoreWord { addr: 0x200, value: 7 }).unwrap();
            port.call(PeRequest::FlushLine { addr: 0x200 }).unwrap();
            // Clean flush afterwards is free of traffic.
            port.call(PeRequest::FlushLine { addr: 0x200 }).unwrap();
        });
        run_with_magic_memory(&mut pe, 4000);
        assert_eq!(pe.cache_stats().writebacks.get(), 1);
    }

    #[test]
    fn lock_unlock_sequence() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::Lock { addr: 0x300 }).unwrap();
            port.call(PeRequest::Unlock { addr: 0x300 }).unwrap();
        });
        run_with_magic_memory(&mut pe, 2000);
        assert_eq!(pe.bridge_stats().transactions.get(), 2);
    }

    #[test]
    fn message_loopback_via_manual_delivery() {
        // Kernel sends to itself; the test delivers the flits back.
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::Send { dest: NodeId::new(1), payload: vec![5, 6, 7] }).unwrap();
            match port.call(PeRequest::Recv { from: None }).unwrap() {
                PeResponse::Packet(p) => {
                    assert_eq!(&p.data[..3], &[5, 6, 7]);
                    assert_eq!(p.src, 1);
                }
                other => panic!("{other:?}"),
            }
        });
        for now in 0..500 {
            pe.tick(now, &mut NullSink);
            while let Some(f) = pe.select_inject() {
                pe.deliver(f, now, &mut NullSink); // loop back
            }
            if pe.is_done() {
                assert_eq!(pe.stats().packets_sent.get(), 1);
                assert_eq!(pe.stats().packets_received.get(), 1);
                return;
            }
        }
        panic!("loopback did not finish");
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            match port.call(PeRequest::TryRecv { from: None }).unwrap() {
                PeResponse::MaybePacket(None) => {}
                other => panic!("{other:?}"),
            }
        });
        run_with_magic_memory(&mut pe, 100);
    }

    #[test]
    fn now_reports_cycle() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::Compute { cycles: 30 }).unwrap();
            match port.call(PeRequest::Now).unwrap() {
                PeResponse::Time(t) => assert!(t >= 30, "clock must have advanced, got {t}"),
                other => panic!("{other:?}"),
            }
        });
        run_with_magic_memory(&mut pe, 200);
    }

    /// Every piece of PE state a tick can touch (the kernel thread's
    /// handle aside), for comparing two PEs.
    fn snapshot(pe: &ProcessingElement) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {}",
            pe.exec,
            pe.stats,
            pe.cache.stats(),
            pe.bridge,
            pe.rx,
            pe.arbiter,
            pe.coh,
            pe.collective_depth
        )
    }

    #[test]
    fn parked_ticks_change_only_the_credited_counter() {
        // Two identical PEs wait on an uncached load, then on a receive.
        // At each wait one is ticked through it and the other is parked
        // and credited; they must stay identical throughout.
        let kernel = |port: PePort| {
            port.call(PeRequest::UncachedLoad { addr: 0x40 }).unwrap();
            port.call(PeRequest::Recv { from: None }).unwrap();
        };
        let mut ticked = ProcessingElement::new(cfg(1), topo(), bank0(), kernel);
        let mut parked = ProcessingElement::new(cfg(1), topo(), bank0(), kernel);
        const SKIPPED: Cycle = 40;
        let mut now: Cycle = 0;
        let mut wait = |now: &mut Cycle, reply: Flit, counter: fn(&PeStats) -> u64| {
            // Start the operation; the load's request leaves via the arbiter.
            while !ticked.awaits_flit() {
                for pe in [&mut ticked, &mut parked] {
                    pe.tick(*now, &mut NullSink);
                    let _ = pe.select_inject();
                }
                *now += 1;
            }
            assert!(parked.awaits_flit());
            let before = counter(ticked.stats());
            for _ in 0..SKIPPED {
                ticked.tick(*now, &mut NullSink);
                assert!(ticked.select_inject().is_none(), "a parked PE injects nothing");
                *now += 1;
            }
            assert_eq!(counter(ticked.stats()), before + SKIPPED);
            parked.credit_parked(SKIPPED);
            assert_eq!(snapshot(&ticked), snapshot(&parked));
            for pe in [&mut ticked, &mut parked] {
                pe.deliver(reply, *now, &mut NullSink);
                pe.tick(*now, &mut NullSink);
            }
            *now += 1;
        };
        let word = Flit::new(Coord::new(1, 0), PacketKind::SingleRead, SubKind::Data, 0, 0, 0, 7);
        wait(&mut now, word, |s| s.mem_cycles.get());
        wait(&mut now, Flit::message(Coord::new(1, 0), 2, 0, 0, 9), |s| s.recv_wait_cycles.get());
        for now in now..now + 4 {
            ticked.tick(now, &mut NullSink);
            parked.tick(now, &mut NullSink);
        }
        assert!(ticked.is_done() && parked.is_done());
        assert_eq!(snapshot(&ticked), snapshot(&parked));
    }

    #[test]
    fn wakeup_hints() {
        let mut pe = ProcessingElement::new(cfg(1), topo(), bank0(), |port: PePort| {
            port.call(PeRequest::Compute { cycles: 100 }).unwrap();
        });
        pe.tick(0, &mut NullSink);
        match pe.wakeup() {
            Wakeup::At(t) => assert_eq!(t, 100),
            other => panic!("{other:?}"),
        }
        for now in 1..=101 {
            pe.tick(now, &mut NullSink);
        }
        assert_eq!(pe.wakeup(), Wakeup::Done);
    }
}
