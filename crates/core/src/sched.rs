//! The component scheduler and the production engine's cycle body.
//!
//! A [`Scheduler`] owns every processing element and MPMMU bank of a run,
//! and [`Scheduler::cycle`] is the cycle body the engine runs over them:
//! sampling catch-up, the link kills the fault injector has due by the
//! cycle, then deliver ejected flits, tick the runnable components, offer
//! injection, and tick the fabric, with the run's hooks (trace sink, fault
//! injector, meter) live throughout. Each phase costs time in proportion
//! to the components that can act, not to the PE count:
//!
//! * **delivery** walks only the nodes whose ejection queue holds a flit
//!   ([`Fabric::next_ejectable`]), in ascending node order — which is
//!   rank order, so trace events come out exactly as a sweep over every
//!   PE would emit them;
//! * **ticks** go to a runnable list fed by three wake sources: *timed*
//!   wakes (a PE that asked for the very next cycle, or one asleep in a
//!   pure time stall until a known cycle, kept in a min-heap whose
//!   entries are checked lazily against the PE's current wake cycle),
//!   *delivery* wakes (a flit reached a parked PE) and *probe* wakes (a
//!   directory probe reached a sleeping or retired PE, which must answer
//!   it because the home bank blocks until it does);
//! * **injection** is offered to exactly the PEs that ticked, in rank
//!   order; every other PE has a drained arbiter by construction.
//!
//! A PE is **parked** when its tick leaves it waiting only for a flit
//! ([`ProcessingElement::awaits_flit`]): an empty arbiter, an idle probe
//! responder, a bridge that is idle or awaits a response (empty output
//! latch, no result waiting, no armed retry timer), and either a memory
//! operation past its access phase, a direct bridge transaction, or a
//! `Recv` with no matching completed packet. Until a flit is delivered to
//! it, each tick would bump one wait counter and change nothing else, so
//! the parked PE is not ticked at all and its wake credits the skipped
//! increments ([`ProcessingElement::credit_parked`]). Results stay
//! bit-identical to the tick-everything reference engine.
//!
//! Parking is off while a fault injector is active: the injector rolls a
//! PE stall for every runnable PE on every cycle, and skipping those
//! rolls would change seeded fault runs.

use crate::system::{banks_deliver, banks_inject, delivered_event, Bank};
use medea_fault::FaultInjector;
use medea_metrics::Meter;
use medea_noc::coord::Dir;
use medea_noc::flit::{PacketKind, SubKind};
use medea_noc::Fabric;
use medea_pe::pe::ProcessingElement;
use medea_sim::ids::NodeId;
use medea_sim::Cycle;
use medea_trace::{TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How many engine-side fault events the hang diagnostics keep.
const FAULT_LOG_CAP: usize = 64;

/// `pe_at` entry of a node that hosts no PE.
const NO_PE: u32 = u32::MAX;

/// The PEs and banks the engine drives, with their wake schedule (see
/// the module docs).
pub(crate) struct Scheduler {
    pub(crate) pes: Vec<ProcessingElement>,
    pub(crate) banks: Vec<Bank>,
    /// `pe_at[node]`: index of the PE at that node, or [`NO_PE`].
    pe_at: Vec<u32>,
    /// The cycle each PE is next due: `now + 1`, the end of a time stall,
    /// or `Cycle::MAX` while it is parked or retired.
    wake: Vec<Cycle>,
    /// For a parked PE, the cycle of its last tick: the base of the
    /// credit its wake pays.
    parked_at: Vec<Option<Cycle>>,
    /// PEs to tick this cycle; after the tick phase, the PEs that ticked.
    runnable: Vec<u32>,
    /// PEs due at the next cycle.
    next: Vec<u32>,
    /// Timed wakes `(cycle, pe)` past the next cycle. An entry is stale
    /// once `wake[pe]` no longer equals its cycle.
    timers: BinaryHeap<Reverse<(Cycle, u32)>>,
    live: usize,
    /// The tail of engine-side fault events, `(cycle, event)`, capped at
    /// [`FAULT_LOG_CAP`].
    faults: VecDeque<(Cycle, TraceEvent)>,
}

impl Scheduler {
    /// Schedule `pes` and `banks` on a torus of `nodes` nodes, all of them
    /// due at cycle 0.
    pub(crate) fn new(pes: Vec<ProcessingElement>, banks: Vec<Bank>, nodes: usize) -> Self {
        let mut pe_at = vec![NO_PE; nodes];
        for (i, pe) in pes.iter().enumerate() {
            pe_at[pe.node().index()] = i as u32;
        }
        let n = pes.len();
        Scheduler {
            pes,
            banks,
            pe_at,
            wake: vec![0; n],
            parked_at: vec![None; n],
            runnable: Vec::with_capacity(n),
            next: (0..n as u32).collect(),
            timers: BinaryHeap::new(),
            live: n,
            faults: VecDeque::new(),
        }
    }

    /// PEs whose kernel has not returned yet.
    pub(crate) const fn live(&self) -> usize {
        self.live
    }

    /// Whether a live PE sleeps in a *timed* stall past `now + 1` — the
    /// watchdog's carve-out for healthy long stalls (a long `compute`, an
    /// injected stall). A parked PE never counts: it waits on traffic,
    /// which is exactly what a hang starves it of. Nor does a PE backing
    /// off a Nacked lock: it is ticked every cycle, so it is never asleep.
    pub(crate) fn timed_stall_pending(&self, now: Cycle) -> bool {
        self.pes
            .iter()
            .zip(&self.wake)
            .any(|(pe, &wake)| !pe.is_done() && now + 1 < wake && wake < Cycle::MAX)
    }

    /// Append an engine-side fault event to the diagnostic tail.
    fn log_fault(&mut self, now: Cycle, event: TraceEvent) {
        if self.faults.len() == FAULT_LOG_CAP {
            self.faults.pop_front();
        }
        self.faults.push_back((now, event));
    }

    /// The fault tail, `(cycle, event)`, oldest first.
    pub(crate) fn faults(&self) -> impl Iterator<Item = &(Cycle, TraceEvent)> {
        self.faults.iter()
    }

    /// Snapshot every PE and bank into `meter` at a sample-window
    /// boundary.
    fn sample<M: Meter>(&self, meter: &mut M) {
        for (i, pe) in self.pes.iter().enumerate() {
            meter.sample_pe(i, pe.activity(), pe.arbiter_occupancy(), pe.rx_backlog());
        }
        for (i, bank) in self.banks.iter().enumerate() {
            let (req, data, out) = bank.unit.fifo_occupancy();
            meter.sample_bank(
                i,
                req,
                data,
                out,
                bank.unit.stats().lock_nacks.get(),
                bank.unit.coherence_stats().protocol_messages(),
            );
        }
    }

    /// Close `meter` when the run stops at `end`: a final snapshot, then
    /// the open attribution spans and the partial last window.
    pub(crate) fn flush<M: Meter>(&self, meter: &mut M, end: Cycle) {
        if M::ACTIVE {
            self.sample(meter);
            meter.finish(end);
        }
    }

    /// Cycle `now` of this scheduler's components over `fabric`.
    pub(crate) fn cycle<F, S, I, M>(
        &mut self,
        fabric: &mut F,
        now: Cycle,
        sink: &mut S,
        injector: &mut I,
        meter: &mut M,
    ) where
        F: Fabric,
        S: TraceSink,
        I: FaultInjector,
        M: Meter,
    {
        // 0a. Sampling catch-up: commit every window whose boundary has
        // passed. The loop form makes an idle fast-forward jump emit one
        // window per crossed boundary with frozen state — exactly what
        // cycle-by-cycle execution would have observed.
        if M::ACTIVE {
            while meter.next_sample() <= now {
                self.sample(meter);
                meter.commit_window();
            }
        }

        // 0b. The scheduled link kills due by `now`, in schedule order,
        // before any traffic moves. A kill due inside an idle fast-forward
        // fires at the cycle the jump lands on.
        if I::ACTIVE {
            while let Some(kill) = injector.take_link_kill(now) {
                let (node, dir) = (kill.node, kill.dir & 3);
                let event = TraceEvent::FaultLinkKilled { node, dir };
                if S::ACTIVE {
                    sink.record(now, event);
                }
                self.log_fault(now, event);
                fabric.kill_link(NodeId::new(node), Dir::ALL[dir as usize]);
            }
        }

        // Timed wakes: last cycle's `now + 1` PEs, then the due timers.
        // (After an idle fast-forward `now` may lie past `next`'s cycle;
        // those PEs are simply late, as with a full sweep.)
        std::mem::swap(&mut self.runnable, &mut self.next);
        self.next.clear();
        while let Some(&Reverse((at, i))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if self.wake[i as usize] == at {
                self.runnable.push(i);
            }
        }

        // 1. Deliver ejections; deliveries add wakes.
        self.deliver(fabric, now, sink, injector);
        banks_deliver(fabric, &mut self.banks, now, sink);

        // 2. Tick runnable components (a bank's tick is a no-op while it
        // is idle, so it is skipped then too).
        self.runnable.sort_unstable();
        self.runnable.dedup();
        self.tick(now, sink, injector, meter);
        for bank in &mut self.banks {
            if !bank.unit.is_idle() {
                bank.unit.tick_faulted(now, sink, injector);
            }
        }

        // 3. Inject (one flit per node per cycle). A PE that did not tick
        // has a drained arbiter, so only the ticked ones can offer.
        for &i in &self.runnable {
            let pe = &mut self.pes[i as usize];
            if let Some(flit) = pe.select_inject() {
                let kind = flit.kind().code();
                match fabric.try_inject_tagged(pe.node(), flit, now, false) {
                    Ok(()) => {
                        if S::ACTIVE {
                            let node = pe.node().index() as u16;
                            sink.record(now, TraceEvent::FlitInjected { node, kind });
                        }
                    }
                    Err(back) => pe.restore_inject(back),
                }
            }
        }
        banks_inject(fabric, &mut self.banks, now, sink);

        // 4. Fabric (activity-scheduled internally; a drained fabric
        // ticks in constant time).
        fabric.tick_metered(now, sink, meter);
    }

    /// Phase 1 for the PEs: eject every flit queued at a PE node, in
    /// ascending node order. A drained fabric skips the walk outright.
    fn deliver<F, S, I>(&mut self, fabric: &mut F, now: Cycle, sink: &mut S, injector: &mut I)
    where
        F: Fabric + ?Sized,
        S: TraceSink,
        I: FaultInjector,
    {
        if fabric.in_flight() == 0 {
            return;
        }
        let mut from = 0;
        while let Some(node) = fabric.next_ejectable(from) {
            from = node.index() + 1;
            let i = self.pe_at[node.index()];
            if i == NO_PE {
                continue; // a bank's node (served by `banks_deliver`) or a bare router
            }
            let i = i as usize;
            while let Some(mut flit) = fabric.eject(node) {
                if I::ACTIVE && !flit.kind().is_shared_memory() {
                    if let Some(bit) = injector.corrupt_flit(now, node.index() as u16) {
                        flit.corrupt_payload_bit(bit);
                        let event =
                            TraceEvent::FaultFlitCorrupted { node: node.index() as u16, bit };
                        if S::ACTIVE {
                            sink.record(now, event);
                        }
                        self.log_fault(now, event);
                    }
                }
                if S::ACTIVE {
                    sink.record(now, delivered_event(node, &flit, now));
                }
                // Delivery wake: any flit wakes a parked PE. Probe wake: a
                // directory probe wakes even a sleeping or retired PE.
                let probe = flit.kind() == PacketKind::Coherence && flit.sub() == SubKind::Request;
                if probe || self.parked_at[i].is_some() {
                    self.wake_now(i, now);
                }
                self.pes[i].deliver(flit, now, sink);
            }
        }
    }

    /// Make PE `i` runnable at `now`, crediting a parked PE the ticks it
    /// skipped since its last one.
    fn wake_now(&mut self, i: usize, now: Cycle) {
        if let Some(at) = self.parked_at[i].take() {
            self.pes[i].credit_parked(now - at - 1);
        }
        self.wake[i] = now;
        self.runnable.push(i as u32);
    }

    /// Phase 2 for the PEs: tick the runnable list (ascending, deduped)
    /// and reschedule each PE; leaves `runnable` holding the PEs that
    /// actually ticked.
    fn tick<S, I, M>(&mut self, now: Cycle, sink: &mut S, injector: &mut I, meter: &mut M)
    where
        S: TraceSink,
        I: FaultInjector,
        M: Meter,
    {
        let mut ticked = 0;
        for k in 0..self.runnable.len() {
            let i = self.runnable[k] as usize;
            let pe = &mut self.pes[i];
            if I::ACTIVE && !pe.is_done() {
                let stall = injector.pe_stall(now, pe.node().index() as u16);
                if stall > 0 {
                    let node = pe.node().index() as u16;
                    let event = TraceEvent::FaultPeStall { node, cycles: stall };
                    if S::ACTIVE {
                        sink.record(now, event);
                    }
                    self.log_fault(now, event);
                    self.schedule(i, now + Cycle::from(stall), now);
                    continue;
                }
            }
            let was_done = pe.is_done();
            pe.tick(now, sink);
            if M::ACTIVE {
                // Interval attribution: the recorder charges the span
                // since this PE's previous tick to its previous activity,
                // so skipped cycles are charged to the state it waited in.
                meter.pe_state(i, now, pe.activity());
            }
            if !was_done && pe.is_done() {
                self.live -= 1;
            }
            self.runnable[ticked] = i as u32;
            ticked += 1;
            if !I::ACTIVE && pe.awaits_flit() {
                self.wake[i] = Cycle::MAX;
                self.parked_at[i] = Some(now);
            } else {
                let due = pe.sleep_until().map_or(now + 1, |t| t.max(now + 1));
                self.schedule(i, due, now);
            }
        }
        self.runnable.truncate(ticked);
    }

    /// Set PE `i` due at cycle `at` (> `now`): the next-cycle list, a
    /// timer, or — for a retired PE at `Cycle::MAX` — nothing at all.
    fn schedule(&mut self, i: usize, at: Cycle, now: Cycle) {
        self.wake[i] = at;
        if at == now + 1 {
            self.next.push(i as u32);
        } else if at < Cycle::MAX {
            self.timers.push(Reverse((at, i as u32)));
        }
    }
}
