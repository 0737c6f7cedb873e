//! The pif2NoC bridge (§II-B): translates PIF bus transactions into NoC
//! flit sequences and back.
//!
//! "The bridge is capable of single read/write operations as well as block
//! transfers. The translation of a specific shared-memory address into a
//! NoC address depends on a configuration memory inside the bridge [...]
//! In the simplest Medea implementation, all the memory mapped address
//! space is located at the unique MPMMU of the system, thus the
//! corresponding NoC address is hardwired." We model that configuration
//! memory as a [`BankMap`]: each transaction is routed to the NoC address
//! of the MPMMU bank owning its line. A single-bank map reproduces the
//! paper's hardwired lookup exactly; multi-bank maps distribute the
//! shared-memory traffic.
//!
//! Block-read responses "may arrive out-of-order", so the bridge contains a
//! reorder buffer "which currently has a depth of four words" — one cache
//! line. Responses are keyed by their source bank (the `src-id` a bank
//! stamps on every response is its node index): data from any bank other
//! than the one the in-flight transaction targets is a protocol violation.
//!
//! Lock transactions answered with a Nack (lock busy) are retried
//! automatically after a configurable backoff; the PE stays blocked, which
//! is precisely the serialization cost of shared-memory synchronization the
//! paper measures against message passing.

use medea_cache::{Addr, WORDS_PER_LINE};
use medea_mem::BankMap;
use medea_noc::coord::Coord;
use medea_noc::flit::{burst_code, CohOp, Flit, PacketKind, SubKind};
use medea_sim::stats::Counter;
use medea_sim::Cycle;
use std::collections::VecDeque;

/// A PIF transaction submitted to the bridge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BridgeOp {
    /// Read one word.
    SingleRead {
        /// Word address.
        addr: Addr,
    },
    /// Write one word.
    SingleWrite {
        /// Word address.
        addr: Addr,
        /// Value to write.
        value: u32,
    },
    /// Read one cache line.
    BlockRead {
        /// Line-aligned address.
        line: Addr,
    },
    /// Write one cache line.
    BlockWrite {
        /// Line-aligned address.
        line: Addr,
        /// Line data.
        data: [u32; WORDS_PER_LINE],
    },
    /// Acquire the lock on a shared-memory word (retries until granted).
    Lock {
        /// Word address.
        addr: Addr,
    },
    /// Release the lock on a shared-memory word.
    Unlock {
        /// Word address.
        addr: Addr,
    },
    /// MESI: fetch one line for reading (`GetS` to the home directory).
    CohGetS {
        /// Line-aligned address.
        line: Addr,
    },
    /// MESI: fetch one line for writing (`GetM` — the home invalidates
    /// every other copy before the fill arrives).
    CohGetM {
        /// Line-aligned address.
        line: Addr,
    },
    /// MESI: write a dirty evicted line back to its home (`PutM`; the
    /// same grant → stream → ack handshake as a block write).
    CohPutM {
        /// Line-aligned address.
        line: Addr,
        /// Line data.
        data: [u32; WORDS_PER_LINE],
    },
}

/// Completion value of a bridge transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeResult {
    /// Single-read data.
    Word(u32),
    /// Block-read data, in address order.
    Line([u32; WORDS_PER_LINE]),
    /// Write committed (final ack received).
    WriteDone,
    /// Lock acquired.
    LockGranted,
    /// Unlock acknowledged.
    UnlockDone,
    /// Unlock refused by the MPMMU (ownership violation — a software bug).
    UnlockRejected,
    /// MESI fill: line data plus the state the directory granted
    /// (`GrantS`/`GrantE`/`GrantM`).
    CohLine {
        /// Line data, in address order.
        data: [u32; WORDS_PER_LINE],
        /// The granted-state opcode.
        grant: CohOp,
    },
}

/// Bridge configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Cycles to wait after a lock Nack before retrying.
    pub lock_retry_backoff: Cycle,
    /// Cycles to wait for a read response before re-issuing the request
    /// (0 disables the retry path — the default, matching the paper's
    /// fault-free bridge exactly).
    ///
    /// Only *read* transactions retry: a re-issued read is idempotent,
    /// while re-running a write or lock handshake could double-apply a
    /// side effect. With retry enabled the bridge also tolerates stale
    /// responses of a superseded attempt (counted, dropped) instead of
    /// treating them as protocol violations.
    pub response_timeout: Cycle,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig { lock_retry_backoff: 16, response_timeout: 0 }
    }
}

/// Bridge statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Transactions completed.
    pub transactions: Counter,
    /// Lock retries caused by Nacks.
    pub lock_retries: Counter,
    /// Block-read data flits that arrived out of address order.
    pub out_of_order_flits: Counter,
    /// Read requests re-issued after a response timeout.
    pub retries: Counter,
    /// Response flits of a superseded read attempt, dropped benignly
    /// (only possible while `response_timeout` is enabled).
    pub stale_responses: Counter,
}

#[derive(Debug, Clone)]
enum State {
    Idle,
    AwaitSingleData,
    AwaitBlockData {
        reorder: [Option<u32>; WORDS_PER_LINE],
        got: usize,
        next_expected: u8,
    },
    AwaitGrant {
        kind: PacketKind,
        data: VecDeque<Flit>,
    },
    Streaming {
        data: VecDeque<Flit>,
    },
    AwaitFinalAck,
    AwaitLockAck {
        addr: Addr,
    },
    LockBackoff {
        until: Cycle,
        addr: Addr,
    },
    AwaitUnlockAck,
    /// MESI fill in flight: 4 data words plus the grant ack, in any
    /// arrival order (the deflection fabric reorders freely).
    AwaitCohFill {
        reorder: [Option<u32>; WORDS_PER_LINE],
        got: usize,
        grant: Option<CohOp>,
    },
}

/// The pif2NoC bridge of one processing element.
#[derive(Debug, Clone)]
pub struct Pif2NocBridge {
    banks: BankMap,
    /// Destination of the in-flight transaction (the owning bank's NoC
    /// coordinate); meaningless while idle.
    home: Coord,
    /// Source id the in-flight transaction's responses must carry (the
    /// owning bank's node index) — the reorder-buffer key.
    home_src: u8,
    src_id: u8,
    cfg: BridgeConfig,
    state: State,
    out_slot: Option<Flit>,
    result: Option<BridgeResult>,
    /// The in-flight *read* op, recorded only when `response_timeout` is
    /// enabled, so a timed-out request can be re-issued verbatim.
    retry_op: Option<BridgeOp>,
    /// Cycle at which the in-flight read is declared lost; armed by
    /// `tick` once the request has left the output latch, re-armed on
    /// every block-read word (progress resets the clock).
    deadline: Option<Cycle>,
    stats: BridgeStats,
}

impl Pif2NocBridge {
    /// Build a bridge for the PE with application-level id `src_id`
    /// (its node index), routing transactions through `banks`.
    pub fn new(banks: BankMap, src_id: u8, cfg: BridgeConfig) -> Self {
        Pif2NocBridge {
            banks,
            home: banks.coord_of_bank(0),
            home_src: banks.node_of_bank(0).index() as u8,
            src_id,
            cfg,
            state: State::Idle,
            out_slot: None,
            result: None,
            retry_op: None,
            deadline: None,
            stats: BridgeStats::default(),
        }
    }

    /// Statistics.
    pub const fn stats(&self) -> &BridgeStats {
        &self.stats
    }

    /// Whether a transaction is in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.state, State::Idle) || self.out_slot.is_some()
    }

    /// If the bridge is only waiting for a lock backoff to expire, the
    /// expiry cycle (fast-forward hint).
    pub fn backoff_until(&self) -> Option<Cycle> {
        match self.state {
            State::LockBackoff { until, .. } if self.out_slot.is_none() => Some(until),
            // A read waiting out its response timeout is also a pure
            // timer once the system is otherwise quiet: if the response
            // was dropped, nothing happens before the retry fires, so
            // the engine may fast-forward to the deadline.
            State::AwaitSingleData | State::AwaitBlockData { .. } if self.out_slot.is_none() => {
                self.deadline
            }
            _ => None,
        }
    }

    /// Start a transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already in flight — the PE blocks on the
    /// bridge, so overlap is an engine bug.
    pub fn start(&mut self, op: BridgeOp) {
        assert!(!self.is_busy(), "bridge transaction overlap");
        self.retry_op = match op {
            BridgeOp::SingleRead { .. } | BridgeOp::BlockRead { .. }
                if self.cfg.response_timeout > 0 =>
            {
                Some(op)
            }
            _ => None,
        };
        self.deadline = None;
        let target = match op {
            BridgeOp::SingleRead { addr }
            | BridgeOp::SingleWrite { addr, .. }
            | BridgeOp::Lock { addr }
            | BridgeOp::Unlock { addr } => addr,
            BridgeOp::BlockRead { line }
            | BridgeOp::BlockWrite { line, .. }
            | BridgeOp::CohGetS { line }
            | BridgeOp::CohGetM { line }
            | BridgeOp::CohPutM { line, .. } => line,
        };
        self.home = self.banks.home_coord(target);
        self.home_src = self.banks.home_src_id(target);
        let req = |kind: PacketKind, addr: Addr| Flit::request(self.home, kind, self.src_id, addr);
        match op {
            BridgeOp::SingleRead { addr } => {
                self.out_slot = Some(req(PacketKind::SingleRead, addr));
                self.state = State::AwaitSingleData;
            }
            BridgeOp::BlockRead { line } => {
                self.out_slot = Some(req(PacketKind::BlockRead, line));
                self.state = State::AwaitBlockData {
                    reorder: [None; WORDS_PER_LINE],
                    got: 0,
                    next_expected: 0,
                };
            }
            BridgeOp::SingleWrite { addr, value } => {
                self.out_slot = Some(req(PacketKind::SingleWrite, addr));
                let data =
                    VecDeque::from(vec![self.data_flit(PacketKind::SingleWrite, 0, 1, value)]);
                self.state = State::AwaitGrant { kind: PacketKind::SingleWrite, data };
            }
            BridgeOp::BlockWrite { line, data } => {
                self.out_slot = Some(req(PacketKind::BlockWrite, line));
                let flits = data
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        self.data_flit(PacketKind::BlockWrite, i as u8, WORDS_PER_LINE, *w)
                    })
                    .collect();
                self.state = State::AwaitGrant { kind: PacketKind::BlockWrite, data: flits };
            }
            BridgeOp::Lock { addr } => {
                self.out_slot = Some(req(PacketKind::Lock, addr));
                self.state = State::AwaitLockAck { addr };
            }
            BridgeOp::Unlock { addr } => {
                self.out_slot = Some(req(PacketKind::Unlock, addr));
                self.state = State::AwaitUnlockAck;
            }
            BridgeOp::CohGetS { line } | BridgeOp::CohGetM { line } => {
                let op =
                    if matches!(op, BridgeOp::CohGetS { .. }) { CohOp::GetS } else { CohOp::GetM };
                self.out_slot =
                    Some(Flit::coherence(self.home, SubKind::Request, op, self.src_id, line));
                self.state =
                    State::AwaitCohFill { reorder: [None; WORDS_PER_LINE], got: 0, grant: None };
            }
            BridgeOp::CohPutM { line, data } => {
                self.out_slot = Some(Flit::coherence(
                    self.home,
                    SubKind::Request,
                    CohOp::PutM,
                    self.src_id,
                    line,
                ));
                let flits = data
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        self.data_flit(PacketKind::Coherence, i as u8, WORDS_PER_LINE, *w)
                    })
                    .collect();
                self.state = State::AwaitGrant { kind: PacketKind::Coherence, data: flits };
            }
        }
    }

    /// NoC coordinate of the bank owning `addr` — for fire-and-forget
    /// coherence traffic (the `Unblock`) built outside a bridge
    /// transaction.
    pub fn home_coord(&self, addr: Addr) -> Coord {
        self.banks.home_coord(addr)
    }

    fn data_flit(&self, kind: PacketKind, seq: u8, total: usize, value: u32) -> Flit {
        Flit::new(self.home, kind, SubKind::Data, seq, burst_code(total), self.src_id, value)
    }

    /// Take the flit waiting at the arbiter-facing output latch, if any.
    /// Call only when the arbiter has accepted to take it.
    pub fn take_output(&mut self) -> Option<Flit> {
        let flit = self.out_slot.take();
        // If that was the last streamed data flit, the transaction is now
        // awaiting the final ack — which may race back before our next
        // tick, so transition immediately.
        if flit.is_some() {
            if let State::Streaming { data } = &self.state {
                if data.is_empty() {
                    self.state = State::AwaitFinalAck;
                }
            }
        }
        flit
    }

    /// Whether a flit waits at the output latch.
    pub fn has_output(&self) -> bool {
        self.out_slot.is_some()
    }

    /// Whether [`tick`](Self::tick) changes nothing until a response flit
    /// arrives: the bridge is idle or awaits a response, with an empty
    /// output latch, no result waiting to be taken and no armed retry
    /// timer (a lock backoff or a write stream still has work of its own).
    pub fn awaits_flit(&self) -> bool {
        self.out_slot.is_none()
            && self.result.is_none()
            && self.retry_op.is_none()
            && !matches!(self.state, State::LockBackoff { .. } | State::Streaming { .. })
    }

    /// Take the completed transaction's result, if ready.
    pub fn take_result(&mut self) -> Option<BridgeResult> {
        self.result.take()
    }

    /// Advance internal timers and streaming: call once per cycle.
    pub fn tick(&mut self, now: Cycle) {
        if self.retry_op.is_some() && self.out_slot.is_none() {
            match self.deadline {
                // The request is on the wire; start (or restart) the
                // response clock.
                None => self.deadline = Some(now + self.cfg.response_timeout),
                Some(d) if now >= d => {
                    self.stats.retries.inc();
                    self.deadline = None;
                    let op = self.retry_op.expect("checked above");
                    // Re-issue from scratch: any partially filled reorder
                    // buffer is abandoned (late words of the old attempt
                    // are dropped as stale).
                    self.state = State::Idle;
                    self.start(op);
                }
                Some(_) => {}
            }
        }
        match &mut self.state {
            State::LockBackoff { until, addr } if now >= *until && self.out_slot.is_none() => {
                let addr = *addr;
                self.out_slot = Some(Flit::request(self.home, PacketKind::Lock, self.src_id, addr));
                self.state = State::AwaitLockAck { addr };
            }
            State::Streaming { data } if self.out_slot.is_none() => match data.pop_front() {
                Some(flit) => self.out_slot = Some(flit),
                None => self.state = State::AwaitFinalAck,
            },
            _ => {}
        }
    }

    /// Deliver a shared-memory response flit ejected at this node.
    pub fn handle_response(&mut self, flit: Flit, now: Cycle) {
        debug_assert!(flit.kind().is_shared_memory(), "bridge receives SM flits only");
        // With the retry path enabled, a response of a superseded read
        // attempt can trail in at any point — from another bank, with the
        // wrong kind, into a slot already filled, or after the
        // transaction completed. Those are dropped as stale instead of
        // treated as protocol violations; without retries every one of
        // them still panics (a fault-free run must be protocol-exact).
        let resilient = self.cfg.response_timeout > 0;
        if resilient && flit.src_id() != self.home_src {
            self.stats.stale_responses.inc();
            return;
        }
        debug_assert_eq!(
            flit.src_id(),
            self.home_src,
            "response from a bank other than the transaction's home"
        );
        match std::mem::replace(&mut self.state, State::Idle) {
            State::AwaitSingleData => {
                if resilient
                    && (flit.kind() != PacketKind::SingleRead || flit.sub() != SubKind::Data)
                {
                    self.stats.stale_responses.inc();
                    self.state = State::AwaitSingleData;
                    return;
                }
                debug_assert_eq!(flit.kind(), PacketKind::SingleRead);
                debug_assert_eq!(flit.sub(), SubKind::Data);
                self.finish(BridgeResult::Word(flit.payload()));
            }
            State::AwaitBlockData { mut reorder, mut got, mut next_expected } => {
                if resilient && flit.kind() != PacketKind::BlockRead {
                    self.stats.stale_responses.inc();
                    self.state = State::AwaitBlockData { reorder, got, next_expected };
                    return;
                }
                debug_assert_eq!(flit.kind(), PacketKind::BlockRead);
                // The reorder buffer is keyed by source bank: block data
                // must come from the bank the read targeted.
                assert_eq!(
                    flit.src_id(),
                    self.home_src,
                    "block-read data from bank src {} while awaiting src {}",
                    flit.src_id(),
                    self.home_src
                );
                let seq = flit.seq() as usize;
                assert!(seq < WORDS_PER_LINE, "block-read seq {seq} beyond line");
                if reorder[seq].is_some() {
                    assert!(resilient, "duplicate block-read word {seq}");
                    // A word of the old attempt for a slot the new one
                    // already filled (or vice versa) — same address, so
                    // the value already latched is just as good.
                    self.stats.stale_responses.inc();
                    self.state = State::AwaitBlockData { reorder, got, next_expected };
                    return;
                }
                if flit.seq() != next_expected {
                    self.stats.out_of_order_flits.inc();
                }
                next_expected = next_expected.saturating_add(1);
                reorder[seq] = Some(flit.payload());
                got += 1;
                // Progress restarts the response clock.
                self.deadline = None;
                if got == WORDS_PER_LINE {
                    let mut line = [0u32; WORDS_PER_LINE];
                    for (i, w) in reorder.iter().enumerate() {
                        line[i] = w.expect("all words collected");
                    }
                    self.finish(BridgeResult::Line(line));
                } else {
                    self.state = State::AwaitBlockData { reorder, got, next_expected };
                }
            }
            State::AwaitGrant { kind, data } => {
                debug_assert_eq!(flit.kind(), kind);
                debug_assert_eq!(flit.sub(), SubKind::Ack, "grant expected");
                self.state = State::Streaming { data };
            }
            State::AwaitFinalAck => {
                debug_assert_eq!(flit.sub(), SubKind::Ack, "final ack expected");
                self.finish(BridgeResult::WriteDone);
            }
            State::AwaitLockAck { addr } => match flit.sub() {
                SubKind::Ack => self.finish(BridgeResult::LockGranted),
                SubKind::Nack => {
                    self.stats.lock_retries.inc();
                    self.state =
                        State::LockBackoff { until: now + self.cfg.lock_retry_backoff, addr };
                }
                other => panic!("lock response with subtype {other}"),
            },
            State::AwaitUnlockAck => match flit.sub() {
                SubKind::Ack => self.finish(BridgeResult::UnlockDone),
                SubKind::Nack => self.finish(BridgeResult::UnlockRejected),
                other => panic!("unlock response with subtype {other}"),
            },
            State::AwaitCohFill { mut reorder, mut got, mut grant } => {
                debug_assert_eq!(flit.kind(), PacketKind::Coherence);
                match flit.sub() {
                    SubKind::Data => {
                        let seq = flit.seq() as usize;
                        assert!(seq < WORDS_PER_LINE, "coherence fill seq {seq} beyond line");
                        assert!(reorder[seq].is_none(), "duplicate coherence fill word {seq}");
                        if got != seq {
                            self.stats.out_of_order_flits.inc();
                        }
                        reorder[seq] = Some(flit.payload());
                        got += 1;
                    }
                    SubKind::Ack => {
                        let op = flit.coh_op().expect("coherence ack carries an opcode");
                        debug_assert!(
                            matches!(op, CohOp::GrantS | CohOp::GrantE | CohOp::GrantM),
                            "fill grant expected, got {op}"
                        );
                        debug_assert!(grant.is_none(), "duplicate fill grant");
                        grant = Some(op);
                    }
                    other => panic!("coherence fill with subtype {other}"),
                }
                match grant {
                    Some(g) if got == WORDS_PER_LINE => {
                        let mut line = [0u32; WORDS_PER_LINE];
                        for (i, w) in reorder.iter().enumerate() {
                            line[i] = w.expect("all words collected");
                        }
                        self.finish(BridgeResult::CohLine { data: line, grant: g });
                    }
                    _ => self.state = State::AwaitCohFill { reorder, got, grant },
                }
            }
            state @ (State::Idle | State::Streaming { .. } | State::LockBackoff { .. }) => {
                // Only a trailing read response of a retried attempt is
                // forgivable; anything else is a protocol violation even
                // in resilient mode.
                let trailing_read =
                    matches!(flit.kind(), PacketKind::SingleRead | PacketKind::BlockRead)
                        && flit.sub() == SubKind::Data;
                if resilient && trailing_read {
                    self.stats.stale_responses.inc();
                    self.state = state;
                    return;
                }
                panic!("unexpected shared-memory response {flit} while not awaiting one")
            }
        }
    }

    fn finish(&mut self, result: BridgeResult) {
        self.stats.transactions.inc();
        self.result = Some(result);
        self.state = State::Idle;
        self.retry_op = None;
        self.deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_noc::coord::{Coord, Topology};
    use medea_sim::ids::NodeId;

    fn bridge() -> Pif2NocBridge {
        let banks = BankMap::single(Topology::paper_4x4(), NodeId::new(0));
        Pif2NocBridge::new(banks, 5, BridgeConfig::default())
    }

    fn resp(kind: PacketKind, sub: SubKind, seq: u8, data: u32) -> Flit {
        // Responses arrive *at* the PE; dest is the PE itself but the
        // bridge does not check it.
        Flit::new(Coord::new(1, 1), kind, sub, seq, 0, 0, data)
    }

    /// Drain the output latch like the PE/arbiter would.
    fn drain(b: &mut Pif2NocBridge) -> Vec<Flit> {
        let mut v = Vec::new();
        while let Some(f) = b.take_output() {
            v.push(f);
            b.tick(0);
        }
        v
    }

    #[test]
    fn single_read_flow() {
        let mut b = bridge();
        b.start(BridgeOp::SingleRead { addr: 0x40 });
        let sent = drain(&mut b);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].kind(), PacketKind::SingleRead);
        assert_eq!(sent[0].payload(), 0x40);
        assert_eq!(sent[0].src_id(), 5);
        assert!(b.is_busy());
        b.handle_response(resp(PacketKind::SingleRead, SubKind::Data, 0, 99), 10);
        assert_eq!(b.take_result(), Some(BridgeResult::Word(99)));
        assert!(!b.is_busy());
    }

    #[test]
    fn block_read_reorders() {
        let mut b = bridge();
        b.start(BridgeOp::BlockRead { line: 0x80 });
        drain(&mut b);
        for seq in [2u8, 0, 3, 1] {
            b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, seq, seq as u32 * 10), 0);
        }
        assert_eq!(b.take_result(), Some(BridgeResult::Line([0, 10, 20, 30])));
        assert!(b.stats().out_of_order_flits.get() > 0);
    }

    #[test]
    fn block_write_flow() {
        let mut b = bridge();
        b.start(BridgeOp::BlockWrite { line: 0x100, data: [1, 2, 3, 4] });
        // Request goes out first.
        let req = b.take_output().unwrap();
        assert_eq!(req.kind(), PacketKind::BlockWrite);
        assert_eq!(req.sub(), SubKind::Request);
        b.tick(1);
        assert!(!b.has_output(), "no data before grant");
        // Grant arrives.
        b.handle_response(resp(PacketKind::BlockWrite, SubKind::Ack, 0, 0), 2);
        // Four data flits stream out one per cycle.
        let mut data = Vec::new();
        for now in 3..12 {
            b.tick(now);
            if let Some(f) = b.take_output() {
                data.push(f);
            }
        }
        assert_eq!(data.len(), 4);
        for (i, f) in data.iter().enumerate() {
            assert_eq!(f.sub(), SubKind::Data);
            assert_eq!(f.seq() as usize, i);
            assert_eq!(f.payload(), (i + 1) as u32);
        }
        assert!(b.take_result().is_none(), "still awaiting final ack");
        b.handle_response(resp(PacketKind::BlockWrite, SubKind::Ack, 1, 0), 12);
        assert_eq!(b.take_result(), Some(BridgeResult::WriteDone));
    }

    #[test]
    fn lock_nack_retries_after_backoff() {
        let mut b = bridge();
        b.start(BridgeOp::Lock { addr: 0x200 });
        let first = b.take_output().unwrap();
        assert_eq!(first.kind(), PacketKind::Lock);
        b.handle_response(resp(PacketKind::Lock, SubKind::Nack, 0, 0), 10);
        assert_eq!(b.backoff_until(), Some(26)); // 10 + default 16
        for now in 11..26 {
            b.tick(now);
            assert!(!b.has_output(), "must wait out the backoff");
        }
        b.tick(26);
        let retry = b.take_output().expect("retry sent");
        assert_eq!(retry.kind(), PacketKind::Lock);
        assert_eq!(retry.payload(), 0x200);
        b.handle_response(resp(PacketKind::Lock, SubKind::Ack, 0, 0), 30);
        assert_eq!(b.take_result(), Some(BridgeResult::LockGranted));
        assert_eq!(b.stats().lock_retries.get(), 1);
    }

    #[test]
    fn unlock_flows() {
        let mut b = bridge();
        b.start(BridgeOp::Unlock { addr: 0x200 });
        drain(&mut b);
        b.handle_response(resp(PacketKind::Unlock, SubKind::Ack, 0, 0), 0);
        assert_eq!(b.take_result(), Some(BridgeResult::UnlockDone));

        b.start(BridgeOp::Unlock { addr: 0x204 });
        drain(&mut b);
        b.handle_response(resp(PacketKind::Unlock, SubKind::Nack, 0, 0), 0);
        assert_eq!(b.take_result(), Some(BridgeResult::UnlockRejected));
    }

    fn resilient_bridge(timeout: Cycle) -> Pif2NocBridge {
        let banks = BankMap::single(Topology::paper_4x4(), NodeId::new(0));
        let cfg = BridgeConfig { response_timeout: timeout, ..BridgeConfig::default() };
        Pif2NocBridge::new(banks, 5, cfg)
    }

    #[test]
    fn lost_single_read_response_is_retried() {
        let mut b = resilient_bridge(20);
        b.start(BridgeOp::SingleRead { addr: 0x40 });
        assert_eq!(b.take_output().unwrap().kind(), PacketKind::SingleRead);
        // Response dropped; the clock arms on the first post-send tick.
        b.tick(5);
        assert_eq!(b.backoff_until(), Some(25));
        for now in 6..25 {
            b.tick(now);
            assert!(!b.has_output());
        }
        b.tick(25);
        let retry = b.take_output().expect("request re-issued");
        assert_eq!(retry.kind(), PacketKind::SingleRead);
        assert_eq!(retry.payload(), 0x40);
        assert_eq!(b.stats().retries.get(), 1);
        // The retried response completes the transaction normally.
        b.handle_response(resp(PacketKind::SingleRead, SubKind::Data, 0, 7), 30);
        assert_eq!(b.take_result(), Some(BridgeResult::Word(7)));
    }

    #[test]
    fn lost_block_word_is_retried_and_stale_words_dropped() {
        let mut b = resilient_bridge(16);
        b.start(BridgeOp::BlockRead { line: 0x80 });
        drain(&mut b);
        b.tick(0);
        // Three of four words arrive; word 3 was dropped by the bank.
        for seq in 0..3u8 {
            b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, seq, seq as u32), 1);
        }
        // Progress re-armed the clock; time out and retry.
        b.tick(2);
        assert_eq!(b.backoff_until(), Some(18));
        b.tick(18);
        let retry = b.take_output().expect("block read re-issued");
        assert_eq!(retry.kind(), PacketKind::BlockRead);
        assert_eq!(b.stats().retries.get(), 1);
        // The full fresh response completes it; a straggler duplicate of
        // the old attempt in between is dropped as stale.
        b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, 0, 0), 20);
        b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, 0, 0), 21); // stale dup
        for seq in 1..4u8 {
            b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, seq, seq as u32 * 10), 22);
        }
        assert_eq!(b.take_result(), Some(BridgeResult::Line([0, 10, 20, 30])));
        assert_eq!(b.stats().stale_responses.get(), 1);
    }

    #[test]
    fn trailing_response_after_completion_is_dropped_when_resilient() {
        let mut b = resilient_bridge(100);
        b.start(BridgeOp::SingleRead { addr: 0x40 });
        drain(&mut b);
        b.handle_response(resp(PacketKind::SingleRead, SubKind::Data, 0, 1), 1);
        assert_eq!(b.take_result(), Some(BridgeResult::Word(1)));
        // A late duplicate (delayed copy of the same response) arrives
        // while idle: dropped, not a panic.
        b.handle_response(resp(PacketKind::SingleRead, SubKind::Data, 0, 1), 9);
        assert_eq!(b.stats().stale_responses.get(), 1);
        assert!(!b.is_busy());
    }

    #[test]
    fn timeout_zero_keeps_strict_protocol() {
        let mut b = bridge();
        b.start(BridgeOp::SingleRead { addr: 0x40 });
        drain(&mut b);
        for now in 0..10_000 {
            b.tick(now);
            assert!(!b.has_output(), "no retry without a timeout");
        }
        assert_eq!(b.stats().retries.get(), 0);
    }

    #[test]
    fn transactions_route_to_their_owning_bank() {
        // Two banks on the 4×4 torus: node 0 at (0,0) and node 10 at
        // (2,2). Even lines go to bank 0, odd lines to bank 1.
        let topo = Topology::paper_4x4();
        let banks = BankMap::new(topo, &[NodeId::new(0), NodeId::new(10)]).unwrap();
        let mut b = Pif2NocBridge::new(banks, 5, BridgeConfig::default());

        b.start(BridgeOp::SingleRead { addr: 0x08 }); // line 0 → bank 0
        let req = b.take_output().unwrap();
        assert_eq!(req.dest(), Coord::new(0, 0));
        b.handle_response(resp(PacketKind::SingleRead, SubKind::Data, 0, 1), 0);
        assert_eq!(b.take_result(), Some(BridgeResult::Word(1)));

        b.start(BridgeOp::BlockRead { line: 0x10 }); // line 1 → bank 1
        let req = b.take_output().unwrap();
        assert_eq!(req.dest(), Coord::new(2, 2));
        for seq in 0..4u8 {
            // Responses from bank 1 carry its node index as src id.
            let f =
                Flit::new(Coord::new(1, 1), PacketKind::BlockRead, SubKind::Data, seq, 0, 10, 7);
            b.handle_response(f, 0);
        }
        assert_eq!(b.take_result(), Some(BridgeResult::Line([7; 4])));

        // Lock/unlock follow the word's bank, including the Nack retry.
        b.start(BridgeOp::Lock { addr: 0x14 }); // line 1 → bank 1
        let req = b.take_output().unwrap();
        assert_eq!(req.dest(), Coord::new(2, 2));
        let nack = Flit::new(Coord::new(1, 1), PacketKind::Lock, SubKind::Nack, 0, 0, 10, 0);
        b.handle_response(nack, 0);
        for now in 1..=16 {
            b.tick(now);
        }
        let retry = b.take_output().expect("retry after backoff");
        assert_eq!(retry.dest(), Coord::new(2, 2), "retry must target the same bank");
    }

    #[test]
    #[should_panic(expected = "bank")]
    fn block_data_from_wrong_bank_panics() {
        let topo = Topology::paper_4x4();
        let banks = BankMap::new(topo, &[NodeId::new(0), NodeId::new(10)]).unwrap();
        let mut b = Pif2NocBridge::new(banks, 5, BridgeConfig::default());
        b.start(BridgeOp::BlockRead { line: 0x10 }); // bank 1 (src 10)
        drain(&mut b);
        let stray = Flit::new(Coord::new(1, 1), PacketKind::BlockRead, SubKind::Data, 0, 0, 0, 9);
        b.handle_response(stray, 0);
    }

    #[test]
    #[should_panic(expected = "transaction overlap")]
    fn overlapping_transactions_panic() {
        let mut b = bridge();
        b.start(BridgeOp::SingleRead { addr: 0 });
        b.start(BridgeOp::SingleRead { addr: 4 });
    }

    #[test]
    #[should_panic(expected = "duplicate block-read word")]
    fn duplicate_block_word_panics() {
        let mut b = bridge();
        b.start(BridgeOp::BlockRead { line: 0 });
        drain(&mut b);
        b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, 1, 1), 0);
        b.handle_response(resp(PacketKind::BlockRead, SubKind::Data, 1, 1), 0);
    }
}
