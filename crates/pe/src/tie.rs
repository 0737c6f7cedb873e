//! TIE message-passing receive interface.
//!
//! §II-B, Fig. 2: incoming message flits carry a sequence number that the
//! receiver uses "as an offset address for the storage into the processor
//! data memory", with a double-buffer so a new logical packet can assemble
//! while the previous one is being consumed — no sorting buffer is needed
//! despite out-of-order delivery.
//!
//! We model reassembly per source: each source has up to
//! [`TieReceiver::PARTIAL_BUFFERS`] in-flight partial packets (the double
//! buffer). A flit joins the oldest partial packet from its source that
//! still misses its sequence slot; completed packets queue for the PE.
//! Single-flit packets (burst code 1 — eMPI credits and barrier tokens)
//! are complete on arrival and bypass the reassembly buffers entirely:
//! the seq-as-offset copy of a one-word burst needs no buffered state, so
//! a credit can overtake two in-flight data packets from the same source
//! without exhausting the double buffer — the property the full-duplex
//! `Empi::sendrecv` exchange relies on.
//!
//! # Attribution assumption (inherited from the physical design)
//!
//! The wire format (Fig. 5) carries no packet id, so when two consecutive
//! packets from one source are in flight, a flit can only be attributed by
//! its free sequence slot. Attribution is exact provided the network never
//! reorders two *same-sequence-number* flits of consecutive packets — a
//! bounded-reorder assumption inherited from the eMPI credit window (at
//! most two packets in flight, injected ≥ 16 cycles apart, while observed
//! reorder is a few cycles). The same assumption covers *completion*
//! order: a single-flit packet (a token) injected after a multi-flit
//! packet's last flit completes out of order only if deflections delay
//! that tail by more than the injection gap — the same bounded-reorder
//! window, and true before the burst-1 bypass too whenever a reassembly
//! buffer was free. The physical seq-number-as-offset receiver
//! has exactly the same contract. Because deflection pressure grows with
//! torus size, the assumption is re-checked numerically rather than taken
//! on faith: the 63-rank Jacobi test validates every grid cell bit-for-bit
//! against the sequential reference on a fully populated 8×8 torus, and
//! the `scaling_json` harness does the same for the 255-PE 16×16
//! configuration on every full run.

use medea_noc::flit::{Flit, MAX_LOGICAL_PACKET};
use medea_sim::stats::Counter;
use std::collections::VecDeque;

/// A fully reassembled logical packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Application-level source id (node index of the sender).
    pub src: u8,
    /// Payload words, in sequence order.
    pub data: Vec<u32>,
    /// Whether any constituent flit arrived with a failed payload
    /// checksum (in-flight corruption). Resilient receivers (eMPI) must
    /// discard such packets and request retransmission; the flag is
    /// delivered rather than the packet dropped so non-resilient runs
    /// keep the paper's semantics (data is used as-is).
    pub corrupt: bool,
}

/// Receive-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieStats {
    /// Message flits delivered to this receiver.
    pub flits_received: Counter,
    /// Completed logical packets.
    pub packets_completed: Counter,
    /// Flits that could not be attributed to a partial packet (more than
    /// two packets from one source interleaved — beyond the double buffer).
    pub buffer_overflows: Counter,
    /// Flits whose payload checksum failed on arrival (corrupted in
    /// flight by fault injection).
    pub corrupt_flits: Counter,
}

#[derive(Debug, Clone)]
struct Partial {
    slots: [Option<u32>; MAX_LOGICAL_PACKET],
    expect: usize,
    got: usize,
    corrupt: bool,
}

impl Partial {
    fn new(expect: usize) -> Self {
        Partial { slots: [None; MAX_LOGICAL_PACKET], expect, got: 0, corrupt: false }
    }

    fn accepts(&self, seq: usize, expect: usize) -> bool {
        self.expect == expect && seq < self.expect && self.slots[seq].is_none()
    }

    fn insert(&mut self, seq: usize, word: u32) -> bool {
        debug_assert!(self.slots[seq].is_none());
        self.slots[seq] = Some(word);
        self.got += 1;
        self.got == self.expect
    }

    fn into_words(self) -> Vec<u32> {
        self.slots.into_iter().take(self.expect).map(|w| w.expect("complete")).collect()
    }
}

/// Sequence-number reassembly unit with per-source double buffering.
#[derive(Debug, Clone)]
pub struct TieReceiver {
    /// Indexed by source node id; grown on demand up to the 256 nodes of
    /// the largest (16×16) torus, so an idle receiver on a small system
    /// stays small.
    partials: Vec<VecDeque<Partial>>,
    completed: VecDeque<Packet>,
    stats: TieStats,
}

impl TieReceiver {
    /// In-flight partial packets per source — the paper's double buffer.
    pub const PARTIAL_BUFFERS: usize = 2;

    /// New, empty receiver.
    pub fn new() -> Self {
        TieReceiver { partials: Vec::new(), completed: VecDeque::new(), stats: TieStats::default() }
    }

    /// Receive statistics.
    pub const fn stats(&self) -> &TieStats {
        &self.stats
    }

    /// Deliver one message flit.
    ///
    /// Multi-flit packets beyond the double-buffer capacity are dropped
    /// and counted in [`TieStats::buffer_overflows`] — software (eMPI)
    /// must not keep more than two *data* packets per source in flight,
    /// and the eMPI credit window guarantees it. Single-flit packets are
    /// complete on arrival and never occupy a reassembly buffer.
    pub fn deliver(&mut self, flit: Flit) {
        debug_assert!(!flit.kind().is_shared_memory(), "TIE receives message flits only");
        self.stats.flits_received.inc();
        let corrupt = !flit.checksum_ok();
        if corrupt {
            self.stats.corrupt_flits.inc();
        }
        let src = flit.src_id() as usize;
        let seq = flit.seq() as usize;
        let expect = flit.burst_flits();
        if expect == 1 {
            // Burst-1 packets (credits, tokens) need no reassembly state.
            self.stats.packets_completed.inc();
            self.completed.push_back(Packet {
                src: src as u8,
                data: vec![flit.payload()],
                corrupt,
            });
            return;
        }
        if src >= self.partials.len() {
            self.partials.resize_with(src + 1, VecDeque::new);
        }
        let queue = &mut self.partials[src];
        let idx = queue.iter().position(|p| p.accepts(seq, expect));
        let idx = match idx {
            Some(i) => i,
            None => {
                if queue.len() >= Self::PARTIAL_BUFFERS {
                    self.stats.buffer_overflows.inc();
                    return;
                }
                queue.push_back(Partial::new(expect));
                queue.len() - 1
            }
        };
        queue[idx].corrupt |= corrupt;
        if queue[idx].insert(seq, flit.payload()) {
            let done = queue.remove(idx).expect("index valid");
            self.stats.packets_completed.inc();
            let corrupt = done.corrupt;
            self.completed.push_back(Packet { src: src as u8, data: done.into_words(), corrupt });
        }
    }

    /// Pop the oldest completed packet, optionally filtered by source.
    pub fn take_packet(&mut self, from: Option<u8>) -> Option<Packet> {
        match from {
            None => self.completed.pop_front(),
            Some(src) => {
                let idx = self.completed.iter().position(|p| p.src == src)?;
                self.completed.remove(idx)
            }
        }
    }

    /// Whether a completed packet (from `from`, if given) is waiting.
    pub fn has_packet(&self, from: Option<u8>) -> bool {
        match from {
            None => !self.completed.is_empty(),
            Some(src) => self.completed.iter().any(|p| p.src == src),
        }
    }

    /// Number of completed packets waiting.
    pub fn pending_packets(&self) -> usize {
        self.completed.len()
    }

    /// Whether any partial packet is still assembling.
    pub fn has_partials(&self) -> bool {
        self.partials.iter().any(|q| !q.is_empty())
    }

    /// Number of partial packets still assembling (across all sources).
    pub fn partial_packets(&self) -> usize {
        self.partials.iter().map(VecDeque::len).sum()
    }
}

impl Default for TieReceiver {
    fn default() -> Self {
        TieReceiver::new()
    }
}

/// Split a payload into the message flits of one logical packet.
///
/// # Panics
///
/// Panics if `payload` is empty or longer than [`MAX_LOGICAL_PACKET`]
/// (the 4-bit sequence-number bound; longer transfers are split into
/// multiple packets by the eMPI layer).
pub fn packetize(dest: medea_noc::coord::Coord, src_id: u8, payload: &[u32]) -> Vec<Flit> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_LOGICAL_PACKET,
        "logical packet must contain 1..={MAX_LOGICAL_PACKET} flits, got {}",
        payload.len()
    );
    let burst = medea_noc::flit::burst_code(payload.len());
    // The burst code may cover more flits than sent ({1,2,4,16} encoding);
    // pad so the receiver's expectation is met exactly.
    let padded = medea_noc::flit::burst_len(burst);
    (0..padded)
        .map(|i| {
            let word = payload.get(i).copied().unwrap_or(0);
            Flit::message(dest, src_id, i as u8, burst, word)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_noc::coord::Coord;

    fn msg(src: u8, seq: u8, burst: u8, word: u32) -> Flit {
        Flit::message(Coord::new(0, 0), src, seq, burst, word)
    }

    #[test]
    fn in_order_reassembly() {
        let mut rx = TieReceiver::new();
        for i in 0..4u8 {
            rx.deliver(msg(3, i, 2, 100 + i as u32)); // burst code 2 = 4 flits
        }
        let p = rx.take_packet(None).expect("complete");
        assert_eq!(p.src, 3);
        assert_eq!(p.data, vec![100, 101, 102, 103]);
        assert!(!rx.has_partials());
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut rx = TieReceiver::new();
        for i in [3u8, 0, 2, 1] {
            rx.deliver(msg(1, i, 2, i as u32));
        }
        let p = rx.take_packet(Some(1)).expect("complete");
        assert_eq!(p.data, vec![0, 1, 2, 3]);
    }

    #[test]
    fn double_buffer_two_interleaved_packets() {
        let mut rx = TieReceiver::new();
        // Packet A (4 flits) and packet B (4 flits) from the same source,
        // interleaved. A flit with a seq slot already filled in the oldest
        // partial goes to the second buffer.
        rx.deliver(msg(2, 0, 2, 10)); // A0
        rx.deliver(msg(2, 0, 2, 20)); // B0 (slot 0 taken -> second buffer)
        rx.deliver(msg(2, 1, 2, 11)); // A1 (oldest missing slot 1)
        rx.deliver(msg(2, 2, 2, 12));
        rx.deliver(msg(2, 1, 2, 21));
        rx.deliver(msg(2, 3, 2, 13)); // A completes
        let a = rx.take_packet(Some(2)).unwrap();
        assert_eq!(a.data, vec![10, 11, 12, 13]);
        rx.deliver(msg(2, 2, 2, 22));
        rx.deliver(msg(2, 3, 2, 23));
        let b = rx.take_packet(Some(2)).unwrap();
        assert_eq!(b.data, vec![20, 21, 22, 23]);
        assert_eq!(rx.stats().packets_completed.get(), 2);
        assert_eq!(rx.stats().buffer_overflows.get(), 0);
    }

    #[test]
    fn triple_interleave_overflows() {
        let mut rx = TieReceiver::new();
        rx.deliver(msg(2, 0, 2, 1));
        rx.deliver(msg(2, 0, 2, 2));
        rx.deliver(msg(2, 0, 2, 3)); // third packet: beyond double buffer
        assert_eq!(rx.stats().buffer_overflows.get(), 1);
    }

    #[test]
    fn single_flit_bypasses_full_double_buffer() {
        // Two multi-flit packets from source 2 are mid-reassembly; a
        // single-flit packet (an eMPI credit) from the same source must
        // still complete — it carries no reassembly state.
        let mut rx = TieReceiver::new();
        rx.deliver(msg(2, 0, 2, 10)); // packet A assembling
        rx.deliver(msg(2, 0, 2, 20)); // packet B assembling
        rx.deliver(msg(2, 0, 0, 99)); // burst-1 credit
        assert_eq!(rx.stats().buffer_overflows.get(), 0);
        let credit = rx.take_packet(Some(2)).expect("credit completed");
        assert_eq!(credit.data, vec![99]);
        assert!(rx.has_partials(), "data packets still assembling");
    }

    #[test]
    fn corrupt_flit_taints_its_packet_only() {
        let mut rx = TieReceiver::new();
        // 4-flit packet with one corrupted flit.
        for i in 0..4u8 {
            let mut f = msg(5, i, 2, 40 + i as u32);
            if i == 2 {
                f.corrupt_payload_bit(11);
            }
            rx.deliver(f);
        }
        // A clean single-flit credit from the same source.
        rx.deliver(msg(5, 0, 0, 1));
        let tainted = rx.take_packet(Some(5)).unwrap();
        assert!(tainted.corrupt);
        assert_eq!(tainted.data.len(), 4);
        let credit = rx.take_packet(Some(5)).unwrap();
        assert!(!credit.corrupt);
        assert_eq!(rx.stats().corrupt_flits.get(), 1);
    }

    #[test]
    fn sources_are_independent() {
        let mut rx = TieReceiver::new();
        rx.deliver(msg(1, 0, 0, 5)); // single-flit packet from 1
        rx.deliver(msg(4, 0, 0, 6)); // single-flit packet from 4
        assert!(rx.has_packet(Some(4)));
        let p = rx.take_packet(Some(4)).unwrap();
        assert_eq!(p.data, vec![6]);
        assert_eq!(rx.take_packet(None).unwrap().src, 1);
        assert_eq!(rx.pending_packets(), 0);
    }

    #[test]
    fn high_node_ids_reassemble() {
        // Sources beyond the paper's 16 nodes (e.g. node 255 of a 16x16
        // torus) get buffers on demand.
        let mut rx = TieReceiver::new();
        rx.deliver(msg(255, 0, 0, 77));
        rx.deliver(msg(17, 0, 0, 78));
        assert_eq!(rx.take_packet(Some(255)).unwrap().data, vec![77]);
        assert_eq!(rx.take_packet(Some(17)).unwrap().data, vec![78]);
    }

    #[test]
    fn packetize_roundtrip() {
        let mut rx = TieReceiver::new();
        let payload = vec![7, 8, 9]; // padded to 4 by the {1,2,4,16} code
        let flits = packetize(Coord::new(0, 0), 6, &payload);
        assert_eq!(flits.len(), 4);
        for f in flits {
            rx.deliver(f);
        }
        let p = rx.take_packet(Some(6)).unwrap();
        assert_eq!(&p.data[..3], &[7, 8, 9]);
    }

    #[test]
    fn packetize_single_word() {
        let flits = packetize(Coord::new(1, 1), 2, &[42]);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].burst_flits(), 1);
    }

    #[test]
    #[should_panic(expected = "logical packet")]
    fn packetize_oversized_panics() {
        let payload = vec![0u32; MAX_LOGICAL_PACKET + 1];
        packetize(Coord::new(0, 0), 0, &payload);
    }
}
