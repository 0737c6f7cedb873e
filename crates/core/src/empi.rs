//! The embedded-MPI layer (§II-E), as a first-class communicator.
//!
//! "For the message-passing model, we implemented a sub-set of MPI APIs
//! called embedded-MPI (eMPI). With just three basic primitives,
//! MPI_send(), MPI_receive() and MPI_barrier() for synchronization, a
//! direct communication between cores is possible totally avoiding in some
//! cases the access to the global-memory."
//!
//! The reproduction grows the paper's three primitives into a
//! communicator object: one per kernel, wrapping its API, exposing
//! point-to-point transfers ([`AsyncEmpi::send`], [`AsyncEmpi::recv`],
//! [`AsyncEmpi::sendrecv`]) and the collective surface
//! ([`AsyncEmpi::barrier`], [`AsyncEmpi::bcast`], [`AsyncEmpi::reduce`],
//! [`AsyncEmpi::allreduce`], [`AsyncEmpi::gather`],
//! [`AsyncEmpi::scatter`]) on top of them.
//!
//! The protocol engines, the collectives and the f64 helpers are written
//! once, as `async` methods of [`AsyncEmpi`], for both kernel kinds (see
//! [`crate::api`]): a task kernel wraps its [`AsyncPeApi`] in an
//! [`AsyncEmpi`] and awaits each operation; a thread kernel wraps its
//! [`PeApi`] in an [`Empi`], whose methods drive the same operations over
//! the kernel thread's port. Both issue the same request stream.
//!
//! # Framing
//!
//! The hardware delivers *logical packets* of at most 16 words, padded to
//! the burst-code granularity `{1, 2, 4, 16}` (the 2-bit burst-size field
//! of Fig. 5); eMPI adds a one-word frame header so arbitrary-length
//! messages survive padding and packet-completion reordering:
//!
//! ```text
//! header = (kind << 28) | (message_len_words << 8) | chunk_index
//! packet = [header, up to 15 data words]
//! ```
//!
//! The chunk index is an 8-bit field, so a message spans at most
//! [`MAX_CHUNKS`] = 256 chunks of [`CHUNK_DATA_WORDS`] = 15 words:
//! [`MAX_MESSAGE_WORDS`] = 3840 words is the real limit. (The 20-bit
//! length field could describe far longer messages; the chunk index is
//! the binding constraint, and the asserts below enforce it.)
//!
//! # Flow control
//!
//! The TIE receiver reassembles at most two *data* packets per source at
//! a time (the paper's double buffer, Fig. 2-b). Messages of up to two
//! chunks are therefore sent *eagerly*. Longer messages use a credit
//! protocol that keeps at most two data packets in flight: the receiver
//! returns one credit packet per two data chunks consumed, and the sender
//! blocks on a credit before every even-indexed chunk from the third
//! onward. Credits are single-flit packets and bypass the reassembly
//! buffers, so they can overtake in-flight data. This is our software
//! reading of the request/data distinction the paper gives the
//! message-passing subtype field (§II-D).
//!
//! Two ranks must therefore never run credit-window [`Empi::send`]s *to
//! each other* concurrently — the classic unbuffered-MPI exchange
//! deadlock. [`Empi::sendrecv`] makes that footgun unrepresentable: it
//! runs both directions through one progress engine that services
//! incoming data (granting credits) while its own send waits for credits,
//! so symmetric exchanges — halo swaps, recursive-doubling rounds — need
//! no even/odd phasing. A bare `send` that meets opposite-direction data
//! while awaiting a credit still panics with a diagnostic pointing at
//! `sendrecv`.
//!
//! # Collective algorithms
//!
//! Every collective dispatches on the communicator's [`CollectiveAlgo`],
//! selected via `SystemConfigBuilder::collective_algo` (default
//! [`CollectiveAlgo::Linear`], which reproduces the seed's rank-0-centred
//! message patterns — the paper-4×4 golden fingerprints are pinned to
//! it):
//!
//! | collective  | `Linear`            | `BinomialTree`     | `RecursiveDoubling`   |
//! |-------------|---------------------|--------------------|-----------------------|
//! | `barrier`   | all→0, 0→all        | tree up + down     | pairwise log₂ rounds  |
//! | `bcast`     | root→each           | binomial tree      | binomial tree         |
//! | `reduce`    | each→root, in order | binomial tree      | doubling (all ranks)  |
//! | `allreduce` | reduce + bcast      | reduce + bcast     | pairwise log₂ rounds  |
//! | `gather`    | each→root, in order | each→root          | each→root             |
//! | `scatter`   | root→each, in order | root→each          | root→each             |
//!
//! `gather`/`scatter` move distinct per-rank payloads, so a tree cannot
//! reduce their total data volume; they stay linear under every
//! algorithm. `RecursiveDoubling` is inherently an all-ranks algorithm:
//! its `reduce` runs the doubling exchange and simply discards the result
//! everywhere but the root, and its rooted `bcast` falls back to the
//! binomial tree. The linear barrier costs O(ranks) serialized messages
//! through rank 0; both tree algorithms cost O(log ranks) rounds — the
//! difference the `scaling_json` collectives microbench records at up to
//! 255 ranks.
//!
//! # Resilient delivery (beyond the paper)
//!
//! When the system is built with `ResilienceConfig::empi_retransmit`,
//! every point-to-point path switches to an end-to-end ARQ engine that
//! survives in-flight payload corruption (`medea-fault` flit faults):
//!
//! - The header gains a 2-bit kind (adding `NACK` and `ACK`) and an
//!   alternating-bit **serial** (bit 30) that pairs every control packet
//!   with the message generation it refers to, so a stale retransmit can
//!   never corrupt the next message between the same pair of ranks.
//! - Packets whose flit checksum failed arrive with `corrupt = true`
//!   (`Packet::corrupt`); the receiver discards them and NACKs its
//!   lowest missing chunk. Receivers also NACK on a timeout with bounded
//!   exponential backoff, which doubles as the lost-credit recovery: a
//!   NACK *pulls* the sender's window forward (`next = max(next, c+1)`)
//!   even when the credit it replaces was corrupted.
//! - The sender keeps the last message per destination and blocks (by
//!   polling) for an `ACK` after the final chunk, re-poking the last
//!   chunk on timeout; receivers re-`ACK` stale-serial data so a
//!   corrupted `ACK` is always recoverable. After
//!   `empi_max_attempts` unanswered pokes the sender proceeds
//!   optimistically — the engine watchdog is the backstop for the
//!   (astronomically unlikely) case that this was wrong.
//!
//! The fault-free wire traffic of a resilient run differs from the
//! default protocol (ACK round-trips, polling instead of blocking), so
//! resilience is a deliberate system-level knob, never implied by fault
//! injection; with it off, every path below is byte-identical to the
//! pinned golden behavior.

use crate::api::{drive, AsyncPeApi, PeApi};
use crate::calib::CALL_OVERHEAD_CYCLES;
use medea_pe::kernel_if::{f64_to_words, words_to_f64};
use medea_sim::ids::Rank;
use medea_trace::KernelOp;
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::future::Future;

/// Data words per chunk (16-word packet minus the frame header).
pub const CHUNK_DATA_WORDS: usize = 15;

/// Chunks that may be in flight without credits (the TIE double buffer).
pub const EAGER_CHUNKS: usize = 2;

/// Maximum chunks per message (the 8-bit chunk-index field).
pub const MAX_CHUNKS: usize = 256;

/// Maximum message length in words. Bounded by the chunk-index field
/// (256 chunks × 15 words), *not* by the roomier 20-bit length field.
pub const MAX_MESSAGE_WORDS: usize = MAX_CHUNKS * CHUNK_DATA_WORDS;

const KIND_DATA: u32 = 0;
const KIND_CREDIT: u32 = 1;
/// Resilient-mode retransmission request (header-only packet; the chunk
/// field names the lowest missing chunk).
const KIND_NACK: u32 = 2;
/// Resilient-mode end-to-end delivery confirmation (header-only packet).
const KIND_ACK: u32 = 3;

fn header(kind: u32, len: usize, chunk: usize) -> u32 {
    debug_assert!(len <= MAX_MESSAGE_WORDS);
    debug_assert!(chunk < MAX_CHUNKS);
    (kind << 28) | ((len as u32) << 8) | chunk as u32
}

/// Resilient-mode header: `header` plus the alternating-bit serial in
/// bit 30. The default protocol only ever emits serial 0, so its wire
/// format is unchanged.
fn header_r(kind: u32, serial: u32, len: usize, chunk: usize) -> u32 {
    debug_assert!(serial <= 1);
    header(kind, len, chunk) | (serial << 30)
}

fn parse_header(word: u32) -> (u32, usize, usize) {
    ((word >> 28) & 0x3, ((word >> 8) & 0xF_FFFF) as usize, (word & 0xFF) as usize)
}

/// One classified incoming packet of the resilient protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intake {
    /// Checksum failure — the header itself is untrustworthy.
    Corrupt,
    /// Clean data chunk carrying this serial.
    Data(u32),
    /// Flow-control credit for the send with this serial.
    Credit(u32),
    /// Retransmission request: (serial, missing chunk).
    Nack(u32, usize),
    /// End-to-end confirmation of the send with this serial.
    Ack(u32),
}

fn classify(packet: &[u32], corrupt: bool) -> Intake {
    if corrupt {
        return Intake::Corrupt;
    }
    let (kind, _, chunk) = parse_header(packet[0]);
    let serial = (packet[0] >> 30) & 1;
    match kind {
        KIND_DATA => Intake::Data(serial),
        KIND_CREDIT => Intake::Credit(serial),
        KIND_NACK => Intake::Nack(serial, chunk),
        KIND_ACK => Intake::Ack(serial),
        _ => unreachable!("kind is a 2-bit field"),
    }
}

fn chunks_of(words: &[u32]) -> usize {
    if words.is_empty() {
        1
    } else {
        words.len().div_ceil(CHUNK_DATA_WORDS)
    }
}

/// The data packet for chunk `idx` of `words`, behind frame header `head`.
fn chunk_packet(head: u32, words: &[u32], idx: usize) -> Vec<u32> {
    let mut packet = Vec::with_capacity(1 + CHUNK_DATA_WORDS);
    packet.push(head);
    if !words.is_empty() {
        let base = idx * CHUNK_DATA_WORDS;
        let end = (base + CHUNK_DATA_WORDS).min(words.len());
        packet.extend_from_slice(&words[base..end]);
    }
    packet
}

/// The retransmission cache: the last message sent to one destination.
#[derive(Debug)]
struct SentMsg {
    serial: u32,
    words: Vec<u32>,
}

/// The resilient protocol's per-peer state. All three maps stay empty
/// when retransmission is off.
#[derive(Debug, Default)]
struct ArqState {
    /// Last message per destination, kept for NACK-driven retransmission
    /// until overwritten by the next send to the same rank.
    sent_cache: HashMap<u8, SentMsg>,
    /// Alternating-bit serial of the *latest* message sent per
    /// destination.
    send_serials: HashMap<u8, u32>,
    /// Alternating-bit serial of the *last completed* message received
    /// per source (the next expected serial is its complement).
    recv_serials: HashMap<u8, u32>,
}

/// Which algorithm the communicator's collectives run (see the module
/// docs for the per-collective table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectiveAlgo {
    /// Rank-0-centred linear patterns — the seed behavior, O(ranks)
    /// serialized messages. The default, so the paper-4×4 golden
    /// fingerprints stay a deliberate choice.
    #[default]
    Linear,
    /// Binomial trees rooted at the collective's root — O(log ranks)
    /// rounds for barrier/bcast/reduce.
    BinomialTree,
    /// Recursive doubling — O(log ranks) pairwise exchange rounds for
    /// barrier/allreduce; rooted collectives fall back to the tree.
    RecursiveDoubling,
}

impl fmt::Display for CollectiveAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveAlgo::Linear => write!(f, "linear"),
            CollectiveAlgo::BinomialTree => write!(f, "binomial-tree"),
            CollectiveAlgo::RecursiveDoubling => write!(f, "recursive-doubling"),
        }
    }
}

impl CollectiveAlgo {
    /// All selectable algorithms, for sweeps and benches.
    pub const ALL: [CollectiveAlgo; 3] =
        [CollectiveAlgo::Linear, CollectiveAlgo::BinomialTree, CollectiveAlgo::RecursiveDoubling];
}

/// The eMPI communicator of a task kernel: one per kernel, owning its
/// [`AsyncPeApi`]; every operation is `async`.
///
/// Derefs to the wrapped API, so kernels keep direct access to
/// loads/stores, coherence operations and raw TIE messaging through the
/// communicator. The protocol engines and collectives are written once,
/// here: the sync [`Empi`] is this communicator over a thread kernel's
/// [`PeApi`] (`A = PeApi`), driving the same operations.
#[derive(Debug)]
pub struct AsyncEmpi<A = AsyncPeApi> {
    api: A,
    algo: CollectiveAlgo,
    /// Resilient-delivery knobs (`ResilienceConfig` on the system).
    resilience: crate::config::ResilienceConfig,
    /// Borrowed only between awaits, never across one.
    arq: RefCell<ArqState>,
}

impl<A> std::ops::Deref for AsyncEmpi<A> {
    type Target = A;

    fn deref(&self) -> &A {
        &self.api
    }
}

impl<A: AsRef<AsyncPeApi>> AsyncEmpi<A> {
    /// Wrap a kernel's API, adopting the algorithm configured on the
    /// system (`SystemConfigBuilder::collective_algo`).
    pub fn new(api: A) -> Self {
        let algo = api.as_ref().collective_algo();
        let resilience = api.as_ref().resilience();
        AsyncEmpi { api, algo, resilience, arq: RefCell::default() }
    }

    /// The operations every protocol step issues.
    fn pe(&self) -> &AsyncPeApi {
        self.api.as_ref()
    }

    fn arq(&self) -> RefMut<'_, ArqState> {
        self.arq.borrow_mut()
    }

    /// Whether the end-to-end retransmission protocol is active.
    const fn resilient(&self) -> bool {
        self.resilience.empi_retransmit
    }

    /// The algorithm this communicator's collectives run.
    pub const fn algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// The wrapped API.
    pub const fn api(&self) -> &A {
        &self.api
    }

    /// Delimit `body` with kernel-level trace span markers for `op` — a
    /// no-op (and zero simulated cycles regardless) unless the run's trace
    /// sink is active or metrics are on. The operation's library call
    /// overhead is charged inside the span.
    async fn span<R>(&self, op: KernelOp, body: impl Future<Output = R>) -> R {
        self.pe().trace_span_begin(op).await;
        self.pe().compute(CALL_OVERHEAD_CYCLES).await;
        let result = body.await;
        self.pe().trace_span_end(op).await;
        result
    }

    // ---- point to point ----

    /// MPI_send: transmit `words` to `to`, blocking until the last flit
    /// enters the sender's arbiter (eager) or until the receiver has
    /// granted credits for every chunk (windowed).
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds [`MAX_MESSAGE_WORDS`], or if a data
    /// packet arrives while awaiting a credit (opposite-direction sends —
    /// use [`AsyncEmpi::sendrecv`] for symmetric exchanges).
    pub async fn send(&self, to: Rank, words: &[u32]) {
        self.point_to_point(KernelOp::MsgSend, Some(to), words, None).await;
    }

    /// Transmit chunk `idx` of `words`.
    async fn send_chunk(&self, to: Rank, words: &[u32], idx: usize) {
        let packet = chunk_packet(header(KIND_DATA, words.len(), idx), words, idx);
        self.pe().send_packet(to, packet).await;
    }

    /// MPI_receive: block until the complete message from `from` has
    /// arrived.
    ///
    /// # Panics
    ///
    /// Panics on interleaved messages from the same source (two `send`s to
    /// the same destination without an intervening `recv` pairing) and on
    /// unexpected credit packets.
    pub async fn recv(&self, from: Rank) -> Vec<u32> {
        self.point_to_point(KernelOp::MsgRecv, None, &[], Some(from))
            .await
            .expect("recv direction present")
    }

    /// MPI_sendrecv: send `words` to `to` while receiving one message from
    /// `from`, through a single full-duplex progress engine. `None` on
    /// either side skips that direction (MPI_PROC_NULL), so boundary ranks
    /// of a halo exchange need no special-casing. Returns the received
    /// message when `from` is present.
    ///
    /// Unlike back-to-back `send`/`recv`, the engine services incoming
    /// data — granting flow-control credits — while its own send is
    /// blocked on a credit, so two ranks may exchange windowed messages
    /// *with each other* concurrently, and chains/rings of exchanges
    /// pipeline instead of serializing.
    pub async fn sendrecv(
        &self,
        to: Option<Rank>,
        words: &[u32],
        from: Option<Rank>,
    ) -> Option<Vec<u32>> {
        self.point_to_point(KernelOp::Sendrecv, to, words, from).await
    }

    /// The one dispatch behind every point-to-point call: a trace span
    /// for `op` (with the library call overhead), then the protocol's
    /// engine — [`AsyncEmpi::duplex`] by default,
    /// [`AsyncEmpi::resilient_engine`] with retransmission on.
    async fn point_to_point(
        &self,
        op: KernelOp,
        to: Option<Rank>,
        words: &[u32],
        from: Option<Rank>,
    ) -> Option<Vec<u32>> {
        self.span(op, async {
            if self.resilient() {
                self.resilient_engine(to, words, from).await
            } else {
                self.duplex(to, words, from).await
            }
        })
        .await
    }

    /// The default protocol's point-to-point engine: transmit `words` to
    /// `to` (if present) while receiving one message from `from` (if
    /// present), with one transmit state machine (chunk cursor + credit
    /// allowance) and one receive state machine, advanced until both
    /// complete. With one side absent it is a plain send or receive:
    /// a send waits for a credit before every even chunk from the third
    /// on, a receive blocks on its source, and an empty message is a bare
    /// header.
    async fn duplex(
        &self,
        to: Option<Rank>,
        words: &[u32],
        from: Option<Rank>,
    ) -> Option<Vec<u32>> {
        let pe = self.pe();
        let total_tx = match to {
            Some(_) => {
                assert!(
                    words.len() <= MAX_MESSAGE_WORDS,
                    "message of {} words exceeds the {MAX_MESSAGE_WORDS}-word eMPI limit \
                     ({MAX_CHUNKS} chunks of {CHUNK_DATA_WORDS} words)",
                    words.len()
                );
                chunks_of(words)
            }
            None => 0,
        };
        let mut next = 0usize; // next chunk to transmit
        let mut allowance = EAGER_CHUNKS; // chunks the credit window permits
        let mut rx = RxState::new();
        let take_credit = |to: Rank, allowance: &mut usize, credit: &[u32]| {
            let cause = if from.is_none() {
                "overlapping opposite-direction sends — use Empi::sendrecv for the exchange"
            } else {
                "a third party is sending into this exchange"
            };
            assert_eq!(
                parse_header(credit[0]).0,
                KIND_CREDIT,
                "expected a credit from {to} but got a data packet: {cause}"
            );
            *allowance += EAGER_CHUNKS;
        };
        let expect_data = |from: Rank, packet: &[u32]| {
            assert_eq!(
                parse_header(packet[0]).0,
                KIND_DATA,
                "unexpected credit packet from {from} while receiving"
            );
        };
        loop {
            let tx_done = next >= total_tx;
            let rx_done = from.is_none() || rx.done();
            if tx_done && rx_done {
                break;
            }
            if !tx_done && next < allowance {
                let to = to.expect("transmitting implies a destination");
                self.send_chunk(to, words, next).await;
                next += 1;
                continue;
            }
            // Transmit is blocked on a credit and/or the receive is still
            // incomplete: service whatever arrives next.
            match (to, from) {
                (Some(to), Some(from)) if to == from => {
                    let packet = pe.recv_from_rank(from).await;
                    if parse_header(packet[0]).0 == KIND_CREDIT {
                        assert!(!tx_done, "credit from {from} after the last chunk was sent");
                        allowance += EAGER_CHUNKS;
                    } else {
                        rx.accept(pe, from, &packet).await;
                    }
                }
                // Only the receive side is pending.
                (_, Some(from)) if tx_done => {
                    let packet = pe.recv_from_rank(from).await;
                    expect_data(from, &packet);
                    rx.accept(pe, from, &packet).await;
                }
                // Only the credit wait is pending.
                (Some(to), _) if rx_done => {
                    let credit = pe.recv_from_rank(to).await;
                    take_credit(to, &mut allowance, &credit);
                }
                // Both directions pending against *different* peers: poll
                // each so neither side of the exchange can starve the
                // other (a chain of sendrecvs pipelines instead of
                // cascading serially). TryRecv charges at least one cycle,
                // so the simulation always advances.
                (Some(to), Some(from)) => {
                    if let Some(credit) = pe.try_recv_from_rank(to).await {
                        take_credit(to, &mut allowance, &credit);
                    } else if let Some(packet) = pe.try_recv_from_rank(from).await {
                        expect_data(from, &packet);
                        rx.accept(pe, from, &packet).await;
                    }
                }
                // Handled above: a one-sided exchange waits only on its side.
                (None, _) | (_, None) => unreachable!("one-sided exchange already dispatched"),
            }
        }
        from.map(|_| rx.data)
    }

    // ---- resilient delivery (ARQ engine) ----

    /// The resilient counterpart of [`AsyncEmpi::duplex`]: transmit
    /// `words` to `to` (if present) while receiving one message from
    /// `from` (if present), tolerating corrupt packets via NACK-driven
    /// retransmission and confirming delivery end-to-end (see the module's
    /// *Resilient delivery* section for the protocol).
    ///
    /// Every wait polls (`TryRecv` costs at least one cycle, so the
    /// simulation always advances); timeouts back off exponentially,
    /// capped at 16× `empi_timeout`.
    async fn resilient_engine(
        &self,
        to: Option<Rank>,
        words: &[u32],
        from: Option<Rank>,
    ) -> Option<Vec<u32>> {
        let pe = self.pe();
        let cfg = self.resilience;
        let (tx_serial, total_tx) = match to {
            Some(to) => {
                assert!(
                    words.len() <= MAX_MESSAGE_WORDS,
                    "message of {} words exceeds the {MAX_MESSAGE_WORDS}-word eMPI limit",
                    words.len()
                );
                let serial = self.next_send_serial(to);
                self.arq()
                    .sent_cache
                    .insert(to.index() as u8, SentMsg { serial, words: words.to_vec() });
                (serial, chunks_of(words))
            }
            None => (0, 0),
        };
        let rx_serial = from.map_or(0, |f| self.expected_recv_serial(f));
        let mut next = 0usize; // next chunk to transmit
        let mut allowance = EAGER_CHUNKS; // chunks the credit window permits
        let mut tx_acked = to.is_none();
        let mut rx = RxState::new();
        let mut retransmits = 0u32;
        let mut nacks = 0u32;
        let mut attempt = 0u32;
        let mut deadline = pe.now().await + cfg.empi_timeout;
        loop {
            let rx_done = from.is_none() || rx.done();
            if tx_acked && rx_done {
                break;
            }
            if next < total_tx && next < allowance {
                let to = to.expect("transmitting implies a destination");
                self.send_chunk_r(to, tx_serial, words, next).await;
                next += 1;
                continue;
            }
            // Poll the peers this exchange involves (one poll per
            // iteration keeps the two directions fair).
            let intake = match (to, from) {
                (Some(t), Some(f)) if t != f => match pe.try_recv_from_rank_flagged(t).await {
                    Some((w, c)) => Some((t, w, c)),
                    None => pe.try_recv_from_rank_flagged(f).await.map(|(w, c)| (f, w, c)),
                },
                (Some(p), _) | (None, Some(p)) => {
                    pe.try_recv_from_rank_flagged(p).await.map(|(w, c)| (p, w, c))
                }
                (None, None) => unreachable!(),
            };
            if let Some((peer, pkt, corrupt)) = intake {
                match classify(&pkt, corrupt) {
                    Intake::Corrupt => {
                        // The header is untrustworthy; if our receive is
                        // incomplete this may have been a data chunk —
                        // request the lowest missing one immediately.
                        if from == Some(peer) && !rx.done() {
                            self.send_nack(peer, rx_serial, rx.lowest_missing()).await;
                            nacks += 1;
                        }
                        // A corrupted credit/ACK recovers via our timeout
                        // poke or the peer's timeout NACK.
                    }
                    Intake::Data(s) if from == Some(peer) && s == rx_serial => {
                        rx.accept_r(pe, peer, &pkt, rx_serial).await;
                        if rx.done() {
                            self.send_ack(peer, rx_serial).await;
                            self.commit_recv_serial(peer);
                        }
                    }
                    Intake::Data(s) => {
                        if s == self.expected_recv_serial(peer) {
                            // Fresh data from the tx peer, pipelined ahead
                            // of our matching receive: the peer completed
                            // its side of this exchange and moved on to
                            // its next send to us. Drop it — the message
                            // stays in the peer's retransmission cache,
                            // and our matching receive will NACK-pull the
                            // chunks when it starts.
                        } else {
                            // Stale retransmit (poke) of a message we
                            // already completed: the peer missed our ACK —
                            // re-confirm.
                            self.send_ack(peer, s).await;
                        }
                    }
                    Intake::Credit(s) => {
                        if to == Some(peer) && s == tx_serial {
                            allowance += EAGER_CHUNKS;
                        }
                        // Stale credits (pre-corruption echoes) are inert.
                    }
                    Intake::Nack(s, c) => {
                        if to == Some(peer) && s == tx_serial {
                            // The peer is missing chunk `c` of the live
                            // transmit. A NACK also *pulls* the window:
                            // it substitutes for any credit lost to
                            // corruption, so the transfer degrades to
                            // NACK-paced lockstep instead of stalling.
                            if c < total_tx {
                                self.send_chunk_r(peer, tx_serial, words, c).await;
                                if c < next {
                                    retransmits += 1;
                                }
                            }
                            next = next.max(c + 1);
                            allowance = allowance.max(next);
                        } else {
                            // About an earlier, completed send to `peer`:
                            // serve it from the retransmission cache.
                            retransmits += self.service_cached_nack(peer, s, c).await;
                        }
                    }
                    Intake::Ack(s) => {
                        if to == Some(peer) && s == tx_serial {
                            tx_acked = true;
                        }
                        // Stale ACKs (re-confirmations we no longer need)
                        // are inert.
                    }
                }
                attempt = 0;
                deadline = pe.now().await + cfg.empi_timeout;
            } else if pe.now().await >= deadline {
                attempt += 1;
                if !rx_done {
                    let from = from.expect("rx pending implies a source");
                    self.send_nack(from, rx_serial, rx.lowest_missing()).await;
                    nacks += 1;
                }
                if next >= total_tx && !tx_acked {
                    if attempt > cfg.empi_max_attempts {
                        // Optimistic proceed: every poke went unanswered.
                        // Losing this race requires `empi_max_attempts`
                        // consecutive corrupted control packets; the run
                        // watchdog backstops the residual risk.
                        tx_acked = true;
                    } else {
                        // Poke: resend the final chunk. A receiver that
                        // completed re-ACKs it; one still missing data
                        // NACKs what it needs.
                        let to = to.expect("tx pending implies a destination");
                        self.send_chunk_r(to, tx_serial, words, total_tx - 1).await;
                        retransmits += 1;
                    }
                }
                deadline = pe.now().await + (cfg.empi_timeout << attempt.min(4));
            }
        }
        if retransmits > 0 || nacks > 0 {
            pe.fault_note(retransmits, nacks).await;
        }
        from.map(|_| rx.data)
    }

    /// `send_chunk` with the resilient header (serial bit).
    async fn send_chunk_r(&self, to: Rank, serial: u32, words: &[u32], idx: usize) {
        let packet = chunk_packet(header_r(KIND_DATA, serial, words.len(), idx), words, idx);
        self.pe().send_packet(to, packet).await;
    }

    async fn send_nack(&self, peer: Rank, serial: u32, chunk: usize) {
        self.pe().send_to_rank(peer, &[header_r(KIND_NACK, serial, 0, chunk)]).await;
    }

    async fn send_ack(&self, peer: Rank, serial: u32) {
        self.pe().send_to_rank(peer, &[header_r(KIND_ACK, serial, 0, 0)]).await;
    }

    /// Flip and return the serial for a new message to `to`.
    fn next_send_serial(&self, to: Rank) -> u32 {
        let mut arq = self.arq();
        let s = arq.send_serials.entry(to.index() as u8).or_insert(0);
        *s ^= 1;
        *s
    }

    /// The serial the next message from `from` will carry.
    fn expected_recv_serial(&self, from: Rank) -> u32 {
        self.arq().recv_serials.get(&(from.index() as u8)).copied().unwrap_or(0) ^ 1
    }

    /// Record that the expected message from `from` completed.
    fn commit_recv_serial(&self, from: Rank) {
        let mut arq = self.arq();
        let s = arq.recv_serials.entry(from.index() as u8).or_insert(0);
        *s ^= 1;
    }

    /// Serve a NACK that refers to an already-completed send to `peer`
    /// from the retransmission cache. Returns the number of chunks
    /// retransmitted (0 when the cache has moved past that serial — the
    /// watchdog backstops that pathological interleaving).
    async fn service_cached_nack(&self, peer: Rank, serial: u32, chunk: usize) -> u32 {
        let packet = self.arq().sent_cache.get(&(peer.index() as u8)).and_then(|msg| {
            (msg.serial == serial && chunk < chunks_of(&msg.words)).then(|| {
                chunk_packet(header_r(KIND_DATA, serial, msg.words.len(), chunk), &msg.words, chunk)
            })
        });
        match packet {
            Some(packet) => {
                self.pe().send_packet(peer, packet).await;
                1
            }
            None => 0,
        }
    }

    // ---- f64 convenience ----

    /// Send a slice of doubles (two words each).
    pub async fn send_f64(&self, to: Rank, values: &[f64]) {
        self.send(to, &f64s_to_words(values)).await;
    }

    /// Receive a slice of doubles.
    ///
    /// # Panics
    ///
    /// Panics if the incoming message has an odd word count.
    pub async fn recv_f64(&self, from: Rank) -> Vec<f64> {
        words_to_f64_vec(&self.recv(from).await)
    }

    /// [`AsyncEmpi::sendrecv`] over doubles.
    pub async fn sendrecv_f64(
        &self,
        to: Option<Rank>,
        values: &[f64],
        from: Option<Rank>,
    ) -> Option<Vec<f64>> {
        let words = f64s_to_words(values);
        self.sendrecv(to, &words, from).await.map(|words| words_to_f64_vec(&words))
    }

    // ---- collectives ----

    /// MPI_barrier: synchronization-token exchange over the NoC — the
    /// hybrid model's key primitive, no shared memory touched.
    pub async fn barrier(&self) {
        self.span(KernelOp::Barrier, async {
            if self.pe().ranks() == 1 {
                return;
            }
            match self.algo {
                CollectiveAlgo::Linear => self.linear_barrier().await,
                CollectiveAlgo::BinomialTree => {
                    self.binomial_reduce_tokens().await;
                    let _ = self.binomial_bcast(Rank::new(0), &[]).await;
                }
                CollectiveAlgo::RecursiveDoubling => self.doubling_barrier().await,
            }
        })
        .await;
    }

    /// Broadcast `words` from `root` to every rank; every rank returns the
    /// message. Non-root callers' `words` are ignored (pass `&[]`).
    pub async fn bcast(&self, root: Rank, words: &[u32]) -> Vec<u32> {
        self.span(KernelOp::Bcast, async {
            if self.pe().ranks() == 1 {
                return words.to_vec();
            }
            match self.algo {
                CollectiveAlgo::Linear => self.linear_bcast(root, words).await,
                CollectiveAlgo::BinomialTree | CollectiveAlgo::RecursiveDoubling => {
                    self.binomial_bcast(root, words).await
                }
            }
        })
        .await
    }

    /// Broadcast doubles from `root`.
    pub async fn bcast_f64(&self, root: Rank, values: &[f64]) -> Vec<f64> {
        let words = f64s_to_words(values);
        words_to_f64_vec(&self.bcast(root, &words).await)
    }

    /// Sum-reduce one double per rank to `root` (FP adds are charged on
    /// the combining PEs). Returns `Some(sum)` at the root, `None`
    /// elsewhere. The accumulation order is fixed per algorithm, so the
    /// result is bit-deterministic run over run.
    pub async fn reduce(&self, root: Rank, value: f64) -> Option<f64> {
        self.span(KernelOp::Reduce, async {
            let pe = self.pe();
            if pe.ranks() == 1 {
                return (pe.rank() == root).then_some(value);
            }
            match self.algo {
                CollectiveAlgo::Linear => self.linear_reduce(root, value).await,
                CollectiveAlgo::BinomialTree => self.binomial_reduce(root, value).await,
                CollectiveAlgo::RecursiveDoubling => {
                    let sum = self.doubling_allreduce(value).await;
                    (pe.rank() == root).then_some(sum)
                }
            }
        })
        .await
    }

    /// Sum-reduce one double per rank; every rank returns the sum.
    pub async fn allreduce(&self, value: f64) -> f64 {
        self.span(KernelOp::Allreduce, async {
            if self.pe().ranks() == 1 {
                return value;
            }
            let root = Rank::new(0);
            match self.algo {
                CollectiveAlgo::Linear => {
                    let sum = self.linear_reduce(root, value).await;
                    self.linear_bcast_f64_scalar(root, sum).await
                }
                CollectiveAlgo::BinomialTree => match self.binomial_reduce(root, value).await {
                    Some(total) => {
                        self.binomial_bcast(root, &f64s_to_words(&[total])).await;
                        total
                    }
                    None => words_to_f64_vec(&self.binomial_bcast(root, &[]).await)[0],
                },
                CollectiveAlgo::RecursiveDoubling => self.doubling_allreduce(value).await,
            }
        })
        .await
    }

    /// Gather each rank's `words` to `root` (rank-indexed). Returns
    /// `Some(messages)` at the root, `None` elsewhere. Linear under every
    /// algorithm — each rank contributes distinct data, so a tree cannot
    /// reduce the volume through the root's ejection port.
    pub async fn gather(&self, root: Rank, words: &[u32]) -> Option<Vec<Vec<u32>>> {
        self.span(KernelOp::Gather, async {
            let ranks = self.pe().ranks();
            if self.pe().rank() == root {
                let mut out: Vec<Vec<u32>> = vec![Vec::new(); ranks];
                out[root.index()] = words.to_vec();
                for src in others(ranks, root) {
                    out[src.index()] = self.recv(src).await;
                }
                Some(out)
            } else {
                self.send(root, words).await;
                None
            }
        })
        .await
    }

    /// Scatter `chunks[rank]` from `root` to each rank; every rank returns
    /// its chunk. Non-root callers' `chunks` are ignored (pass `&[]`).
    /// Linear under every algorithm (see [`AsyncEmpi::gather`]).
    ///
    /// # Panics
    ///
    /// Panics at the root if `chunks.len()` differs from the rank count.
    pub async fn scatter(&self, root: Rank, chunks: &[Vec<u32>]) -> Vec<u32> {
        self.span(KernelOp::Scatter, async {
            let ranks = self.pe().ranks();
            if self.pe().rank() == root {
                assert_eq!(chunks.len(), ranks, "scatter needs one chunk per rank");
                for dst in others(ranks, root) {
                    self.send(dst, &chunks[dst.index()]).await;
                }
                chunks[root.index()].clone()
            } else {
                self.recv(root).await
            }
        })
        .await
    }

    // ---- linear algorithms (the seed's message patterns) ----

    async fn linear_barrier(&self) {
        let ranks = self.pe().ranks();
        if self.pe().rank().is_master() {
            for r in 1..ranks {
                let _ = self.recv(Rank::new(r as u8)).await;
            }
            for r in 1..ranks {
                self.send(Rank::new(r as u8), &[]).await;
            }
        } else {
            self.send(Rank::new(0), &[]).await;
            let _ = self.recv(Rank::new(0)).await;
        }
    }

    async fn linear_bcast(&self, root: Rank, words: &[u32]) -> Vec<u32> {
        if self.pe().rank() == root {
            for dst in others(self.pe().ranks(), root) {
                self.send(dst, words).await;
            }
            words.to_vec()
        } else {
            self.recv(root).await
        }
    }

    async fn linear_reduce(&self, root: Rank, value: f64) -> Option<f64> {
        if self.pe().rank() == root {
            let mut acc = value;
            for src in others(self.pe().ranks(), root) {
                let v = self.recv_f64(src).await;
                acc = self.pe().fadd(acc, v[0]).await;
            }
            Some(acc)
        } else {
            self.send_f64(root, &[value]).await;
            None
        }
    }

    /// The broadcast half of the linear allreduce, kept message-for-
    /// message identical to the seed's hand-rolled gather + broadcast.
    async fn linear_bcast_f64_scalar(&self, root: Rank, sum: Option<f64>) -> f64 {
        if self.pe().rank() == root {
            let s = sum.expect("root holds the reduction");
            for dst in others(self.pe().ranks(), root) {
                self.send_f64(dst, &[s]).await;
            }
            s
        } else {
            self.recv_f64(root).await[0]
        }
    }

    // ---- binomial-tree algorithms ----

    /// This rank's position relative to `root` (the tree is rooted at the
    /// collective's root by rank rotation).
    fn relative_rank(&self, root: Rank) -> usize {
        let ranks = self.pe().ranks();
        (self.pe().rank().index() + ranks - root.index()) % ranks
    }

    fn absolute_rank(&self, root: Rank, relative: usize) -> Rank {
        Rank::new(((relative + root.index()) % self.pe().ranks()) as u8)
    }

    /// Binomial reduce of one double to `root`: leaves send first, every
    /// subtree parent combines its children in ascending-mask order.
    async fn binomial_reduce(&self, root: Rank, value: f64) -> Option<f64> {
        let ranks = self.pe().ranks();
        let rel = self.relative_rank(root);
        let mut acc = value;
        let mut mask = 1usize;
        while mask < ranks {
            if rel & mask != 0 {
                self.send_f64(self.absolute_rank(root, rel - mask), &[acc]).await;
                return None;
            }
            if rel + mask < ranks {
                let v = self.recv_f64(self.absolute_rank(root, rel + mask)).await;
                acc = self.pe().fadd(acc, v[0]).await;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Binomial broadcast from `root`: each rank receives from its parent,
    /// then forwards down its subtree in descending-mask order.
    async fn binomial_bcast(&self, root: Rank, words: &[u32]) -> Vec<u32> {
        let ranks = self.pe().ranks();
        let rel = self.relative_rank(root);
        let mut mask = 1usize;
        let mut data: Option<Vec<u32>> = (rel == 0).then(|| words.to_vec());
        while mask < ranks {
            if rel & mask != 0 {
                data = Some(self.recv(self.absolute_rank(root, rel - mask)).await);
                break;
            }
            mask <<= 1;
        }
        let data = data.expect("every rank receives or is the root");
        // Forward down the subtree: every mask below this rank's receive
        // mask (all of them, for the root) addresses one child.
        mask >>= 1;
        while mask > 0 {
            if rel + mask < ranks {
                self.send(self.absolute_rank(root, rel + mask), &data).await;
            }
            mask >>= 1;
        }
        data
    }

    /// The token-only binomial reduce the tree barrier uses (empty
    /// messages, no FP combine — the FP variant would charge fake adds).
    /// The broadcast half of the barrier is just `binomial_bcast` of an
    /// empty message.
    async fn binomial_reduce_tokens(&self) {
        let ranks = self.pe().ranks();
        let rel = self.pe().rank().index();
        let mut mask = 1usize;
        while mask < ranks {
            if rel & mask != 0 {
                self.send(Rank::new((rel - mask) as u8), &[]).await;
                return;
            }
            if rel + mask < ranks {
                let _ = self.recv(Rank::new((rel + mask) as u8)).await;
            }
            mask <<= 1;
        }
    }

    // ---- recursive doubling ----

    /// Largest power of two ≤ `ranks` and the surplus beyond it.
    fn doubling_split(&self) -> (usize, usize) {
        let ranks = self.pe().ranks();
        let pof2 = 1usize << (usize::BITS - 1 - ranks.leading_zeros());
        (pof2, ranks - pof2)
    }

    /// Recursive-doubling allreduce (MPICH-style non-power-of-two
    /// handling): surplus even ranks fold into their odd neighbour before
    /// the log₂ pairwise-exchange rounds and receive the result after.
    /// Both partners of a round compute `fadd(acc, theirs)`; IEEE addition
    /// is commutative bitwise (NaN aside), so every rank converges to the
    /// same bits.
    async fn doubling_allreduce(&self, value: f64) -> f64 {
        let (pof2, rem) = self.doubling_split();
        let r = self.pe().rank().index();
        let mut acc = value;
        // Fold-in phase for the surplus ranks.
        let newrank = if r < 2 * rem {
            if r.is_multiple_of(2) {
                self.send_f64(Rank::new((r + 1) as u8), &[acc]).await;
                None
            } else {
                let v = self.recv_f64(Rank::new((r - 1) as u8)).await;
                acc = self.pe().fadd(acc, v[0]).await;
                Some(r / 2)
            }
        } else {
            Some(r - rem)
        };
        if let Some(newrank) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner = Rank::new(doubling_partner(newrank ^ mask, rem) as u8);
                let v = self
                    .sendrecv_f64(Some(partner), &[acc], Some(partner))
                    .await
                    .expect("duplex exchange returns the partner's value");
                acc = self.pe().fadd(acc, v[0]).await;
                mask <<= 1;
            }
        }
        // Unfold phase: hand the result back to the folded-in even ranks.
        if r < 2 * rem {
            if r.is_multiple_of(2) {
                acc = self.recv_f64(Rank::new((r + 1) as u8)).await[0];
            } else {
                self.send_f64(Rank::new((r - 1) as u8), &[acc]).await;
            }
        }
        acc
    }

    /// Recursive-doubling barrier: the allreduce exchange pattern with
    /// empty tokens.
    async fn doubling_barrier(&self) {
        let (pof2, rem) = self.doubling_split();
        let r = self.pe().rank().index();
        let newrank = if r < 2 * rem {
            if r.is_multiple_of(2) {
                self.send(Rank::new((r + 1) as u8), &[]).await;
                None
            } else {
                let _ = self.recv(Rank::new((r - 1) as u8)).await;
                Some(r / 2)
            }
        } else {
            Some(r - rem)
        };
        if let Some(newrank) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner = Rank::new(doubling_partner(newrank ^ mask, rem) as u8);
                let _ = self.sendrecv(Some(partner), &[], Some(partner)).await;
                mask <<= 1;
            }
        }
        if r < 2 * rem {
            if r.is_multiple_of(2) {
                let _ = self.recv(Rank::new((r + 1) as u8)).await;
            } else {
                self.send(Rank::new((r - 1) as u8), &[]).await;
            }
        }
    }
}

/// Every rank of `0..ranks` but `root`, ascending.
fn others(ranks: usize, root: Rank) -> impl Iterator<Item = Rank> {
    (0..ranks).map(|r| Rank::new(r as u8)).filter(move |r| *r != root)
}

/// The absolute rank of recursive-doubling participant `partner_new`
/// when `rem` surplus ranks folded in.
fn doubling_partner(partner_new: usize, rem: usize) -> usize {
    if partner_new < rem {
        partner_new * 2 + 1
    } else {
        partner_new + rem
    }
}

/// The eMPI communicator of a thread kernel: one per kernel, owning its
/// [`PeApi`]. Each method drives the [`AsyncEmpi`] operation of the same
/// name over the kernel thread's port.
///
/// Derefs to [`PeApi`], so kernels keep direct access to loads/stores,
/// coherence operations and raw TIE messaging through the communicator.
#[derive(Debug)]
pub struct Empi {
    comm: AsyncEmpi<PeApi>,
}

impl std::ops::Deref for Empi {
    type Target = PeApi;

    fn deref(&self) -> &PeApi {
        self.comm.api()
    }
}

impl Empi {
    /// Wrap a kernel's [`PeApi`], adopting the algorithm configured on the
    /// system (`SystemConfigBuilder::collective_algo`).
    pub fn new(api: PeApi) -> Self {
        Empi { comm: AsyncEmpi::new(api) }
    }

    /// The algorithm this communicator's collectives run.
    pub const fn algo(&self) -> CollectiveAlgo {
        self.comm.algo()
    }

    /// The wrapped [`PeApi`].
    pub const fn api(&self) -> &PeApi {
        self.comm.api()
    }

    /// [`AsyncEmpi::send`].
    ///
    /// # Panics
    ///
    /// As [`AsyncEmpi::send`]; use [`Empi::sendrecv`] for symmetric
    /// exchanges.
    pub fn send(&self, to: Rank, words: &[u32]) {
        drive(self.comm.send(to, words));
    }

    /// [`AsyncEmpi::recv`].
    ///
    /// # Panics
    ///
    /// As [`AsyncEmpi::recv`].
    pub fn recv(&self, from: Rank) -> Vec<u32> {
        drive(self.comm.recv(from))
    }

    /// [`AsyncEmpi::sendrecv`].
    pub fn sendrecv(
        &self,
        to: Option<Rank>,
        words: &[u32],
        from: Option<Rank>,
    ) -> Option<Vec<u32>> {
        drive(self.comm.sendrecv(to, words, from))
    }

    /// [`AsyncEmpi::send_f64`].
    pub fn send_f64(&self, to: Rank, values: &[f64]) {
        drive(self.comm.send_f64(to, values));
    }

    /// [`AsyncEmpi::recv_f64`].
    ///
    /// # Panics
    ///
    /// Panics if the incoming message has an odd word count.
    pub fn recv_f64(&self, from: Rank) -> Vec<f64> {
        drive(self.comm.recv_f64(from))
    }

    /// [`AsyncEmpi::sendrecv_f64`].
    pub fn sendrecv_f64(
        &self,
        to: Option<Rank>,
        values: &[f64],
        from: Option<Rank>,
    ) -> Option<Vec<f64>> {
        drive(self.comm.sendrecv_f64(to, values, from))
    }

    /// [`AsyncEmpi::barrier`].
    pub fn barrier(&self) {
        drive(self.comm.barrier());
    }

    /// [`AsyncEmpi::bcast`].
    pub fn bcast(&self, root: Rank, words: &[u32]) -> Vec<u32> {
        drive(self.comm.bcast(root, words))
    }

    /// [`AsyncEmpi::bcast_f64`].
    pub fn bcast_f64(&self, root: Rank, values: &[f64]) -> Vec<f64> {
        drive(self.comm.bcast_f64(root, values))
    }

    /// [`AsyncEmpi::reduce`].
    pub fn reduce(&self, root: Rank, value: f64) -> Option<f64> {
        drive(self.comm.reduce(root, value))
    }

    /// [`AsyncEmpi::allreduce`].
    pub fn allreduce(&self, value: f64) -> f64 {
        drive(self.comm.allreduce(value))
    }

    /// [`AsyncEmpi::gather`].
    pub fn gather(&self, root: Rank, words: &[u32]) -> Option<Vec<Vec<u32>>> {
        drive(self.comm.gather(root, words))
    }

    /// [`AsyncEmpi::scatter`].
    ///
    /// # Panics
    ///
    /// Panics at the root if `chunks.len()` differs from the rank count.
    pub fn scatter(&self, root: Rank, chunks: &[Vec<u32>]) -> Vec<u32> {
        drive(self.comm.scatter(root, chunks))
    }
}

/// Receive-side reassembly: chunk placement, duplicate detection and
/// credit granting, shared by `recv` and the `sendrecv` engine. The seen-
/// chunk set is a fixed bitmap ([`MAX_CHUNKS`] bits) — no allocation
/// beyond the returned message.
#[derive(Debug)]
struct RxState {
    data: Vec<u32>,
    len: usize,
    total_chunks: usize,
    count: usize,
    seen: [u64; MAX_CHUNKS / 64],
    started: bool,
}

impl RxState {
    fn new() -> Self {
        RxState {
            data: Vec::new(),
            len: 0,
            total_chunks: 0,
            count: 0,
            seen: [0; MAX_CHUNKS / 64],
            started: false,
        }
    }

    fn done(&self) -> bool {
        self.started && self.count == self.total_chunks
    }

    /// Place one data chunk; returns whether it was new (the resilient
    /// protocol tolerates duplicates, the default one asserts there are
    /// none) and whether the window schedule calls for a credit now.
    fn place(&mut self, from: Rank, packet: &[u32]) -> (bool, bool) {
        let (_, len, idx) = parse_header(packet[0]);
        if !self.started {
            self.started = true;
            self.len = len;
            self.total_chunks = if len == 0 { 1 } else { len.div_ceil(CHUNK_DATA_WORDS) };
            self.data = vec![0u32; len];
        } else {
            assert_eq!(len, self.len, "interleaved eMPI messages from {from}");
        }
        let (word, bit) = (idx / 64, idx % 64);
        if self.seen[word] & (1 << bit) != 0 {
            return (false, false);
        }
        self.seen[word] |= 1 << bit;
        if self.len > 0 {
            let base = idx * CHUNK_DATA_WORDS;
            let n = (self.len - base).min(CHUNK_DATA_WORDS);
            self.data[base..base + n].copy_from_slice(&packet[1..1 + n]);
        }
        self.count += 1;
        let credit = self.total_chunks > EAGER_CHUNKS
            && self.count.is_multiple_of(EAGER_CHUNKS)
            && self.count < self.total_chunks;
        (true, credit)
    }

    /// Integrate one data packet, granting a flow-control credit when the
    /// window schedule calls for one.
    async fn accept(&mut self, api: &AsyncPeApi, from: Rank, packet: &[u32]) {
        let (new, credit) = self.place(from, packet);
        assert!(new, "duplicate chunk {} from {from}", parse_header(packet[0]).2);
        if credit {
            api.send_to_rank(from, &[header(KIND_CREDIT, 0, 0)]).await;
        }
    }

    /// The resilient variant of [`RxState::accept`]: duplicate chunks
    /// (retransmissions racing a NACK, ACK-phase pokes) are benign and
    /// dropped; credits carry the message serial.
    async fn accept_r(&mut self, api: &AsyncPeApi, from: Rank, packet: &[u32], serial: u32) {
        if let (_, true) = self.place(from, packet) {
            api.send_to_rank(from, &[header_r(KIND_CREDIT, serial, 0, 0)]).await;
        }
    }

    /// Lowest chunk index not yet received (0 before the first chunk) —
    /// what a timeout or corruption NACK asks for.
    fn lowest_missing(&self) -> usize {
        if !self.started {
            return 0;
        }
        (0..self.total_chunks).find(|i| self.seen[i / 64] & (1 << (i % 64)) == 0).unwrap_or(0)
    }
}

/// Doubles as the word stream the f64 helpers send: (low, high) per value.
fn f64s_to_words(values: &[f64]) -> Vec<u32> {
    values
        .iter()
        .flat_map(|v| {
            let (lo, hi) = f64_to_words(*v);
            [lo, hi]
        })
        .collect()
}

fn words_to_f64_vec(words: &[u32]) -> Vec<f64> {
    assert_eq!(words.len() % 2, 0, "f64 message with odd word count");
    words.chunks_exact(2).map(|c| words_to_f64(c[0], c[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        for (kind, len, chunk) in [
            (KIND_DATA, 0usize, 0usize),
            (KIND_DATA, 1, 0),
            (KIND_CREDIT, 0, 0),
            (KIND_DATA, MAX_MESSAGE_WORDS, MAX_CHUNKS - 1),
        ] {
            let (k, l, c) = parse_header(header(kind, len, chunk));
            assert_eq!((k, l, c), (kind, len, chunk));
        }
    }

    #[test]
    fn resilient_header_roundtrip() {
        for kind in [KIND_DATA, KIND_CREDIT, KIND_NACK, KIND_ACK] {
            for serial in [0u32, 1] {
                let w = header_r(kind, serial, 300, 17);
                let (k, l, c) = parse_header(w);
                assert_eq!((k, l, c), (kind, 300, 17));
                assert_eq!((w >> 30) & 1, serial);
            }
        }
        // The default protocol's header is bit-identical to a serial-0
        // resilient header, so mixed parsing is impossible by design.
        assert_eq!(header(KIND_DATA, 45, 2), header_r(KIND_DATA, 0, 45, 2));
    }

    #[test]
    fn classify_discriminates() {
        assert_eq!(classify(&[header_r(KIND_DATA, 1, 30, 1), 7], false), Intake::Data(1));
        assert_eq!(classify(&[header_r(KIND_CREDIT, 0, 0, 0)], false), Intake::Credit(0));
        assert_eq!(classify(&[header_r(KIND_NACK, 1, 0, 9)], false), Intake::Nack(1, 9));
        assert_eq!(classify(&[header_r(KIND_ACK, 0, 0, 0)], false), Intake::Ack(0));
        // A corrupt packet's header is never inspected.
        assert_eq!(classify(&[header_r(KIND_ACK, 0, 0, 0)], true), Intake::Corrupt);
    }

    #[test]
    fn lowest_missing_tracks_holes() {
        let mut rx = RxState::new();
        assert_eq!(rx.lowest_missing(), 0, "unstarted receives ask for chunk 0");
        // 40-word message = 3 chunks; mark chunks 0 and 2 seen.
        rx.started = true;
        rx.len = 40;
        rx.total_chunks = 3;
        rx.seen[0] = 0b101;
        assert_eq!(rx.lowest_missing(), 1);
        rx.seen[0] = 0b111;
        assert_eq!(rx.lowest_missing(), 0, "no hole left: fall back to 0");
    }

    #[test]
    fn chunks_of_counts_empty_as_one() {
        assert_eq!(chunks_of(&[]), 1);
        assert_eq!(chunks_of(&[0; 15]), 1);
        assert_eq!(chunks_of(&[0; 16]), 2);
        assert_eq!(chunks_of(&[0; 3840]), MAX_CHUNKS);
    }

    #[test]
    fn message_limit_is_chunk_bound() {
        // The 8-bit chunk index, not the 20-bit length field, bounds the
        // message: 256 chunks of 15 words.
        assert_eq!(MAX_MESSAGE_WORDS, 3840);
        const { assert!(MAX_MESSAGE_WORDS < (1 << 20) - 1, "length field has headroom") }
        assert_eq!(MAX_MESSAGE_WORDS.div_ceil(CHUNK_DATA_WORDS), MAX_CHUNKS);
    }

    #[test]
    fn chunk_math() {
        assert_eq!(CHUNK_DATA_WORDS, 15);
        // A 60-double Jacobi row = 120 words = 8 chunks.
        assert_eq!(120usize.div_ceil(CHUNK_DATA_WORDS), 8);
    }

    #[test]
    fn credit_schedule_balances() {
        // For every chunk count, the credits a receiver issues must equal
        // the credits the sender awaits.
        for total in 1..=40usize {
            let sender_waits =
                (0..total).filter(|idx| *idx >= EAGER_CHUNKS && idx % EAGER_CHUNKS == 0).count();
            let receiver_grants = (1..=total)
                .filter(|received| {
                    total > EAGER_CHUNKS && received % EAGER_CHUNKS == 0 && *received < total
                })
                .count();
            assert_eq!(sender_waits, receiver_grants, "imbalance at {total} chunks");
        }
    }

    #[test]
    fn doubling_partner_maps_are_involutions() {
        // The recursive-doubling partner mapping must pair ranks up
        // symmetrically in every round, for every rank count.
        for ranks in 2..=24usize {
            let pof2 = 1usize << (usize::BITS - 1 - ranks.leading_zeros());
            let rem = ranks - pof2;
            let newrank = |r: usize| -> Option<usize> {
                if r < 2 * rem {
                    (r % 2 == 1).then_some(r / 2)
                } else {
                    Some(r - rem)
                }
            };
            let absolute = |n: usize| -> usize {
                if n < rem {
                    n * 2 + 1
                } else {
                    n + rem
                }
            };
            let mut mask = 1usize;
            while mask < pof2 {
                for r in 0..ranks {
                    if let Some(n) = newrank(r) {
                        let p = absolute(n ^ mask);
                        let pn = newrank(p).expect("partners participate");
                        assert_eq!(absolute(pn ^ mask), r, "ranks {ranks} mask {mask} rank {r}");
                    }
                }
                mask <<= 1;
            }
        }
    }
}
