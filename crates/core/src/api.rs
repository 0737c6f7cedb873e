//! The architectural-operation API kernels program against.
//!
//! Every operation costs simulated time on the owning PE; pure Rust
//! computation between calls is free and stands for work charged
//! explicitly via `compute` / the FP helpers (DESIGN.md §2). The
//! operations are `async` methods of [`AsyncPeApi`]: a kernel
//! ([`crate::system::Task`]) receives one and awaits each operation; the
//! operation leaves its request for the PE and yields, and the PE's next
//! poll resumes the kernel with the answer (see [`medea_sim::coroutine`]).
//!
//! [`PeApi`] is what remains of the OS-thread kernel kind: the raw TIE
//! send and receive that the repository benchmark's thread kernels call,
//! driven over the kernel thread's port, plus the driver behind
//! [`crate::system::Task::into_thread`].
//!
//! # Panics
//!
//! If the simulation engine is torn down while a thread kernel runs (cycle
//! limit, deadlock or watchdog), its pending operation unwinds the kernel
//! thread with [`std::panic::resume_unwind`], which skips the panic hook:
//! nothing is printed, and the engine reports the underlying
//! [`crate::RunError`]. A torn-down task is dropped where it waits.

use crate::config::{NodePlan, ResilienceConfig};
use crate::empi::CollectiveAlgo;
use crate::layout::MemoryMap;
use medea_cache::{line_of, Addr, LINE_BYTES};
use medea_pe::kernel_if::{f64_to_words, words_to_f64, PeRequest, PeResponse};
use medea_pe::pe::{PePort, PeTaskPort};
use medea_pe::tie::Packet;
use medea_sim::ids::{NodeId, Rank};
use medea_sim::Cycle;
use medea_trace::KernelOp;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Where a kernel's requests go.
#[derive(Debug)]
enum Port {
    /// A task's slot: each operation yields to the polling PE.
    Task(PeTaskPort),
    /// A kernel thread's rendezvous channel.
    Thread(PePort),
}

/// Issue `req` over a kernel thread's port and block for the answer.
fn call_blocking(port: &PePort, req: PeRequest) -> PeResponse {
    port.call(req).unwrap_or_else(|aborted| std::panic::resume_unwind(Box::new(aborted)))
}

/// Run one operation of a thread kernel to completion. Over a kernel
/// thread's port every PE operation completes within its first poll, so
/// `Pending` means the kernel awaited something that is not one.
pub(crate) fn drive<F: Future>(op: F) -> F::Output {
    match pin!(op).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a thread kernel awaited something that is not a PE operation"),
    }
}

/// What a kernel knows of its system besides its port. Built by the
/// system assembler, one per rank.
#[derive(Debug, Clone, Copy)]
pub struct KernelContext {
    /// This kernel's eMPI rank.
    pub rank: Rank,
    /// Number of ranks in the system.
    pub ranks: usize,
    /// The system memory map.
    pub layout: MemoryMap,
    /// Where each rank and bank sits on the torus.
    pub plan: NodePlan,
    /// The collective algorithm configured on the system.
    pub collective_algo: CollectiveAlgo,
    /// Whether the zero-cost eMPI span markers flow (on when the run's
    /// trace sink is active or metrics are on).
    pub trace_spans: bool,
    /// The resilient-delivery knobs configured on the system.
    pub resilience: ResilienceConfig,
}

/// Per-kernel handle to the simulated processing element: the operations
/// of a task kernel, each one `async`.
#[derive(Debug)]
pub struct AsyncPeApi {
    port: Port,
    cx: KernelContext,
}

impl AsyncPeApi {
    /// Wrap a task port. Called by the system assembler; kernels receive
    /// the ready-made value.
    pub fn new(port: PeTaskPort, cx: KernelContext) -> Self {
        AsyncPeApi { port: Port::Task(port), cx }
    }

    /// The resilient-delivery knobs configured on the system — adopted by
    /// [`crate::empi::AsyncEmpi::new`].
    pub const fn resilience(&self) -> ResilienceConfig {
        self.cx.resilience
    }

    /// The collective algorithm configured on the system — adopted by
    /// [`crate::empi::AsyncEmpi::new`].
    pub const fn collective_algo(&self) -> CollectiveAlgo {
        self.cx.collective_algo
    }

    async fn call(&self, req: PeRequest) -> PeResponse {
        match &self.port {
            Port::Task(port) => port.call(req).await,
            Port::Thread(port) => call_blocking(port, req),
        }
    }

    async fn unit(&self, req: PeRequest) {
        match self.call(req).await {
            PeResponse::Unit => {}
            other => unreachable!("expected Unit, got {other:?}"),
        }
    }

    async fn word(&self, req: PeRequest) -> u32 {
        match self.call(req).await {
            PeResponse::Word(w) => w,
            other => unreachable!("expected Word, got {other:?}"),
        }
    }

    async fn f64_resp(&self, req: PeRequest) -> f64 {
        match self.call(req).await {
            PeResponse::F64(v) => v,
            other => unreachable!("expected F64, got {other:?}"),
        }
    }

    async fn packet(&self, from: Option<u8>) -> Packet {
        match self.call(PeRequest::Recv { from }).await {
            PeResponse::Packet(p) => p,
            other => unreachable!("expected Packet, got {other:?}"),
        }
    }

    async fn maybe_packet(&self, rank: Rank) -> Option<Packet> {
        let from = Some(self.src_id_of_rank(rank));
        match self.call(PeRequest::TryRecv { from }).await {
            PeResponse::MaybePacket(p) => p,
            other => unreachable!("expected MaybePacket, got {other:?}"),
        }
    }

    /// This kernel's eMPI rank.
    pub const fn rank(&self) -> Rank {
        self.cx.rank
    }

    /// Number of ranks in the system.
    pub const fn ranks(&self) -> usize {
        self.cx.ranks
    }

    /// The system memory map.
    pub const fn layout(&self) -> &MemoryMap {
        &self.cx.layout
    }

    /// Base address of this rank's private (cacheable) segment.
    pub fn private_base(&self) -> Addr {
        self.cx.layout.private_base(self.cx.rank)
    }

    /// The node hosting `rank` (PEs occupy the non-bank nodes in
    /// ascending order; nodes 1..=N on a single-bank system).
    pub fn node_of_rank(&self, rank: Rank) -> NodeId {
        self.cx.plan.node_of_rank(rank)
    }

    /// The application-level source id `rank`'s messages carry: the full
    /// linear node index (the SRC-ID field is sized per topology).
    pub fn src_id_of_rank(&self, rank: Rank) -> u8 {
        self.node_of_rank(rank).index() as u8
    }

    // ---- compute ----

    /// Charge `cycles` of local computation.
    pub async fn compute(&self, cycles: Cycle) {
        self.unit(PeRequest::Compute { cycles }).await;
    }

    /// Double-precision add (19 cycles).
    pub async fn fadd(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpAdd { a, b }).await
    }

    /// Double-precision subtract (19 cycles).
    pub async fn fsub(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpSub { a, b }).await
    }

    /// Double-precision multiply (26 cycles: the "Multiply High" option).
    pub async fn fmul(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpMul { a, b }).await
    }

    /// Double-precision divide.
    pub async fn fdiv(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpDiv { a, b }).await
    }

    /// Current cycle count (CCOUNT equivalent; costs one cycle).
    pub async fn now(&self) -> Cycle {
        match self.call(PeRequest::Now).await {
            PeResponse::Time(t) => t,
            other => unreachable!("expected Time, got {other:?}"),
        }
    }

    // ---- cached memory ----

    /// Load a word through the L1 cache.
    pub async fn load_u32(&self, addr: Addr) -> u32 {
        self.word(PeRequest::LoadWord { addr }).await
    }

    /// Store a word through the L1 cache.
    pub async fn store_u32(&self, addr: Addr, value: u32) {
        self.unit(PeRequest::StoreWord { addr, value }).await;
    }

    /// Load a double through the L1 cache.
    pub async fn load_f64(&self, addr: Addr) -> f64 {
        self.f64_resp(PeRequest::LoadF64 { addr }).await
    }

    /// Store a double through the L1 cache.
    pub async fn store_f64(&self, addr: Addr, value: f64) {
        self.unit(PeRequest::StoreF64 { addr, value }).await;
    }

    // ---- software coherence (§II-E) ----

    /// Flush the line containing `addr` (write back if dirty).
    pub async fn flush_line(&self, addr: Addr) {
        self.unit(PeRequest::FlushLine { addr }).await;
    }

    /// DII-invalidate the line containing `addr`.
    pub async fn invalidate_line(&self, addr: Addr) {
        self.unit(PeRequest::InvalidateLine { addr }).await;
    }

    /// Flush every line of `[base, base + bytes)`.
    pub async fn flush_region(&self, base: Addr, bytes: u32) {
        for line in lines(base, bytes) {
            self.flush_line(line).await;
        }
    }

    /// Invalidate every line of `[base, base + bytes)`.
    pub async fn invalidate_region(&self, base: Addr, bytes: u32) {
        for line in lines(base, bytes) {
            self.invalidate_line(line).await;
        }
    }

    // ---- uncached shared accesses ----

    /// Read a word bypassing the cache (uncacheable shared data, §II-E).
    pub async fn uncached_load_u32(&self, addr: Addr) -> u32 {
        self.word(PeRequest::UncachedLoad { addr }).await
    }

    /// Write a word bypassing the cache.
    pub async fn uncached_store_u32(&self, addr: Addr, value: u32) {
        self.unit(PeRequest::UncachedStore { addr, value }).await;
    }

    /// Read a double with two uncached word transactions.
    pub async fn uncached_load_f64(&self, addr: Addr) -> f64 {
        let lo = self.uncached_load_u32(addr).await;
        let hi = self.uncached_load_u32(addr + 4).await;
        words_to_f64(lo, hi)
    }

    /// Write a double with two uncached word transactions.
    pub async fn uncached_store_f64(&self, addr: Addr, value: f64) {
        let (lo, hi) = f64_to_words(value);
        self.uncached_store_u32(addr, lo).await;
        self.uncached_store_u32(addr + 4, hi).await;
    }

    // ---- atomic sections ----

    /// Acquire the MPMMU lock on `addr` (blocks with Nack-retry).
    pub async fn lock(&self, addr: Addr) {
        self.unit(PeRequest::Lock { addr }).await;
    }

    /// Release the MPMMU lock on `addr`.
    pub async fn unlock(&self, addr: Addr) {
        self.unit(PeRequest::Unlock { addr }).await;
    }

    // ---- raw TIE messaging ----

    /// Send one logical packet (1..=16 words) to `rank`'s TIE interface.
    ///
    /// Payloads are padded to the burst-code granularity `{1,2,4,16}`; the
    /// receiver sees the padded length. The [`crate::empi`] layer adds
    /// framing so variable-length messages survive the padding.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or longer than 16 words.
    pub async fn send_to_rank(&self, rank: Rank, payload: &[u32]) {
        self.send_packet(rank, payload.to_vec()).await;
    }

    /// [`AsyncPeApi::send_to_rank`] of an owned payload — the eMPI layer
    /// builds each packet in place and hands it over without a copy.
    pub(crate) async fn send_packet(&self, rank: Rank, payload: Vec<u32>) {
        let dest = self.node_of_rank(rank);
        self.unit(PeRequest::Send { dest, payload }).await;
    }

    /// Block until a packet from `rank` arrives; returns its (padded)
    /// payload.
    pub async fn recv_from_rank(&self, rank: Rank) -> Vec<u32> {
        self.packet(Some(self.src_id_of_rank(rank))).await.data
    }

    /// Block until a packet from anyone arrives.
    pub async fn recv_any(&self) -> (Rank, Vec<u32>) {
        let Packet { src, data, .. } = self.packet(None).await;
        let rank = self
            .cx
            .plan
            .rank_of_node(NodeId::new(src as u16))
            .unwrap_or_else(|| panic!("message from non-PE node {src}"));
        (rank, data)
    }

    // ---- tracing markers ----

    /// Open a kernel-level trace span for `op`.
    ///
    /// A no-op unless the run's trace sink is active or metrics are on;
    /// then the marker crosses to the engine in zero simulated cycles and
    /// updates no statistic, so spans never perturb a run. The eMPI layer
    /// calls this around its operations; kernels may delimit their own
    /// phases too.
    pub async fn trace_span_begin(&self, op: KernelOp) {
        if self.cx.trace_spans {
            self.unit(PeRequest::TraceSpan { op, begin: true }).await;
        }
    }

    /// Close the innermost kernel-level trace span for `op`.
    pub async fn trace_span_end(&self, op: KernelOp) {
        if self.cx.trace_spans {
            self.unit(PeRequest::TraceSpan { op, begin: false }).await;
        }
    }

    /// Non-blocking receive from `rank`.
    pub async fn try_recv_from_rank(&self, rank: Rank) -> Option<Vec<u32>> {
        self.maybe_packet(rank).await.map(|p| p.data)
    }

    // ---- resilient delivery ----

    /// Blocking receive from `rank` that also reports whether the packet's
    /// payload checksum failed. Fault-free packets always return
    /// `corrupt == false`; only the resilient eMPI path inspects the flag.
    pub async fn recv_from_rank_flagged(&self, rank: Rank) -> (Vec<u32>, bool) {
        let p = self.packet(Some(self.src_id_of_rank(rank))).await;
        (p.data, p.corrupt)
    }

    /// Non-blocking variant of [`AsyncPeApi::recv_from_rank_flagged`].
    pub async fn try_recv_from_rank_flagged(&self, rank: Rank) -> Option<(Vec<u32>, bool)> {
        self.maybe_packet(rank).await.map(|p| (p.data, p.corrupt))
    }

    /// Report resilience-protocol activity (retransmitted chunks, NACKs
    /// sent) to the engine's per-PE statistics. Zero simulated cycles.
    pub async fn fault_note(&self, retransmits: u32, nacks: u32) {
        self.unit(PeRequest::FaultNote { retransmits, nacks }).await;
    }
}

/// The line addresses covering `[base, base + bytes)`.
fn lines(base: Addr, bytes: u32) -> impl Iterator<Item = Addr> {
    let end = base.saturating_add(bytes);
    (line_of(base)..end).step_by(LINE_BYTES)
}

/// Per-kernel handle for an OS-thread kernel: the raw TIE messaging of
/// [`AsyncPeApi`], each operation driven to completion over the kernel
/// thread's port. The repository benchmark's thread kernels call these two
/// operations until it moves to tasks (ROADMAP item 3); every other kernel
/// is a [`crate::system::Task`].
#[derive(Debug)]
pub struct PeApi {
    api: AsyncPeApi,
}

impl PeApi {
    /// Wrap a kernel thread's port. Called by the system assembler;
    /// kernels receive the ready-made value.
    pub fn new(port: PePort, cx: KernelContext) -> Self {
        PeApi { api: AsyncPeApi { port: Port::Thread(port), cx } }
    }

    /// Run an `async` kernel body on this kernel thread: `body` receives
    /// the [`AsyncPeApi`] over the thread's port, and every operation it
    /// awaits completes at once.
    ///
    /// # Panics
    ///
    /// Panics if the body awaits something that is not a PE operation.
    pub(crate) fn block_on<Fut: Future<Output = ()>>(self, body: impl FnOnce(AsyncPeApi) -> Fut) {
        drive(body(self.api));
    }

    /// [`AsyncPeApi::send_to_rank`].
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or longer than 16 words.
    pub fn send_to_rank(&self, rank: Rank, payload: &[u32]) {
        drive(self.api.send_to_rank(rank, payload));
    }

    /// [`AsyncPeApi::recv_from_rank`].
    pub fn recv_from_rank(&self, rank: Rank) -> Vec<u32> {
        drive(self.api.recv_from_rank(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_sim::coroutine::KernelHost;

    #[test]
    fn rank_node_src_mapping() {
        // The accessors are pure rank arithmetic: build the API on a task
        // port that is never polled.
        let layout = MemoryMap::new(4, 1024, 1024).unwrap();
        let plan = crate::SystemConfig::builder().compute_pes(4).build().unwrap().node_plan();
        let cx = KernelContext {
            rank: Rank::new(2),
            ranks: 4,
            layout,
            plan,
            collective_algo: CollectiveAlgo::Linear,
            trace_spans: false,
            resilience: ResilienceConfig::off(),
        };
        let mut api = None;
        let _host = KernelHost::task("t", |port| {
            api = Some(AsyncPeApi::new(port, cx));
            async {}
        });
        let api = api.expect("the host builds its kernel at once");
        assert_eq!(api.node_of_rank(Rank::new(0)), NodeId::new(1));
        assert_eq!(api.node_of_rank(Rank::new(3)), NodeId::new(4));
        assert_eq!(api.src_id_of_rank(Rank::new(2)), 3);
        assert_eq!(api.private_base(), 1024 + 2 * 1024);
    }
}
