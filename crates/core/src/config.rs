//! System configuration: the design-space knobs of the paper's exploration.

use crate::calib;
use crate::empi::CollectiveAlgo;
use crate::layout::MemoryMap;
use crate::FabricKind;
use medea_cache::{CacheConfig, CachePolicy, CoherenceMode};
use medea_mem::{BankMap, DdrModel, MpmmuConfig, MAX_BANKS};
use medea_metrics::MetricsConfig;
use medea_noc::coord::{Coord, Topology};
use medea_pe::arbiter::ArbiterConfig;
use medea_pe::bridge::BridgeConfig;
use medea_pe::fpu::FpModel;
use medea_pe::pe::PeConfig;
use medea_sim::ids::{NodeId, Rank};
use medea_sim::Cycle;
use std::fmt;

/// Error from [`SystemConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildConfigError(String);

impl fmt::Display for BuildConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system configuration: {}", self.0)
    }
}

impl std::error::Error for BuildConfigError {}

/// Resilient-delivery knobs — all **off** by default, because recovery
/// machinery changes timing even when no fault ever fires (resilient eMPI
/// polls with `TryRecv` instead of blocking in `Recv`). The golden
/// paper-4×4 fingerprints are pinned with resilience off; turning any
/// knob on is an explicit, observable configuration change.
///
/// The knobs are deliberately independent of fault *injection*
/// (`medea_fault::FaultConfig`, passed to `System::run_with`): one can
/// inject faults against a non-resilient system to measure raw damage, or
/// enable resilience without injection to measure the protocol overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// End-to-end eMPI retransmission: receivers discard corrupt packets
    /// and NACK missing chunks; senders cache the last message per
    /// destination, service NACKs, and block on a delivery ACK.
    pub empi_retransmit: bool,
    /// Base eMPI recovery timeout in cycles: a receiver missing chunks
    /// NACKs after this long without progress (exponential backoff after
    /// repeats), and a sender re-pokes an unacknowledged final chunk on
    /// the same schedule.
    pub empi_timeout: Cycle,
    /// Bound on consecutive recovery attempts for one message before the
    /// receiver panics (unrecoverable loss) or the sender optimistically
    /// proceeds without its ACK.
    pub empi_max_attempts: u32,
    /// pif2NoC bridge read-response timeout in cycles (0 = off): a
    /// single/block read with no response by the deadline is re-issued —
    /// reads are idempotent, so retry is safe (see
    /// `medea_pe::bridge::BridgeConfig::response_timeout`).
    pub bridge_timeout: Cycle,
    /// Hang watchdog (0 = off): abort the run with a structured
    /// `RunError::Watchdog` when no PE exchanges a packet, no bank serves
    /// a transaction and the fabric delivers nothing for this many
    /// consecutive cycles. Catches the livelocks that resilient polling
    /// hides from ordinary deadlock detection.
    pub watchdog_cycles: Cycle,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            empi_retransmit: false,
            empi_timeout: 50_000,
            empi_max_attempts: 10,
            bridge_timeout: 0,
            watchdog_cycles: 0,
        }
    }
}

impl ResilienceConfig {
    /// Everything off — the paper-exact configuration (the default).
    pub fn off() -> Self {
        ResilienceConfig::default()
    }

    /// Every recovery mechanism on, with the default timeouts: eMPI
    /// retransmission, bridge read retry, and a 2M-cycle watchdog.
    pub fn standard() -> Self {
        ResilienceConfig {
            empi_retransmit: true,
            bridge_timeout: 20_000,
            watchdog_cycles: 2_000_000,
            ..ResilienceConfig::default()
        }
    }

    /// Whether every knob is off (the bit-for-bit paper path).
    pub const fn is_off(&self) -> bool {
        !self.empi_retransmit && self.bridge_timeout == 0 && self.watchdog_cycles == 0
    }
}

/// A fully validated MEDEA system configuration.
///
/// The system is assembled on any supported torus (2×2 up to 16×16,
/// default: the paper's 4×4 folded torus). Shared memory is served by
/// `memory_banks` address-interleaved MPMMU banks spread across the torus
/// (default 1, at node 0 — the paper's instance); compute PEs occupy the
/// remaining nodes in ascending order, so the PE count is bounded by
/// `nodes − banks` — 15 on the paper instance (matching its "number of
/// processor cores between 3 and 16, 1 of which is the MPMMU"), up to 255
/// on a single-bank 16×16 torus.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    topology: Topology,
    compute_pes: usize,
    memory_banks: usize,
    cache: CacheConfig,
    arbiter: ArbiterConfig,
    fabric: FabricKind,
    layout: MemoryMap,
    mpmmu_cache: CacheConfig,
    cycle_limit: Cycle,
    collective_algo: CollectiveAlgo,
    metrics: MetricsConfig,
    resilience: ResilienceConfig,
    coherence: CoherenceMode,
    host_threads: usize,
}

impl SystemConfig {
    /// Start building a configuration.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Number of compute PEs (excluding the MPMMU).
    pub const fn compute_pes(&self) -> usize {
        self.compute_pes
    }

    /// L1 cache geometry and policy.
    pub const fn cache(&self) -> CacheConfig {
        self.cache
    }

    /// Arbiter build option.
    pub const fn arbiter(&self) -> ArbiterConfig {
        self.arbiter
    }

    /// Fabric implementation (deflection torus or ideal ablation).
    pub const fn fabric(&self) -> FabricKind {
        self.fabric
    }

    /// The memory map.
    pub const fn layout(&self) -> MemoryMap {
        self.layout
    }

    /// Maximum simulated cycles before a run is declared stuck.
    pub const fn cycle_limit(&self) -> Cycle {
        self.cycle_limit
    }

    /// The torus this system is assembled on.
    pub const fn topology(&self) -> Topology {
        self.topology
    }

    /// The algorithm eMPI collectives run on this system (default
    /// [`CollectiveAlgo::Linear`], the seed's rank-0-centred patterns).
    pub const fn collective_algo(&self) -> CollectiveAlgo {
        self.collective_algo
    }

    /// Number of address-interleaved MPMMU banks (1 = the paper's single
    /// node-0 MPMMU).
    pub const fn memory_banks(&self) -> usize {
        self.memory_banks
    }

    /// The metrics-sampling configuration (default off). Like tracing,
    /// metrics never change a run's architectural results; see
    /// [`SystemConfigBuilder::metrics`].
    pub const fn metrics(&self) -> MetricsConfig {
        self.metrics
    }

    /// The resilient-delivery knobs (default: everything off — see
    /// [`ResilienceConfig`]).
    pub const fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// The coherence option: the paper's software DII (default) or the
    /// beyond-the-paper hardware directory MESI (see
    /// [`SystemConfigBuilder::coherence`]).
    pub const fn coherence(&self) -> CoherenceMode {
        self.coherence
    }

    /// The value given to [`SystemConfigBuilder::host_threads`] (default
    /// 1). It selects nothing: every run takes the one engine. Never part
    /// of the architectural configuration or its label.
    pub const fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// The nodes hosting the MPMMU banks, in bank-index order (bank 0 is
    /// always node 0; further banks are spread across the torus).
    pub fn bank_nodes(&self) -> Vec<NodeId> {
        bank_placement(self.topology, self.memory_banks)
    }

    /// The address → bank lookup table shared by every bridge.
    pub fn bank_map(&self) -> BankMap {
        BankMap::new(self.topology, &self.bank_nodes())
            .expect("validated configurations have valid bank maps")
    }

    /// The node-role plan: which nodes host banks, which host ranks.
    pub fn node_plan(&self) -> NodePlan {
        NodePlan::new(&self.bank_nodes(), self.compute_pes)
    }

    /// The node of bank 0 — the paper's single MPMMU location (always
    /// node 0).
    pub fn mpmmu_node(&self) -> NodeId {
        NodeId::new(0)
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` exceeds the configured PE count.
    pub fn node_of_rank(&self, rank: Rank) -> NodeId {
        self.node_plan().node_of_rank(rank)
    }

    /// The rank hosted on `node`, if it is a PE node.
    pub fn rank_of_node(&self, node: NodeId) -> Option<Rank> {
        self.node_plan().rank_of_node(node)
    }

    /// The per-PE hardware configuration for `rank`.
    pub fn pe_config(&self, rank: Rank) -> PeConfig {
        PeConfig {
            node: self.node_of_rank(rank),
            cache: self.cache,
            fp: FpModel::default(),
            arbiter: self.arbiter,
            bridge: BridgeConfig {
                lock_retry_backoff: calib::LOCK_RETRY_BACKOFF,
                response_timeout: self.resilience.bridge_timeout,
            },
            coherence: self.coherence,
        }
    }

    /// The MPMMU configuration.
    pub fn mpmmu_config(&self) -> MpmmuConfig {
        MpmmuConfig {
            num_procs: self.compute_pes,
            data_fifo_depth: 16,
            out_fifo_depth: 16,
            service_overhead: calib::MPMMU_SERVICE_OVERHEAD,
            cache_hit_latency: calib::MPMMU_CACHE_HIT,
            cache: self.mpmmu_cache,
            mem_bytes: self.layout.total_bytes(),
            ddr: DdrModel::new(calib::DDR_FIRST_WORD, calib::DDR_PER_WORD),
            coherence: self.coherence,
        }
    }

    /// Short label in the paper's figure style, e.g. `11P_16k$_WB`.
    /// Non-paper topologies are called out with an `@WxH` suffix
    /// (e.g. `63P_16k$_WB@8x8`), multi-bank memory with an `xNB` suffix
    /// (e.g. `252P_16k$_WB@16x16x4B`).
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}P_{}k$_{}",
            self.compute_pes,
            self.cache.total_bytes() / 1024,
            self.cache.policy()
        );
        if self.topology != Topology::paper_4x4() {
            label.push_str(&format!("@{}x{}", self.topology.width(), self.topology.height()));
        }
        if self.memory_banks > 1 {
            label.push_str(&format!("x{}B", self.memory_banks));
        }
        if self.coherence.is_hardware() {
            label.push_str("_mesi");
        }
        label
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} arbiter, {:?} fabric)", self.label(), self.arbiter, self.fabric)
    }
}

/// Where the MPMMU banks of a `banks`-bank system live on `topology`:
/// bank `k` sits on a regular `nx × ny` sub-grid of the torus (the wider
/// torus axis gets the larger factor), so banks are spread across both
/// dimensions and bank 0 is always node 0 — the paper's MPMMU location.
fn bank_placement(topology: Topology, banks: usize) -> Vec<NodeId> {
    debug_assert!(banks.is_power_of_two() && banks <= MAX_BANKS);
    let (nx, ny) = bank_grid(topology, banks);
    let (w, h) = (topology.width() as usize, topology.height() as usize);
    (0..banks)
        .map(|k| {
            let x = (k % nx) * w / nx;
            let y = (k / nx) * h / ny;
            topology.node_of(Coord::new(x as u8, y as u8))
        })
        .collect()
}

/// The `nx × ny` placement sub-grid for `banks` banks (see
/// [`bank_placement`]).
fn bank_grid(topology: Topology, banks: usize) -> (usize, usize) {
    let bits = banks.trailing_zeros();
    let (mut xb, mut yb) = (bits.div_ceil(2), bits / 2);
    if topology.width() < topology.height() {
        std::mem::swap(&mut xb, &mut yb);
    }
    (1usize << xb, 1usize << yb)
}

/// Which node plays which role: the bank-node set plus the rank → node
/// assignment (compute PEs occupy the non-bank nodes in ascending order).
///
/// A small `Copy` value so every kernel's [`crate::api::AsyncPeApi`] can
/// carry it; with one bank at node 0 it reproduces the original `rank + 1`
/// mapping exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePlan {
    /// Bank nodes in ascending node order (placement is ascending, and
    /// the skip arithmetic below depends on it).
    bank_nodes: [u16; MAX_BANKS],
    banks: u8,
    pes: u16,
}

impl NodePlan {
    fn new(bank_nodes: &[NodeId], pes: usize) -> Self {
        assert!(!bank_nodes.is_empty() && bank_nodes.len() <= MAX_BANKS);
        let mut nodes = [0u16; MAX_BANKS];
        for (slot, node) in nodes.iter_mut().zip(bank_nodes) {
            *slot = node.index() as u16;
        }
        nodes[..bank_nodes.len()].sort_unstable();
        NodePlan { bank_nodes: nodes, banks: bank_nodes.len() as u8, pes: pes as u16 }
    }

    /// Number of banks.
    pub const fn banks(&self) -> usize {
        self.banks as usize
    }

    /// Number of compute ranks.
    pub const fn ranks(&self) -> usize {
        self.pes as usize
    }

    /// Whether `node` hosts an MPMMU bank.
    pub fn is_bank_node(&self, node: NodeId) -> bool {
        self.bank_nodes[..self.banks()].contains(&(node.index() as u16))
    }

    /// The node hosting `rank`: the `rank`-th non-bank node in ascending
    /// node order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` exceeds the PE count.
    pub fn node_of_rank(&self, rank: Rank) -> NodeId {
        assert!(rank.index() < self.ranks(), "{rank} outside {}-PE system", self.ranks());
        let mut node = rank.index();
        for bank in &self.bank_nodes[..self.banks()] {
            if *bank as usize <= node {
                node += 1;
            }
        }
        NodeId::new(node as u16)
    }

    /// The rank hosted on `node`, if it is a PE node.
    pub fn rank_of_node(&self, node: NodeId) -> Option<Rank> {
        if self.is_bank_node(node) {
            return None;
        }
        let below = self.bank_nodes[..self.banks()]
            .iter()
            .filter(|b| (**b as usize) < node.index())
            .count();
        let rank = node.index() - below;
        (rank < self.ranks()).then(|| Rank::new(rank as u8))
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    topology: Topology,
    compute_pes: usize,
    memory_banks: usize,
    cache_bytes: usize,
    cache_policy: CachePolicy,
    arbiter: ArbiterConfig,
    fabric: FabricKind,
    shared_bytes: u32,
    private_bytes: u32,
    mpmmu_cache_bytes: usize,
    cycle_limit: Cycle,
    collective_algo: CollectiveAlgo,
    metrics: MetricsConfig,
    resilience: ResilienceConfig,
    coherence: CoherenceMode,
    host_threads: usize,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            topology: Topology::paper_4x4(),
            compute_pes: 4,
            memory_banks: 1,
            cache_bytes: 16 * 1024,
            cache_policy: CachePolicy::WriteBack,
            arbiter: ArbiterConfig::default(),
            fabric: FabricKind::Deflection,
            shared_bytes: 256 * 1024,
            private_bytes: 128 * 1024,
            mpmmu_cache_bytes: 16 * 1024,
            cycle_limit: 2_000_000_000,
            collective_algo: CollectiveAlgo::Linear,
            metrics: MetricsConfig::off(),
            resilience: ResilienceConfig::off(),
            coherence: CoherenceMode::Dii,
            host_threads: 1,
        }
    }
}

impl SystemConfigBuilder {
    /// The torus to assemble the system on (default: the paper's 4×4
    /// folded torus). The PE-count bound follows: `1..=nodes − 1`.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Number of compute PEs (`1..=nodes − memory_banks` of the configured
    /// topology; 1..=15 on the default 4×4 torus).
    pub fn compute_pes(mut self, n: usize) -> Self {
        self.compute_pes = n;
        self
    }

    /// Number of address-interleaved MPMMU banks (a power of two,
    /// default 1). The shared address space is interleaved over the banks
    /// at cache-line granularity and the bank nodes are spread across the
    /// torus; `1` is the paper's single node-0 MPMMU and reproduces its
    /// behavior bit-for-bit.
    pub fn memory_banks(mut self, n: usize) -> Self {
        self.memory_banks = n;
        self
    }

    /// L1 cache size in bytes (the paper sweeps 2 kB..64 kB).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// L1 write policy.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Arbiter build option (§II-B).
    pub fn arbiter(mut self, arbiter: ArbiterConfig) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Fabric kind (A2 ablation).
    pub fn fabric(mut self, fabric: FabricKind) -> Self {
        self.fabric = fabric;
        self
    }

    /// Shared-segment size in bytes.
    pub fn shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Per-rank private-segment size in bytes.
    pub fn private_bytes(mut self, bytes: u32) -> Self {
        self.private_bytes = bytes;
        self
    }

    /// MPMMU local cache size in bytes.
    pub fn mpmmu_cache_bytes(mut self, bytes: usize) -> Self {
        self.mpmmu_cache_bytes = bytes;
        self
    }

    /// Abort threshold in simulated cycles.
    pub fn cycle_limit(mut self, cycles: Cycle) -> Self {
        self.cycle_limit = cycles;
        self
    }

    /// Algorithm for eMPI collectives. The default, `Linear`, reproduces
    /// the seed's rank-0-centred message patterns (and so the paper-4×4
    /// golden fingerprints); `BinomialTree`/`RecursiveDoubling` turn the
    /// O(ranks) barrier into O(log ranks) rounds for the 63–255-rank
    /// tori.
    pub fn collective_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.collective_algo = algo;
        self
    }

    /// The metrics-sampling knob (default: [`MetricsConfig::off`]).
    ///
    /// When enabled (`MetricsConfig::every(k)`), the cycle engine records
    /// per-PE cycle attribution plus a sample window every `k` cycles
    /// (per-link utilization, PE states, bank FIFO/lock/coherence
    /// pressure) and attaches the [`medea_metrics::MetricsReport`] to
    /// `RunResult::metrics`. Metrics observe and never steer: a
    /// metrics-on run is bit-identical to the same run with metrics off,
    /// and the knob never enters the label. Enabling
    /// metrics makes kernels issue their zero-cycle span markers (the
    /// profiler needs them to classify collective waits), exactly as an
    /// active trace sink does.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Resilient-delivery knobs (default: [`ResilienceConfig::off`]).
    ///
    /// Turning anything on changes timing even without injected faults
    /// (resilient eMPI polls instead of blocking), so this is never
    /// implied by fault injection — pair it with `System::run_with`
    /// deliberately.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// The coherence option (default [`CoherenceMode::Dii`], the paper's
    /// §II-E software flush/invalidate discipline — bit-for-bit faithful,
    /// no `Coherence` flit ever exists). `MesiDirectory` enables the
    /// beyond-the-paper hardware option: MPMMU banks keep a per-line
    /// directory and invalidate/fetch L1 copies over the NoC, so kernels
    /// may skip the DII operations entirely. Requires a write-back L1 and
    /// is an *architectural* knob: it changes timing, traffic and the
    /// label.
    pub fn coherence(mut self, mode: CoherenceMode) -> Self {
        self.coherence = mode;
        self
    }

    /// Host threads for one run (default 1). Inert: every run takes the
    /// one engine on the calling thread, whatever `n` is, and parallelism
    /// comes from sweeping design points (`run_sweep`). The method stays
    /// only while a workload of the repository benchmark (`simbench`)
    /// still sets it; `build` still rejects 0. It never affects
    /// [`SystemConfig::label`].
    pub fn host_threads(mut self, n: usize) -> Self {
        self.host_threads = n;
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// Returns [`BuildConfigError`] when the bank count is not a power of
    /// two that fits the topology, when the PE count exceeds the nodes
    /// left over by the banks, when cache geometry is invalid, or when
    /// the memory layout is malformed.
    pub fn build(self) -> Result<SystemConfig, BuildConfigError> {
        if !self.memory_banks.is_power_of_two() || self.memory_banks > MAX_BANKS {
            return Err(BuildConfigError(format!(
                "memory_banks must be a power of two in 1..={MAX_BANKS}, got {}",
                self.memory_banks
            )));
        }
        let (nx, ny) = bank_grid(self.topology, self.memory_banks);
        if nx > self.topology.width() as usize || ny > self.topology.height() as usize {
            return Err(BuildConfigError(format!(
                "{} banks do not spread over the {} ({nx}x{ny} placement grid needed)",
                self.memory_banks, self.topology
            )));
        }
        let max_pes = self.topology.nodes() - self.memory_banks;
        if !(1..=max_pes).contains(&self.compute_pes) {
            return Err(BuildConfigError(format!(
                "compute_pes must be 1..={max_pes} on the {} with {} memory bank(s) (each \
                 bank occupies a node), got {}",
                self.topology, self.memory_banks, self.compute_pes
            )));
        }
        let cache = CacheConfig::new(self.cache_bytes, self.cache_policy)
            .map_err(|e| BuildConfigError(e.to_string()))?;
        let mpmmu_cache = CacheConfig::new(self.mpmmu_cache_bytes, CachePolicy::WriteBack)
            .map_err(|e| BuildConfigError(format!("mpmmu cache: {e}")))?;
        let layout = MemoryMap::new(self.compute_pes, self.shared_bytes, self.private_bytes)
            .map_err(|e| BuildConfigError(e.to_string()))?;
        if self.cycle_limit == 0 {
            return Err(BuildConfigError("cycle limit must be positive".into()));
        }
        if self.host_threads == 0 {
            return Err(BuildConfigError("host_threads must be positive".into()));
        }
        if self.resilience.empi_retransmit
            && (self.resilience.empi_timeout == 0 || self.resilience.empi_max_attempts == 0)
        {
            return Err(BuildConfigError(
                "empi_retransmit needs a positive empi_timeout and empi_max_attempts".into(),
            ));
        }
        if self.coherence.is_hardware() {
            if self.cache_policy != CachePolicy::WriteBack {
                return Err(BuildConfigError(
                    "directory MESI requires a write-back L1 (ownership lives in the cache)".into(),
                ));
            }
            if self.resilience.bridge_timeout != 0 {
                return Err(BuildConfigError(
                    "directory MESI is incompatible with the bridge read-retry timeout \
                     (coherence transactions are not idempotent)"
                        .into(),
                ));
            }
        }
        Ok(SystemConfig {
            topology: self.topology,
            compute_pes: self.compute_pes,
            memory_banks: self.memory_banks,
            cache,
            arbiter: self.arbiter,
            fabric: self.fabric,
            layout,
            mpmmu_cache,
            cycle_limit: self.cycle_limit,
            collective_algo: self.collective_algo,
            metrics: self.metrics,
            resilience: self.resilience,
            coherence: self.coherence,
            host_threads: self.host_threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_threads_is_a_host_knob_not_an_architectural_one() {
        let cfg = SystemConfig::builder().host_threads(8).build().unwrap();
        assert_eq!(cfg.host_threads(), 8);
        // The label identifies the *architecture*; the engine thread
        // count must not leak into it.
        assert_eq!(cfg.label(), SystemConfig::builder().build().unwrap().label());
        assert_eq!(SystemConfig::builder().build().unwrap().host_threads(), 1);
        assert!(SystemConfig::builder().host_threads(0).build().is_err());
    }

    #[test]
    fn defaults_build() {
        let cfg = SystemConfig::builder().build().unwrap();
        assert_eq!(cfg.compute_pes(), 4);
        assert_eq!(cfg.cache().total_bytes(), 16 * 1024);
        assert_eq!(cfg.label(), "4P_16k$_WB");
        assert_eq!(cfg.topology().nodes(), 16);
        // The default algorithm is the deliberate fingerprint-preserving
        // choice; trees are opt-in.
        assert_eq!(cfg.collective_algo(), CollectiveAlgo::Linear);
    }

    #[test]
    fn metrics_defaults_off_and_never_labels() {
        let cfg = SystemConfig::builder().build().unwrap();
        assert!(!cfg.metrics().enabled());
        let on = SystemConfig::builder().metrics(MetricsConfig::every(5_000)).build().unwrap();
        assert!(on.metrics().enabled());
        assert_eq!(on.metrics().sample_interval(), 5_000);
        // Observability knob: the architectural label must not change.
        assert_eq!(on.label(), cfg.label());
    }

    #[test]
    fn collective_algo_is_configurable() {
        for algo in CollectiveAlgo::ALL {
            let cfg = SystemConfig::builder().collective_algo(algo).build().unwrap();
            assert_eq!(cfg.collective_algo(), algo);
        }
    }

    #[test]
    fn rank_node_mapping() {
        let cfg = SystemConfig::builder().compute_pes(3).build().unwrap();
        assert_eq!(cfg.node_of_rank(Rank::new(0)), NodeId::new(1));
        assert_eq!(cfg.node_of_rank(Rank::new(2)), NodeId::new(3));
        assert_eq!(cfg.rank_of_node(NodeId::new(1)), Some(Rank::new(0)));
        assert_eq!(cfg.rank_of_node(NodeId::new(0)), None, "MPMMU node");
        assert_eq!(cfg.rank_of_node(NodeId::new(4)), None, "beyond PE count");
    }

    #[test]
    fn coherence_axis() {
        let cfg = SystemConfig::builder().build().unwrap();
        assert_eq!(cfg.coherence(), CoherenceMode::Dii, "DII is the paper-faithful default");
        assert_eq!(cfg.pe_config(Rank::new(0)).coherence, CoherenceMode::Dii);
        assert_eq!(cfg.mpmmu_config().coherence, CoherenceMode::Dii);

        let mesi = SystemConfig::builder().coherence(CoherenceMode::MesiDirectory).build().unwrap();
        assert_eq!(mesi.coherence(), CoherenceMode::MesiDirectory);
        assert_eq!(mesi.pe_config(Rank::new(0)).coherence, CoherenceMode::MesiDirectory);
        assert_eq!(mesi.mpmmu_config().coherence, CoherenceMode::MesiDirectory);
        // An architectural knob: it must show in the label.
        assert_eq!(mesi.label(), "4P_16k$_WB_mesi");

        // MESI needs a write-back L1 …
        assert!(SystemConfig::builder()
            .coherence(CoherenceMode::MesiDirectory)
            .cache_policy(CachePolicy::WriteThrough)
            .build()
            .is_err());
        // … and excludes the bridge read-retry resilience knob.
        let retry = ResilienceConfig { bridge_timeout: 20_000, ..ResilienceConfig::off() };
        assert!(SystemConfig::builder()
            .coherence(CoherenceMode::MesiDirectory)
            .resilience(retry)
            .build()
            .is_err());
        assert!(SystemConfig::builder().resilience(retry).build().is_ok(), "fine under DII");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(SystemConfig::builder().compute_pes(0).build().is_err());
        assert!(SystemConfig::builder().compute_pes(16).build().is_err());
        assert!(SystemConfig::builder().cache_bytes(3000).build().is_err());
        assert!(SystemConfig::builder().cycle_limit(0).build().is_err());
    }

    #[test]
    fn pe_bound_derives_from_topology() {
        // The bound is nodes − 1 of the *configured* torus, not 15.
        let t8 = Topology::new(8, 8).unwrap();
        let cfg = SystemConfig::builder().topology(t8).compute_pes(63).build().unwrap();
        assert_eq!(cfg.compute_pes(), 63);
        assert_eq!(cfg.topology().nodes(), 64);
        assert!(SystemConfig::builder().topology(t8).compute_pes(64).build().is_err());

        let t16 = Topology::new(16, 16).unwrap();
        let big = SystemConfig::builder().topology(t16).compute_pes(255).build().unwrap();
        assert_eq!(big.compute_pes(), 255);
        assert!(SystemConfig::builder().topology(t16).compute_pes(256).build().is_err());

        let t2 = Topology::new(2, 2).unwrap();
        assert!(SystemConfig::builder().topology(t2).compute_pes(3).build().is_ok());
        assert!(SystemConfig::builder().topology(t2).compute_pes(4).build().is_err());
    }

    #[test]
    fn rank_node_mapping_beyond_paper_torus() {
        let t8 = Topology::new(8, 8).unwrap();
        let cfg = SystemConfig::builder().topology(t8).compute_pes(63).build().unwrap();
        assert_eq!(cfg.node_of_rank(Rank::new(62)), NodeId::new(63));
        assert_eq!(cfg.rank_of_node(NodeId::new(63)), Some(Rank::new(62)));
        assert_eq!(cfg.rank_of_node(NodeId::new(0)), None, "MPMMU node");
        assert_eq!(cfg.layout().ranks(), 63);
        assert_eq!(cfg.mpmmu_config().num_procs, 63);
    }

    #[test]
    fn label_carries_non_paper_topology() {
        let t8 = Topology::new(8, 8).unwrap();
        let cfg = SystemConfig::builder().topology(t8).compute_pes(63).build().unwrap();
        assert_eq!(cfg.label(), "63P_16k$_WB@8x8");
    }

    #[test]
    fn mpmmu_config_derivation() {
        let cfg = SystemConfig::builder().compute_pes(7).build().unwrap();
        let m = cfg.mpmmu_config();
        assert_eq!(m.num_procs, 7);
        assert_eq!(m.mem_bytes, cfg.layout().total_bytes());
    }

    #[test]
    fn paper_label_format() {
        let cfg = SystemConfig::builder()
            .compute_pes(11)
            .cache_bytes(16 * 1024)
            .cache_policy(CachePolicy::WriteBack)
            .build()
            .unwrap();
        assert_eq!(cfg.label(), "11P_16k$_WB");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn node_of_bad_rank_panics() {
        let cfg = SystemConfig::builder().compute_pes(2).build().unwrap();
        cfg.node_of_rank(Rank::new(5));
    }

    #[test]
    fn single_bank_default_is_node_zero() {
        let cfg = SystemConfig::builder().build().unwrap();
        assert_eq!(cfg.memory_banks(), 1);
        assert_eq!(cfg.bank_nodes(), vec![NodeId::new(0)]);
        assert_eq!(cfg.bank_map().banks(), 1);
        assert_eq!(cfg.mpmmu_node(), NodeId::new(0));
    }

    #[test]
    fn bank_placement_spreads_over_the_torus() {
        let t16 = Topology::new(16, 16).unwrap();
        let cfg =
            SystemConfig::builder().topology(t16).compute_pes(252).memory_banks(4).build().unwrap();
        // 2×2 sub-grid: half-torus strides on both axes, bank 0 at node 0.
        let nodes: Vec<usize> = cfg.bank_nodes().iter().map(|n| n.index()).collect();
        assert_eq!(nodes, vec![0, 8, 16 * 8, 16 * 8 + 8]);
        let map = cfg.bank_map();
        assert_eq!(map.banks(), 4);
        assert_eq!(map.bank_of(0x00), 0);
        assert_eq!(map.bank_of(0x10), 1);
        assert_eq!(map.bank_of(0x20), 2);
        assert_eq!(map.bank_of(0x30), 3);
        assert_eq!(map.bank_of(0x40), 0);
    }

    #[test]
    fn ranks_skip_bank_nodes() {
        // Two banks on the 4×4 torus occupy nodes 0 and 2; ranks fill the
        // remaining nodes in ascending order.
        let cfg = SystemConfig::builder().compute_pes(5).memory_banks(2).build().unwrap();
        assert_eq!(cfg.bank_nodes(), vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(cfg.node_of_rank(Rank::new(0)), NodeId::new(1));
        assert_eq!(cfg.node_of_rank(Rank::new(1)), NodeId::new(3));
        assert_eq!(cfg.node_of_rank(Rank::new(2)), NodeId::new(4));
        assert_eq!(cfg.rank_of_node(NodeId::new(0)), None, "bank node");
        assert_eq!(cfg.rank_of_node(NodeId::new(2)), None, "bank node");
        assert_eq!(cfg.rank_of_node(NodeId::new(3)), Some(Rank::new(1)));
        assert_eq!(cfg.rank_of_node(NodeId::new(7)), None, "beyond PE count");
    }

    #[test]
    fn node_plan_inverts_everywhere() {
        for (w, h, banks) in [(4u8, 4u8, 1usize), (4, 4, 4), (8, 8, 2), (16, 16, 8), (8, 2, 4)] {
            let topo = Topology::new(w, h).unwrap();
            let pes = topo.nodes() - banks;
            let cfg = SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .build()
                .unwrap();
            let plan = cfg.node_plan();
            let mut seen = std::collections::HashSet::new();
            for r in 0..pes {
                let node = plan.node_of_rank(Rank::new(r as u8));
                assert!(!plan.is_bank_node(node), "{w}x{h}/{banks}: rank {r} on a bank node");
                assert!(seen.insert(node), "{w}x{h}/{banks}: node {node} double-assigned");
                assert_eq!(plan.rank_of_node(node), Some(Rank::new(r as u8)));
            }
            for bank in cfg.bank_nodes() {
                assert_eq!(plan.rank_of_node(bank), None);
            }
        }
    }

    #[test]
    fn bank_count_validation() {
        assert!(SystemConfig::builder().memory_banks(0).build().is_err(), "zero");
        assert!(SystemConfig::builder().memory_banks(3).build().is_err(), "not a power of two");
        assert!(SystemConfig::builder().memory_banks(32).build().is_err(), "beyond MAX_BANKS");
        // 16 banks fill the whole 4×4 torus: no node left for a PE.
        assert!(SystemConfig::builder().memory_banks(16).compute_pes(1).build().is_err());
        // The PE bound is nodes − banks.
        assert!(SystemConfig::builder().memory_banks(2).compute_pes(14).build().is_ok());
        assert!(SystemConfig::builder().memory_banks(2).compute_pes(15).build().is_err());
        // 8 banks need a 4×2 placement grid; it fits 4×4 but not 2×2.
        let t2 = Topology::new(2, 2).unwrap();
        assert!(SystemConfig::builder().topology(t2).memory_banks(8).build().is_err());
        assert!(SystemConfig::builder().memory_banks(8).compute_pes(8).build().is_ok());
    }

    #[test]
    fn label_carries_bank_count() {
        let cfg = SystemConfig::builder().compute_pes(5).memory_banks(2).build().unwrap();
        assert_eq!(cfg.label(), "5P_16k$_WBx2B");
        let t8 = Topology::new(8, 8).unwrap();
        let cfg =
            SystemConfig::builder().topology(t8).compute_pes(60).memory_banks(4).build().unwrap();
        assert_eq!(cfg.label(), "60P_16k$_WB@8x8x4B");
    }
}
