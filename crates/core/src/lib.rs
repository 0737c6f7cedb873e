//! System assembly and programming model of the MEDEA reproduction.
//!
//! This crate is the paper's primary contribution: the configurable hybrid
//! shared-memory/message-passing framework. It wires the substrates —
//! deflection-routed NoC (`medea-noc`), L1 caches (`medea-cache`), MPMMU +
//! DDR (`medea-mem`) and processing elements (`medea-pe`) — into a
//! cycle-accurate full-system simulator, and provides:
//!
//! * [`SystemConfig`] — the design-space knobs the paper sweeps (number of
//!   cores, cache size/policy, arbiter option, FP option) plus the
//!   beyond-the-paper `memory_banks` knob: N address-interleaved MPMMU
//!   banks spread across the torus (default 1 at node 0 — the paper's
//!   single-slave instance, reproduced bit-for-bit);
//! * [`System`](system::System) — the cycle engine with idle fast-forward;
//!   it runs one kernel per PE, a [`Task`]: an `async` body its PE polls in
//!   place;
//! * [`AsyncPeApi`](api::AsyncPeApi) — the architectural-operation
//!   interface kernels program against (loads/stores through the cache,
//!   §II-E coherence operations, lock/unlock, raw TIE messages);
//! * [`empi`] — the embedded-MPI layer (§II-E) as a communicator object:
//!   [`AsyncEmpi`] wraps a kernel's API with point-to-point transfers
//!   (`send`/`recv`/`sendrecv`) and algorithm-selectable collectives
//!   (`barrier`, `bcast`, `reduce`, `allreduce`, `gather`, `scatter` —
//!   linear, binomial-tree or recursive-doubling per [`CollectiveAlgo`]);
//! * [`area`] — the TSMC-65nm area model with kill-rule Pareto pruning
//!   used for Figs. 7 and 9;
//! * [`explore`] — the multi-configuration design-space exploration driver
//!   (the paper's 168-point sweep);
//! * [`oracle`] — the naive tick-everything reference engine the cycle
//!   engine is checked against, bit for bit.
//!
//! # Example
//!
//! ```
//! use medea_core::{AsyncEmpi, CachePolicy, SystemConfig, Task};
//! use medea_core::system::System;
//! use medea_sim::ids::Rank;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::builder()
//!     .compute_pes(2)
//!     .cache_bytes(4 * 1024)
//!     .cache_policy(CachePolicy::WriteBack)
//!     .build()?;
//! // Two kernels exchanging one framed eMPI message through their
//! // communicators.
//! let result = System::run(&cfg, &[], vec![
//!     Task::new(|api| async move {
//!         let comm = AsyncEmpi::new(api);
//!         let message = comm.recv(Rank::new(1)).await;
//!         assert_eq!(message, vec![42]);
//!     }),
//!     Task::new(|api| async move {
//!         AsyncEmpi::new(api).send(Rank::new(0), &[42]).await;
//!     }),
//! ])?;
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod area;
pub mod calib;
pub mod config;
pub mod empi;
pub mod explore;
pub mod layout;
pub mod oracle;
pub(crate) mod sched;
pub mod system;

pub use config::{BuildConfigError, NodePlan, ResilienceConfig, SystemConfig, SystemConfigBuilder};
pub use empi::{AsyncEmpi, CollectiveAlgo};
pub use medea_cache::CachePolicy;
pub use medea_cache::CoherenceMode as Coherence;
pub use medea_cache::CoherenceStats;
pub use medea_fault::{
    DeadLink, FaultConfig, FaultInjector, FaultStats, NullInjector, ScheduledInjector,
};
pub use medea_mem::BankMap;
pub use medea_metrics::{CycleBreakdown, MetricsConfig, MetricsReport, PeActivity, SampleWindow};
pub use medea_noc::coord::Topology;
pub use medea_pe::arbiter::{ArbiterConfig, PriorityAssignment};
pub use medea_trace::{EventClass, KernelOp, NullSink, RingSink, TraceSink};
pub use system::{AnyKernel, RunError, RunResult, Task};

/// Which fabric carries the traffic (A2 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FabricKind {
    /// The paper's deflection-routed folded torus.
    #[default]
    Deflection,
    /// Contention-free ideal network (ablation baseline).
    Ideal,
}
