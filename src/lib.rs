//! # MEDEA — hybrid shared-memory/message-passing NoC multiprocessor
//!
//! Facade crate for the reproduction of *"MEDEA: a Hybrid
//! Shared-memory/Message-passing Multiprocessor NoC-based Architecture"*
//! (Tota, Casu, Ruo Roch, Rostagno, Zamboni — DATE 2010).
//!
//! This crate re-exports the public API of the individual subsystem crates:
//!
//! * [`sim`] — cycle-stepped simulation kernel and kernel hosting (polled
//!   tasks and kernel threads);
//! * [`trace`] — zero-overhead cross-layer event tracing with Chrome-trace
//!   and CSV export;
//! * [`noc`] — folded-torus network-on-chip with deflection routing;
//! * [`fault`] — deterministic seeded cross-layer fault injection;
//! * [`cache`] — write-back / write-through L1 cache models;
//! * [`mem`] — MPMMU, lock table and DDR model;
//! * [`metrics`] — zero-cost cycle attribution, time-series sampling and
//!   the NoC heatmap report;
//! * [`pe`] — processing element: TIE interface, pif2NoC bridge, arbiter;
//! * [`core`] — system assembly, eMPI programming model, area model and
//!   design-space exploration;
//! * [`apps`] — the parallel Jacobi workloads and auxiliary kernels.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete runnable example; the short
//! version is:
//!
//! ```
//! use medea::core::{SystemConfig, CachePolicy};
//! use medea::apps::jacobi::{JacobiConfig, JacobiVariant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = SystemConfig::builder()
//!     .compute_pes(4)
//!     .cache_bytes(16 * 1024)
//!     .cache_policy(CachePolicy::WriteBack)
//!     .build()?;
//! let jacobi = JacobiConfig::new(16, JacobiVariant::HybridFullMp)
//!     .with_warmup_iters(1)
//!     .with_measured_iters(1);
//! let outcome = medea::apps::jacobi::run(&system, &jacobi)?;
//! assert!(outcome.run.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub use medea_apps as apps;
pub use medea_cache as cache;
pub use medea_core as core;
pub use medea_fault as fault;
pub use medea_mem as mem;
pub use medea_metrics as metrics;
pub use medea_noc as noc;
pub use medea_pe as pe;
pub use medea_sim as sim;
pub use medea_trace as trace;
