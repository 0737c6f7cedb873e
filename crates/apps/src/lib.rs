//! Workloads for the MEDEA reproduction.
//!
//! * [`grid`] — 2D grid helpers and the golden sequential Jacobi solver;
//! * [`jacobi`] — the paper's benchmark (§III): a parallel Jacobi iterative
//!   solver in the three programming-model variants the paper compares
//!   (hybrid full message passing, hybrid sync-only, pure shared memory);
//! * [`sm`] — shared-memory synchronization primitives (the lock-based
//!   barrier the pure-SM variant uses);
//! * [`pingpong`] — a two-rank synchronization-latency microbenchmark
//!   (message-passing round trip vs. a shared-memory mailbox), quantifying
//!   the paper's core motivation;
//! * [`matmul`] — a block-row matrix multiply, the first of the "standard
//!   parallel benchmarks" the paper lists as future work;
//! * [`reduce`] — an all-reduce kernel in MP and SM flavours;
//! * [`hotspot`] — a shared-memory hotspot microbenchmark (every rank
//!   hammers the MPMMU with uncached transactions), the workload behind
//!   the `memory_banks` scaling section;
//! * [`sharing`] — a fine-grained-sharing microbenchmark (lock-guarded
//!   read-modify-writes of line-interleaved counters), the workload
//!   behind the `coherence` scaling section: software DII flushes and
//!   invalidates unconditionally, directory MESI moves lines on demand.
//!
//! Every kernel here is a [`medea_core::Task`]: an `async` body over
//! `AsyncPeApi`/`AsyncEmpi` that its PE polls in place.

pub mod grid;
pub mod hotspot;
pub mod jacobi;
pub mod matmul;
pub mod pingpong;
pub mod reduce;
pub mod sharing;
pub mod sm;
pub mod workloads;

use std::sync::{Arc, Mutex};

/// Shared sink collecting `(rank, values)` rows from kernels —
/// the host-side result channel of the matrix workloads.
pub type RowSink = Arc<Mutex<Vec<(usize, Vec<f64>)>>>;
