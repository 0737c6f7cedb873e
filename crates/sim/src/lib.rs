//! Cycle-stepped simulation kernel for the MEDEA reproduction.
//!
//! The original MEDEA framework ([Tota et al., DATE 2010]) was written as a
//! cycle-accurate SystemC model. This crate provides the equivalent
//! foundations in Rust:
//!
//! * [`Cycle`] — the global time base (one clock domain, as in the paper).
//! * [`ids`] — strongly-typed identifiers for nodes and processing elements.
//! * [`fifo`] — bounded hardware FIFOs with occupancy statistics, used for
//!   every queue the paper describes (TIE output queue, MPMMU request/data
//!   queues, arbiter queues, ejection queues).
//! * [`stats`] — counters and streaming histograms for latency and traffic
//!   measurements.
//! * [`rng`] — a small deterministic PRNG (SplitMix64) so simulations are
//!   bit-reproducible across runs and platforms.
//! * [`coroutine`] — the SC_THREAD replacement: an application kernel is a
//!   future its PE polls in place (or a blocking closure on its own OS
//!   thread) and rendezvous with the cycle engine at every architectural
//!   operation.
//!
//! # Example
//!
//! ```
//! use medea_sim::fifo::Fifo;
//!
//! let mut q: Fifo<u32> = Fifo::new("example", 2);
//! assert!(q.push(1).is_ok());
//! assert!(q.push(2).is_ok());
//! assert!(q.push(3).is_err()); // bounded, like real hardware
//! assert_eq!(q.pop(), Some(1));
//! ```

pub mod coroutine;
pub mod fifo;
pub mod ids;
pub mod rng;
pub mod stats;

/// Simulation time, measured in clock cycles of the single on-chip clock
/// domain (the paper's SystemC model is likewise single-clock).
pub type Cycle = u64;

/// A hardware block advanced once per clock edge.
///
/// The full-system simulator calls [`Clocked::tick`] on every block in a
/// fixed order each cycle; blocks must therefore communicate only through
/// explicitly modeled queues and latches to stay delta-cycle-safe.
pub trait Clocked {
    /// Advance internal state by one clock cycle ending at time `now`.
    fn tick(&mut self, now: Cycle);
}
