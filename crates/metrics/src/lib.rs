//! Zero-cost-when-off telemetry for the MEDEA cycle engines.
//!
//! The paper evaluates MEDEA by *where cycles go* — message passing versus
//! memory-hierarchy synchronization (§III), deflection-induced latency
//! tails (§II-A) — but endpoint counters alone cannot answer "what
//! fraction of this run was barrier wait versus NoC transit versus bank
//! queueing?". This crate adds the missing observability layer, in three
//! pillars:
//!
//! 1. **Cycle attribution** ([`CycleBreakdown`]): every simulated cycle of
//!    every PE is attributed to one [`PeActivity`] category (compute,
//!    memory, lock wait, send, recv wait, collective wait, done), so a run
//!    can report e.g. "62% compute / 21% recv-wait / 9% mem / 8% barrier".
//!    Attribution is interval-based — the engine reports a PE's activity
//!    only when the PE actually ticks, and the recorder charges the whole
//!    span since the previous tick — so idle fast-forward jumps are exact
//!    and the per-PE totals equal the run's cycle count by construction.
//! 2. **Periodic time-series sampling** ([`SampleWindow`]): every K cycles
//!    (configured via [`MetricsConfig`]) the engine snapshots per-link
//!    utilization, per-PE execution state and queue occupancies (NoC
//!    arbiter backlog, TIE receive backlog — the engine-visible face of
//!    the eMPI credit window), per-bank FIFO occupancy, lock contention
//!    and coherence protocol traffic into a preallocated ring of windows.
//! 3. **Renderers** ([`heatmap`]): a self-contained HTML/SVG torus
//!    heatmap animated over the sample windows, plus helpers feeding the
//!    `utilization` section of the benchmark JSON.
//!
//! # The `NullMeter` zero-cost contract
//!
//! Exactly like `medea-trace`'s `NullSink` and `medea-fault`'s
//! `NullInjector`, every instrumentation site in the engines is guarded by
//! the associated constant [`Meter::ACTIVE`]:
//!
//! ```ignore
//! if M::ACTIVE {
//!     meter.link_busy(node, mask);
//! }
//! ```
//!
//! With [`NullMeter`] (`ACTIVE = false`) monomorphization deletes both the
//! branch and the argument computation, so a metrics-off run is bit- and
//! instruction-identical to a build without the subsystem — the golden
//! fingerprint suite pins this. With [`Recorder`] the engine state is only
//! *read*, never perturbed: metrics-on runs produce numerically identical
//! architectural results (pinned by `tests/metrics_equivalence.rs`).
//!
//! The engine runs on one host thread, so one [`Recorder`] sees every PE,
//! bank and router of the run.

pub mod heatmap;
pub mod meter;
pub mod report;

pub use meter::{Meter, MetricsConfig, NullMeter, Recorder};
pub use report::{CycleBreakdown, MetricsReport, SampleWindow};

/// What a PE is doing with a simulated cycle — the attribution categories
/// of [`CycleBreakdown`] and the per-PE state sampled into
/// [`SampleWindow`].
///
/// The categories follow the paper's evaluation axes: computation versus
/// message passing (send / recv wait) versus shared-memory traffic (mem,
/// lock wait) versus global synchronization (collective wait — time spent
/// inside an eMPI collective such as `barrier`). `Done` covers the tail a
/// finished rank spends waiting for the rest of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PeActivity {
    /// Executing kernel work: fetching the next request or stalled on a
    /// compute/FPU latency.
    Compute = 0,
    /// Waiting on the memory hierarchy: cache miss service, MPMMU round
    /// trips, flush/invalidate latency.
    Mem = 1,
    /// Waiting for an MPMMU lock grant (spinning on Nacks).
    LockWait = 2,
    /// Streaming message flits into the NoC.
    Send = 3,
    /// Blocked in a point-to-point receive with no packet available.
    RecvWait = 4,
    /// Blocked inside an eMPI collective (barrier, bcast, reduce,
    /// allreduce, gather, scatter) — the paper's global-sync cost.
    CollectiveWait = 5,
    /// Kernel finished; cycles spent waiting for the rest of the run.
    Done = 6,
}

impl PeActivity {
    /// Number of categories (array dimension of [`CycleBreakdown`]).
    pub const COUNT: usize = 7;

    /// All categories, in index order.
    pub const ALL: [PeActivity; PeActivity::COUNT] = [
        PeActivity::Compute,
        PeActivity::Mem,
        PeActivity::LockWait,
        PeActivity::Send,
        PeActivity::RecvWait,
        PeActivity::CollectiveWait,
        PeActivity::Done,
    ];

    /// Array index of this category.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short stable label (used by tables, JSON keys and the heatmap).
    pub const fn name(self) -> &'static str {
        match self {
            PeActivity::Compute => "compute",
            PeActivity::Mem => "mem",
            PeActivity::LockWait => "lock-wait",
            PeActivity::Send => "send",
            PeActivity::RecvWait => "recv-wait",
            PeActivity::CollectiveWait => "collective-wait",
            PeActivity::Done => "done",
        }
    }

    /// Category from its array index, if in range.
    pub fn from_index(i: usize) -> Option<PeActivity> {
        PeActivity::ALL.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_index_roundtrip() {
        for (i, act) in PeActivity::ALL.iter().enumerate() {
            assert_eq!(act.index(), i);
            assert_eq!(PeActivity::from_index(i), Some(*act));
        }
        assert_eq!(PeActivity::from_index(PeActivity::COUNT), None);
        assert_eq!(PeActivity::ALL.len(), PeActivity::COUNT);
    }

    #[test]
    fn activity_names_are_distinct() {
        let mut names: Vec<&str> = PeActivity::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PeActivity::COUNT);
    }
}
