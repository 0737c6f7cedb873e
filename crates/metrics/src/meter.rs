//! The [`Meter`] instrumentation interface and its two implementations:
//! the zero-cost [`NullMeter`] and the recording [`Recorder`].
//!
//! The cycle engine is generic over `M: Meter` and calls into it at four
//! kinds of site, all guarded by `M::ACTIVE`:
//!
//! * [`Meter::link_busy`] — once per active router per cycle, from the
//!   fabric tick, with the 4-bit occupancy mask of its output latches;
//! * [`Meter::pe_state`] — whenever a PE ticks, with the PE's activity
//!   *after* the tick; the recorder charges the span since the previous
//!   tick to the previous activity (interval attribution), which makes
//!   idle fast-forward exact;
//! * [`Meter::next_sample`] / [`Meter::sample_pe`] / [`Meter::sample_bank`]
//!   / [`Meter::commit_window`] — the sampling catch-up loop run at the
//!   top of every simulated cycle: while the next window boundary has
//!   passed, snapshot every PE and bank and commit the window (the loop
//!   form makes multi-window fast-forward jumps emit one window per
//!   boundary, with frozen state — exactly what the sequential engine
//!   would have observed);
//! * [`Meter::finish`] — once at end of run, after a final snapshot:
//!   flushes the open attribution spans and the partial last window.
//!
//! A metered run always takes the sequential driver, whatever its
//! `host_threads`, so one meter sees the whole machine.

use crate::report::{CycleBreakdown, MetricsReport, SampleWindow};
use crate::PeActivity;
use medea_sim::Cycle;

/// Sampling configuration handed to `SystemConfigBuilder::metrics`.
///
/// The single `sample_interval` knob both enables the subsystem and sets
/// the window length; `MetricsConfig::off()` (the default) keeps the
/// engines on the [`NullMeter`] path where every instrumentation site
/// compiles away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    sample_interval: Cycle,
    max_windows: usize,
}

impl MetricsConfig {
    /// Default ring capacity of [`MetricsConfig::every`].
    pub const DEFAULT_MAX_WINDOWS: usize = 256;

    /// Metrics off (the default): engines run the zero-cost path.
    pub const fn off() -> Self {
        MetricsConfig { sample_interval: 0, max_windows: 0 }
    }

    /// Enable metrics with one sample window every `interval` cycles
    /// (`interval == 0` means off) and the default ring capacity.
    pub const fn every(interval: Cycle) -> Self {
        MetricsConfig { sample_interval: interval, max_windows: Self::DEFAULT_MAX_WINDOWS }
    }

    /// Keep at most `max` windows (oldest evicted first, counted in
    /// [`MetricsReport::windows_dropped`]). Clamped to at least 1.
    pub const fn with_max_windows(mut self, max: usize) -> Self {
        self.max_windows = if max == 0 { 1 } else { max };
        self
    }

    /// Whether the subsystem records anything.
    pub const fn enabled(&self) -> bool {
        self.sample_interval > 0
    }

    /// Window length in cycles (0 when off).
    pub const fn sample_interval(&self) -> Cycle {
        self.sample_interval
    }

    /// Ring capacity in windows.
    pub const fn max_windows(&self) -> usize {
        self.max_windows
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::off()
    }
}

/// A destination for engine telemetry. See the module docs for the call
/// sites and their contract.
///
/// Implementations must be cheap: `link_busy`/`pe_state` run inside the
/// engine hot loops.
pub trait Meter {
    /// Whether this meter observes anything. `false` only for
    /// [`NullMeter`]; the constant lets monomorphization delete every
    /// instrumentation site.
    const ACTIVE: bool;

    /// One cycle of output-latch occupancy at `node`: bit `d` of `mask`
    /// is set iff the router latched a flit onto output direction `d`
    /// this cycle (direction indices follow `medea-noc`'s `Dir`).
    fn link_busy(&mut self, _node: u16, _mask: u8) {}

    /// PE `slot` ticked at `now` and is now in state `act`. The span
    /// since the PE's previous tick is charged to its previous state.
    fn pe_state(&mut self, _slot: usize, _now: Cycle, _act: PeActivity) {}

    /// First cycle at which the accumulating window must be committed
    /// (`Cycle::MAX` when sampling is off — the engine's catch-up loop
    /// then never runs).
    fn next_sample(&self) -> Cycle {
        Cycle::MAX
    }

    /// Stage PE `slot`'s boundary snapshot: activity, NoC arbiter
    /// backlog, and TIE receive backlog (completed + partial packets —
    /// the engine-visible face of the eMPI credit window).
    fn sample_pe(&mut self, _slot: usize, _act: PeActivity, _arb: usize, _rx: usize) {}

    /// Stage bank `slot`'s boundary snapshot: request/data/out FIFO
    /// occupancies plus the *running totals* of lock Nacks and coherence
    /// protocol messages (the recorder stores per-window deltas).
    fn sample_bank(
        &mut self,
        _slot: usize,
        _req: usize,
        _data: usize,
        _out: usize,
        _lock_nacks: u64,
        _coh_msgs: u64,
    ) {
    }

    /// Commit the staged snapshots and accumulated link counts as the
    /// window ending at the current [`Meter::next_sample`] boundary.
    fn commit_window(&mut self) {}

    /// End of run at cycle `end`: flush open attribution spans and commit
    /// the partial final window (if any) from the staged snapshots.
    fn finish(&mut self, _end: Cycle) {}
}

/// The no-op meter: metrics off. All instrumentation sites compile away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMeter;

impl Meter for NullMeter {
    const ACTIVE: bool = false;
}

/// The recording meter behind [`MetricsReport`].
///
/// All series are preallocated at construction; the window ring reuses
/// its buffers once full, so steady-state recording allocates nothing.
#[derive(Debug, Clone)]
pub struct Recorder {
    interval: Cycle,
    max_windows: usize,
    width: u8,
    height: u8,
    pes: usize,
    banks: usize,

    // Cycle attribution (interval accounting per PE slot).
    cat: Vec<u8>,
    last: Vec<Cycle>,
    seen: Vec<bool>,
    breakdown: Vec<CycleBreakdown>,

    // The window currently accumulating.
    window: u64,
    link_acc: Vec<u32>,
    pe_act: Vec<u8>,
    pe_arb: Vec<u16>,
    pe_rx: Vec<u16>,
    bank_req: Vec<u16>,
    bank_data: Vec<u16>,
    bank_out: Vec<u16>,
    lock_delta: Vec<u32>,
    coh_delta: Vec<u32>,
    lock_seen: Vec<u64>,
    coh_seen: Vec<u64>,

    // Committed windows: a ring of at most `max_windows`, oldest at
    // `ring_start` once wrapped.
    ring: Vec<SampleWindow>,
    ring_start: usize,
    windows_dropped: u64,

    end: Cycle,
}

impl Recorder {
    /// Recorder for a `width`×`height` torus with `pes` compute PEs and
    /// `banks` MPMMU banks.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not enabled — the engines must use
    /// [`NullMeter`] for metrics-off runs.
    pub fn new(cfg: MetricsConfig, width: u8, height: u8, pes: usize, banks: usize) -> Self {
        assert!(cfg.enabled(), "Recorder requires an enabled MetricsConfig");
        let nodes = width as usize * height as usize;
        Recorder {
            interval: cfg.sample_interval(),
            max_windows: cfg.max_windows().max(1),
            width,
            height,
            pes,
            banks,
            cat: vec![0; pes],
            last: vec![0; pes],
            seen: vec![false; pes],
            breakdown: vec![CycleBreakdown::default(); pes],
            window: 0,
            link_acc: vec![0; nodes * 4],
            pe_act: vec![0; pes],
            pe_arb: vec![0; pes],
            pe_rx: vec![0; pes],
            bank_req: vec![0; banks],
            bank_data: vec![0; banks],
            bank_out: vec![0; banks],
            lock_delta: vec![0; banks],
            coh_delta: vec![0; banks],
            lock_seen: vec![0; banks],
            coh_seen: vec![0; banks],
            ring: Vec::with_capacity(cfg.max_windows().max(1)),
            ring_start: 0,
            windows_dropped: 0,
            end: 0,
        }
    }

    /// Consume the recorder into the run-level report (windows oldest
    /// first).
    pub fn into_report(self) -> MetricsReport {
        let mut windows = Vec::with_capacity(self.ring.len());
        windows.extend_from_slice(&self.ring[self.ring_start..]);
        windows.extend_from_slice(&self.ring[..self.ring_start]);
        MetricsReport {
            interval: self.interval,
            end: self.end,
            width: self.width,
            height: self.height,
            pes: self.pes,
            banks: self.banks,
            breakdown: self.breakdown,
            windows,
            windows_dropped: self.windows_dropped,
        }
    }

    /// Start cycle of the window currently accumulating.
    fn window_start(&self) -> Cycle {
        self.window * self.interval
    }

    /// Commit the accumulating window as `[start, end)`, reusing ring
    /// buffers once the ring has wrapped.
    fn push_window(&mut self, start: Cycle, end: Cycle) {
        if self.ring.len() < self.max_windows {
            self.ring.push(SampleWindow {
                start,
                end,
                link_busy: self.link_acc.clone(),
                pe_activity: self.pe_act.clone(),
                pe_arb: self.pe_arb.clone(),
                pe_rx: self.pe_rx.clone(),
                bank_req: self.bank_req.clone(),
                bank_data: self.bank_data.clone(),
                bank_out: self.bank_out.clone(),
                bank_lock_nacks: self.lock_delta.clone(),
                bank_coh_msgs: self.coh_delta.clone(),
            });
        } else {
            let slot = &mut self.ring[self.ring_start];
            slot.start = start;
            slot.end = end;
            slot.link_busy.copy_from_slice(&self.link_acc);
            slot.pe_activity.copy_from_slice(&self.pe_act);
            slot.pe_arb.copy_from_slice(&self.pe_arb);
            slot.pe_rx.copy_from_slice(&self.pe_rx);
            slot.bank_req.copy_from_slice(&self.bank_req);
            slot.bank_data.copy_from_slice(&self.bank_data);
            slot.bank_out.copy_from_slice(&self.bank_out);
            slot.bank_lock_nacks.copy_from_slice(&self.lock_delta);
            slot.bank_coh_msgs.copy_from_slice(&self.coh_delta);
            self.ring_start = (self.ring_start + 1) % self.max_windows;
            self.windows_dropped += 1;
        }
        self.link_acc.fill(0);
        self.lock_delta.fill(0);
        self.coh_delta.fill(0);
    }
}

impl Meter for Recorder {
    const ACTIVE: bool = true;

    #[inline]
    fn link_busy(&mut self, node: u16, mask: u8) {
        let base = node as usize * 4;
        self.link_acc[base] += u32::from(mask & 1);
        self.link_acc[base + 1] += u32::from((mask >> 1) & 1);
        self.link_acc[base + 2] += u32::from((mask >> 2) & 1);
        self.link_acc[base + 3] += u32::from((mask >> 3) & 1);
    }

    #[inline]
    fn pe_state(&mut self, slot: usize, now: Cycle, act: PeActivity) {
        if self.seen[slot] {
            let span = now - self.last[slot];
            self.breakdown[slot].cycles[self.cat[slot] as usize] += span;
        } else {
            // First tick: charge [0, now) to the first reported state
            // (the engine ticks every PE at cycle 0, so this span is
            // normally empty; an injected stall can defer the first tick).
            self.seen[slot] = true;
            self.breakdown[slot].cycles[act.index()] += now;
        }
        self.cat[slot] = act as u8;
        self.last[slot] = now;
    }

    fn next_sample(&self) -> Cycle {
        (self.window + 1) * self.interval
    }

    fn sample_pe(&mut self, slot: usize, act: PeActivity, arb: usize, rx: usize) {
        self.pe_act[slot] = act as u8;
        self.pe_arb[slot] = arb.min(u16::MAX as usize) as u16;
        self.pe_rx[slot] = rx.min(u16::MAX as usize) as u16;
    }

    fn sample_bank(
        &mut self,
        slot: usize,
        req: usize,
        data: usize,
        out: usize,
        lock_nacks: u64,
        coh_msgs: u64,
    ) {
        self.bank_req[slot] = req.min(u16::MAX as usize) as u16;
        self.bank_data[slot] = data.min(u16::MAX as usize) as u16;
        self.bank_out[slot] = out.min(u16::MAX as usize) as u16;
        let lock = lock_nacks - self.lock_seen[slot];
        let coh = coh_msgs - self.coh_seen[slot];
        self.lock_seen[slot] = lock_nacks;
        self.coh_seen[slot] = coh_msgs;
        self.lock_delta[slot] += lock.min(u32::MAX as u64) as u32;
        self.coh_delta[slot] += coh.min(u32::MAX as u64) as u32;
    }

    fn commit_window(&mut self) {
        let start = self.window_start();
        let end = start + self.interval;
        self.push_window(start, end);
        self.window += 1;
    }

    fn finish(&mut self, end: Cycle) {
        for slot in 0..self.pes {
            if self.seen[slot] {
                let span = end - self.last[slot];
                self.breakdown[slot].cycles[self.cat[slot] as usize] += span;
                self.last[slot] = end;
            }
        }
        let start = self.window_start();
        if end > start {
            self.push_window(start, end);
        }
        self.end = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(interval: Cycle) -> Recorder {
        Recorder::new(MetricsConfig::every(interval), 2, 2, 2, 1)
    }

    #[test]
    fn config_knobs() {
        assert!(!MetricsConfig::off().enabled());
        assert!(!MetricsConfig::every(0).enabled());
        let cfg = MetricsConfig::every(100).with_max_windows(0);
        assert!(cfg.enabled());
        assert_eq!(cfg.sample_interval(), 100);
        assert_eq!(cfg.max_windows(), 1, "zero clamps to one");
        assert_eq!(MetricsConfig::default(), MetricsConfig::off());
    }

    #[test]
    fn null_meter_is_inactive_and_free() {
        fn active<M: Meter>(_m: &M) -> bool {
            M::ACTIVE
        }
        let mut m = NullMeter;
        assert!(!active(&m));
        assert!(active(&recorder(10)));
        assert_eq!(m.next_sample(), Cycle::MAX, "catch-up loop never fires");
        m.link_busy(0, 0xF);
        m.pe_state(0, 5, PeActivity::Compute);
        m.commit_window();
        m.finish(10);
    }

    #[test]
    fn interval_attribution_charges_spans_to_previous_state() {
        let mut r = recorder(1000);
        // PE 0: compute [0, 10), recv-wait [10, 25), compute [25, 40).
        r.pe_state(0, 0, PeActivity::Compute);
        r.pe_state(0, 10, PeActivity::RecvWait);
        r.pe_state(0, 25, PeActivity::Compute);
        r.finish(40);
        let b = &r.breakdown[0];
        assert_eq!(b.cycles[PeActivity::Compute.index()], 10 + 15);
        assert_eq!(b.cycles[PeActivity::RecvWait.index()], 15);
        assert_eq!(b.total(), 40, "every cycle attributed");
        // PE 1 never ticked: nothing charged.
        assert_eq!(r.breakdown[1].total(), 0);
    }

    #[test]
    fn deferred_first_tick_charges_leading_span() {
        let mut r = recorder(1000);
        r.pe_state(0, 7, PeActivity::Mem);
        r.finish(10);
        assert_eq!(r.breakdown[0].cycles[PeActivity::Mem.index()], 10);
    }

    #[test]
    fn windows_commit_at_boundaries_and_final_partial() {
        let mut r = recorder(10);
        assert_eq!(r.next_sample(), 10);
        r.link_busy(0, 0b0101); // dirs 0 and 2 at node 0
        r.sample_pe(0, PeActivity::Send, 3, 2);
        r.sample_bank(0, 1, 2, 3, 5, 7);
        r.commit_window();
        assert_eq!(r.next_sample(), 20);
        // Second window: one more lock nack (total 6), no link traffic.
        r.sample_pe(0, PeActivity::Done, 0, 0);
        r.sample_bank(0, 0, 0, 0, 6, 7);
        r.finish(15);
        let report = r.into_report();
        assert_eq!(report.windows.len(), 2);
        let w0 = &report.windows[0];
        assert_eq!((w0.start, w0.end), (0, 10));
        assert_eq!(&w0.link_busy[..4], &[1, 0, 1, 0]);
        assert_eq!(w0.pe_arb[0], 3);
        assert_eq!(w0.bank_lock_nacks[0], 5, "first delta is the total");
        let w1 = &report.windows[1];
        assert_eq!((w1.start, w1.end), (10, 15), "partial final window");
        assert_eq!(w1.bank_lock_nacks[0], 1, "delta since previous sample");
        assert_eq!(w1.bank_coh_msgs[0], 0);
        assert_eq!(&w1.link_busy[..4], &[0, 0, 0, 0], "accumulator reset");
    }

    #[test]
    fn ring_reuses_buffers_and_counts_drops() {
        let mut r = Recorder::new(MetricsConfig::every(10).with_max_windows(2), 2, 2, 1, 0);
        for i in 0..5 {
            r.link_busy(0, 1);
            r.sample_pe(0, PeActivity::Compute, i, 0);
            r.commit_window();
        }
        let report = r.into_report();
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows_dropped, 3);
        // Oldest-first ordering across the wrap.
        assert_eq!(report.windows[0].start, 30);
        assert_eq!(report.windows[1].start, 40);
        assert_eq!(report.windows[1].pe_arb[0], 4);
    }
}
