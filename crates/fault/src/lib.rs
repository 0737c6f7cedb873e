//! # medea-fault — deterministic cross-layer fault injection
//!
//! The MEDEA paper (§II) evaluates a healthy machine; this crate is the
//! reproduction's *unhealthy-machine* harness. It injects seeded,
//! replayable faults into every architectural layer so the resilience
//! machinery — payload checksums with end-to-end retransmission in eMPI,
//! bank-request retry in the pif2NoC bridge, deflection re-routing around
//! dead links, and the cycle-budget watchdog in `System::run` — can be
//! exercised and measured instead of merely trusted.
//!
//! # The zero-cost injector template
//!
//! The cycle engine is generic over a [`FaultInjector`] exactly the way
//! it is generic over `medea_trace::TraceSink`:
//!
//! * [`NullInjector`] carries the associated constant
//!   [`FaultInjector::ACTIVE`]` = false`; every decision site in the
//!   engine is guarded by `if I::ACTIVE`, so monomorphization deletes
//!   fault injection from the default build entirely. A run with the
//!   null injector is bit-for-bit identical to a run of the pre-fault
//!   engine — pinned by the golden suite.
//! * [`ScheduledInjector`] makes per-event decisions by *stateless
//!   hashing*: each (fault domain, component, cycle) triple seeds a fresh
//!   `SplitMix64` stream via `SplitMix64::for_component`, so a decision
//!   never depends on how many other decisions were made before it. The
//!   same [`FaultConfig`] therefore produces the same fault schedule
//!   regardless of event interleaving — fault runs replay exactly.
//!
//! A run with an active injector takes the engine's sequential driver at
//! any `host_threads`, so one injector answers every hook of the run.
//!
//! # Fault classes (one per layer)
//!
//! | fault | layer | decision hook | recovery path |
//! |-------|-------|---------------|---------------|
//! | transient flit payload corruption | NoC link | [`FaultInjector::corrupt_flit`] | checksum + eMPI NACK/retransmit |
//! | stuck-dead link | NoC switch | [`FaultInjector::take_link_kill`] | deflection re-route (counted) |
//! | dropped read response | MPMMU bank | [`FaultInjector::bank_drop`] | bridge response timeout + retry |
//! | delayed bank response | MPMMU bank | [`FaultInjector::bank_delay`] | absorbed (latency only) |
//! | PE stall window | PE | [`FaultInjector::pe_stall`] | absorbed (latency only) |
//!
//! Corruption targets only `Message`-kind flits: shared-memory traffic is
//! protected by the bridge's retry path instead, and corrupting lock or
//! write handshakes would model a *protocol* failure, not a transient
//! data upset. Likewise banks only drop read responses — a dropped grant
//! or unlock ack is unrecoverable by design (the real machine's
//! handshake wires are not on the payload path).
//!
//! Rates are expressed in parts-per-million per opportunity (a delivered
//! flit, a dispatched bank transaction, a PE tick), keeping
//! [`FaultConfig`] `Copy`, `Eq` and exactly reproducible across
//! platforms — no floating point in the schedule.

use medea_sim::{rng::SplitMix64, Cycle};

/// Upper bound on scheduled link kills per run (a `Copy` config cannot
/// hold a `Vec`; four dead links already disconnects a 4×4 torus node).
pub const MAX_DEAD_LINKS: usize = 4;

/// One part-per-million: rate denominator for all fault probabilities.
pub const PPM: u64 = 1_000_000;

/// Domain separators for the stateless per-event hash streams. Distinct
/// constants guarantee e.g. a flit-corruption roll at `(node 3, cycle 9)`
/// is independent of a PE-stall roll at the same coordinates.
const DOMAIN_FLIT: u64 = 0x666C_6974; // "flit"
const DOMAIN_DROP: u64 = 0x6472_6F70; // "drop"
const DOMAIN_DELAY: u64 = 0x6465_6C61; // "dela"
const DOMAIN_STALL: u64 = 0x7374_616C; // "stal"

/// A scheduled stuck-dead link fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadLink {
    /// Linear node index of the switch owning the link.
    pub node: u16,
    /// Port index (`medea_noc::coord::Dir` order: N=0 E=1 S=2 W=3).
    pub dir: u8,
    /// Cycle at which the link dies.
    pub at: Cycle,
}

/// Seeded fault schedule: rates per layer plus scheduled link kills.
///
/// `Copy` so it can ride inside the system configuration; the default is
/// the all-zero schedule (no faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Root seed for every decision stream.
    pub seed: u64,
    /// Per delivered `Message`-flit probability (ppm) of a single-bit
    /// payload corruption.
    pub flit_corrupt_ppm: u32,
    /// Per dispatched read transaction probability (ppm) that the bank
    /// drops its response.
    pub bank_drop_ppm: u32,
    /// Per dispatched transaction probability (ppm) of an extended bank
    /// busy time.
    pub bank_delay_ppm: u32,
    /// Extra busy cycles added when a bank delay fires.
    pub bank_delay_cycles: u32,
    /// Per PE-tick probability (ppm) of a stall window opening.
    pub pe_stall_ppm: u32,
    /// Stall window length when a PE stall fires.
    pub pe_stall_cycles: u32,
    /// Scheduled stuck-dead links (`None` slots are ignored).
    pub dead_links: [Option<DeadLink>; MAX_DEAD_LINKS],
}

impl FaultConfig {
    /// Whether this schedule can ever produce a fault.
    pub fn is_inert(&self) -> bool {
        self.flit_corrupt_ppm == 0
            && self.bank_drop_ppm == 0
            && self.bank_delay_ppm == 0
            && self.pe_stall_ppm == 0
            && self.dead_links.iter().all(Option::is_none)
    }

    /// Schedule `link` to die, filling the first free slot.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_DEAD_LINKS`] slots are taken.
    pub fn kill_link(mut self, link: DeadLink) -> Self {
        let slot = self
            .dead_links
            .iter_mut()
            .find(|s| s.is_none())
            .unwrap_or_else(|| panic!("more than {MAX_DEAD_LINKS} dead links scheduled"));
        *slot = Some(link);
        self
    }
}

/// Counters of faults actually injected during a run. Carried on
/// `RunResult` so experiments can report injected-fault totals next to
/// the recovery counters (retransmissions, reroutes, retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Message flits whose payload was corrupted.
    pub flits_corrupted: u64,
    /// Links killed (each counts once, at its scheduled cycle).
    pub links_killed: u64,
    /// Bank read responses dropped.
    pub bank_drops: u64,
    /// Bank transactions delayed.
    pub bank_delays: u64,
    /// Total extra bank busy cycles injected.
    pub bank_delay_cycles: u64,
    /// PE stall windows opened.
    pub pe_stalls: u64,
    /// Total PE cycles stalled.
    pub pe_stall_cycles: u64,
}

impl FaultStats {
    /// Total faults injected, across every class.
    pub fn total(&self) -> u64 {
        self.flits_corrupted
            + self.links_killed
            + self.bank_drops
            + self.bank_delays
            + self.pe_stalls
    }
}

/// Fault-decision source the cycle engine is generic over.
///
/// Mirrors `medea_trace::TraceSink`: when [`ACTIVE`](Self::ACTIVE) is
/// `false` every call site is guarded out at compile time, so the
/// default engine carries zero overhead — not even a branch.
pub trait FaultInjector {
    /// Whether this injector can ever inject. `false` lets the engine
    /// monomorphize all fault hooks away.
    const ACTIVE: bool;

    /// Should the `Message` flit about to be delivered at `node` on cycle
    /// `now` be corrupted? Returns the payload bit to flip.
    fn corrupt_flit(&mut self, now: Cycle, node: u16) -> Option<u8>;

    /// Next scheduled link kill due at or before `now`, if any. The
    /// engine drains this every cycle until it returns `None`.
    fn take_link_kill(&mut self, now: Cycle) -> Option<DeadLink>;

    /// Should the read transaction `bank` dispatched at `now` lose its
    /// response?
    fn bank_drop(&mut self, now: Cycle, bank: u16) -> bool;

    /// Extra busy cycles for the transaction `bank` dispatched at `now`
    /// (0 = no fault).
    fn bank_delay(&mut self, now: Cycle, bank: u16) -> u32;

    /// Stall window opening for PE `node` at `now`, in cycles (0 = no
    /// fault). Only consulted when the PE is not already stalled.
    fn pe_stall(&mut self, now: Cycle, node: u16) -> u32;

    /// Faults injected so far.
    fn stats(&self) -> FaultStats;
}

/// The inert injector: never injects, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullInjector;

impl FaultInjector for NullInjector {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn corrupt_flit(&mut self, _now: Cycle, _node: u16) -> Option<u8> {
        None
    }

    #[inline(always)]
    fn take_link_kill(&mut self, _now: Cycle) -> Option<DeadLink> {
        None
    }

    #[inline(always)]
    fn bank_drop(&mut self, _now: Cycle, _bank: u16) -> bool {
        false
    }

    #[inline(always)]
    fn bank_delay(&mut self, _now: Cycle, _bank: u16) -> u32 {
        0
    }

    #[inline(always)]
    fn pe_stall(&mut self, _now: Cycle, _node: u16) -> u32 {
        0
    }

    #[inline(always)]
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Seeded injector executing a [`FaultConfig`] schedule.
///
/// Every decision hashes `(domain, component, cycle)` into a fresh
/// `SplitMix64` stream — no decision consumes state another decision
/// observes, so the schedule is independent of call order and replays
/// exactly under any engine refactoring that preserves *when* faults are
/// asked about. Only the fired-link bookkeeping and the stats counters
/// are stateful.
#[derive(Debug, Clone)]
pub struct ScheduledInjector {
    cfg: FaultConfig,
    /// Bitmask over `cfg.dead_links` slots that already fired.
    fired_links: u8,
    stats: FaultStats,
}

impl ScheduledInjector {
    /// Injector executing `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        ScheduledInjector { cfg, fired_links: 0, stats: FaultStats::default() }
    }

    /// The schedule this injector executes.
    pub const fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Stateless per-event roll: uniform in `0..PPM`.
    fn roll(&self, domain: u64, component: u64, now: Cycle) -> u64 {
        let mut rng =
            SplitMix64::for_component(self.cfg.seed ^ domain, component ^ now.rotate_left(17));
        rng.next_below(PPM)
    }
}

impl FaultInjector for ScheduledInjector {
    const ACTIVE: bool = true;

    fn corrupt_flit(&mut self, now: Cycle, node: u16) -> Option<u8> {
        if self.cfg.flit_corrupt_ppm == 0
            || self.roll(DOMAIN_FLIT, node as u64, now) >= self.cfg.flit_corrupt_ppm as u64
        {
            return None;
        }
        self.stats.flits_corrupted += 1;
        // Derive the bit from a second stateless stream so it replays too.
        let mut rng =
            SplitMix64::for_component(self.cfg.seed ^ !DOMAIN_FLIT, node as u64 ^ now << 1);
        Some(rng.next_below(32) as u8)
    }

    fn take_link_kill(&mut self, now: Cycle) -> Option<DeadLink> {
        for (i, slot) in self.cfg.dead_links.iter().enumerate() {
            let Some(link) = slot else { continue };
            if self.fired_links & (1 << i) == 0 && now >= link.at {
                self.fired_links |= 1 << i;
                self.stats.links_killed += 1;
                return Some(*link);
            }
        }
        None
    }

    fn bank_drop(&mut self, now: Cycle, bank: u16) -> bool {
        if self.cfg.bank_drop_ppm == 0
            || self.roll(DOMAIN_DROP, bank as u64, now) >= self.cfg.bank_drop_ppm as u64
        {
            return false;
        }
        self.stats.bank_drops += 1;
        true
    }

    fn bank_delay(&mut self, now: Cycle, bank: u16) -> u32 {
        if self.cfg.bank_delay_ppm == 0
            || self.roll(DOMAIN_DELAY, bank as u64, now) >= self.cfg.bank_delay_ppm as u64
        {
            return 0;
        }
        self.stats.bank_delays += 1;
        self.stats.bank_delay_cycles += self.cfg.bank_delay_cycles as u64;
        self.cfg.bank_delay_cycles
    }

    fn pe_stall(&mut self, now: Cycle, node: u16) -> u32 {
        if self.cfg.pe_stall_ppm == 0
            || self.roll(DOMAIN_STALL, node as u64, now) >= self.cfg.pe_stall_ppm as u64
        {
            return 0;
        }
        self.stats.pe_stalls += 1;
        self.stats.pe_stall_cycles += self.cfg.pe_stall_cycles as u64;
        self.cfg.pe_stall_cycles
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            flit_corrupt_ppm: 100_000, // 10%
            bank_drop_ppm: 50_000,
            bank_delay_ppm: 50_000,
            bank_delay_cycles: 7,
            pe_stall_ppm: 20_000,
            pe_stall_cycles: 11,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_schedule_is_inert() {
        assert!(FaultConfig::default().is_inert());
        assert!(!cfg(1).is_inert());
        let with_link = FaultConfig::default().kill_link(DeadLink { node: 3, dir: 1, at: 100 });
        assert!(!with_link.is_inert());
    }

    #[test]
    fn rate_zero_never_injects() {
        let mut inj = ScheduledInjector::new(FaultConfig { seed: 42, ..FaultConfig::default() });
        for now in 0..10_000 {
            assert_eq!(inj.corrupt_flit(now, (now % 16) as u16), None);
            assert!(!inj.bank_drop(now, 0));
            assert_eq!(inj.bank_delay(now, 0), 0);
            assert_eq!(inj.pe_stall(now, 5), 0);
            assert_eq!(inj.take_link_kill(now), None);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_are_stateless_and_order_independent() {
        // Query the same (component, cycle) points in two different
        // orders, interleaved with unrelated queries: identical answers.
        let mut a = ScheduledInjector::new(cfg(7));
        let mut b = ScheduledInjector::new(cfg(7));
        let mut answers_a = Vec::new();
        for now in 0..500 {
            answers_a.push((now, a.corrupt_flit(now, 3)));
        }
        let mut answers_b = Vec::new();
        for now in (0..500).rev() {
            // Unrelated rolls must not perturb the flit stream.
            b.bank_drop(now, 2);
            b.pe_stall(now, 9);
            answers_b.push((now, b.corrupt_flit(now, 3)));
        }
        answers_b.reverse();
        assert_eq!(answers_a, answers_b);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut inj = ScheduledInjector::new(cfg(123));
        let mut hits = 0u64;
        let trials = 100_000u64;
        for now in 0..trials {
            if inj.corrupt_flit(now, 0).is_some() {
                hits += 1;
            }
        }
        // 10% +- 1 absolute percentage point over 100k trials.
        let rate = hits as f64 / trials as f64;
        assert!((0.09..0.11).contains(&rate), "observed corruption rate {rate}");
        assert_eq!(inj.stats().flits_corrupted, hits);
    }

    #[test]
    fn corrupted_bit_is_a_payload_bit_and_replays() {
        let mut x = ScheduledInjector::new(cfg(9));
        let mut y = ScheduledInjector::new(cfg(9));
        let mut seen = 0u32;
        for now in 0..50_000 {
            let bx = x.corrupt_flit(now, 1);
            assert_eq!(bx, y.corrupt_flit(now, 1));
            if let Some(bit) = bx {
                assert!(bit < 32);
                seen |= 1 << bit;
            }
        }
        assert!(seen.count_ones() > 16, "bit choice should spread across the word");
    }

    #[test]
    fn link_kills_fire_once_at_their_cycle() {
        let schedule = FaultConfig { seed: 5, ..FaultConfig::default() }
            .kill_link(DeadLink { node: 1, dir: 0, at: 10 })
            .kill_link(DeadLink { node: 2, dir: 3, at: 10 })
            .kill_link(DeadLink { node: 3, dir: 1, at: 25 });
        let mut inj = ScheduledInjector::new(schedule);
        assert_eq!(inj.take_link_kill(9), None);
        // Both cycle-10 kills drain, in slot order, then stop.
        assert_eq!(inj.take_link_kill(10), Some(DeadLink { node: 1, dir: 0, at: 10 }));
        assert_eq!(inj.take_link_kill(10), Some(DeadLink { node: 2, dir: 3, at: 10 }));
        assert_eq!(inj.take_link_kill(10), None);
        // A late poll still fires the overdue kill exactly once.
        assert_eq!(inj.take_link_kill(40), Some(DeadLink { node: 3, dir: 1, at: 25 }));
        assert_eq!(inj.take_link_kill(41), None);
        assert_eq!(inj.stats().links_killed, 3);
    }

    #[test]
    fn distinct_domains_are_independent() {
        // With equal rates, drop and delay decisions at the same (bank,
        // cycle) must not be mirror images of each other.
        let mut inj = ScheduledInjector::new(FaultConfig {
            seed: 77,
            bank_drop_ppm: 500_000,
            bank_delay_ppm: 500_000,
            bank_delay_cycles: 1,
            ..FaultConfig::default()
        });
        let mut agree = 0u32;
        let trials = 2_000;
        for now in 0..trials {
            let d = inj.bank_drop(now, 0);
            let l = inj.bank_delay(now, 0) > 0;
            if d == l {
                agree += 1;
            }
        }
        let frac = agree as f64 / trials as f64;
        assert!((0.4..0.6).contains(&frac), "domains correlate: agreement {frac}");
    }
}
