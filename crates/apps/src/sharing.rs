//! Fine-grained-sharing microbenchmark: every rank read-modify-writes
//! counters interleaved through a handful of shared cache lines, so the
//! same lines migrate between all the L1s for the whole run.
//!
//! This is the workload the `coherence` section of `BENCH_scaling.json`
//! measures, and the access pattern where the two coherence modes
//! ([`SystemConfigBuilder::coherence`]) differ most:
//!
//! * under the paper's software **DII** (§II-E) every critical section
//!   must bracket its loads/stores with `invalidate_line`/`flush_line`,
//!   paying a full line fetch and a full line writeback per increment
//!   even when the line never left the local L1;
//! * under the beyond-the-paper **directory MESI** the kernel performs
//!   plain cached loads/stores and the MPMMU directory moves the line
//!   only when another rank actually holds it — the cost shifts from
//!   unconditional software writebacks to demand-driven `Inv`/`Fetch`
//!   probes (visible in [`RunResult::coherence`]).
//!
//! The counters live four-per-line (one per 32-bit word), so neighbour
//! ranks genuinely share lines rather than merely the segment. Each
//! round, rank `r` increments counter `(r + round) mod ranks` under that
//! counter's **line lock** — one lock per line, not per word, because a
//! write-back is line-granular: two ranks flushing different words of
//! one line concurrently would clobber each other's update, the classic
//! false-sharing hazard of software coherence. The rotation visits every
//! counter exactly once per round, so after `rounds` rounds every
//! counter reads exactly `rounds` — which rank 0 checks in-kernel
//! through the *coherent* path (cached loads, preceded by invalidates
//! under DII) before exporting the values to the host.
//!
//! [`SystemConfigBuilder::coherence`]: medea_core::SystemConfigBuilder::coherence
//! [`RunResult::coherence`]: medea_core::RunResult

use medea_cache::{Addr, LINE_BYTES};
use medea_core::api::PeApi;
use medea_core::system::{Kernel, RunError, RunResult, System};
use medea_core::{Empi, NullInjector, NullSink, SystemConfig, TraceSink};
use medea_sim::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct SharingConfig {
    /// Rotation rounds; every counter is incremented once per round.
    pub rounds: usize,
}

/// How kernels keep the shared counters coherent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// §II-E DII: `invalidate_line` before the read, `flush_line` after
    /// the write, inside every critical section. Correct under **both**
    /// coherence modes (the explicit operations are merely redundant
    /// when the directory is active).
    Software,
    /// Plain cached loads/stores; the MPMMU directory keeps the L1s
    /// coherent. Only correct under
    /// [`Coherence::MesiDirectory`](medea_core::Coherence).
    Hardware,
}

/// Result of a run.
#[derive(Debug)]
pub struct SharingOutcome {
    /// Engine result (aggregated [`CoherenceStats`] included).
    ///
    /// [`CoherenceStats`]: medea_core::CoherenceStats
    pub run: RunResult,
    /// Measured cycles between the start and end barrier, at rank 0.
    pub cycles: Cycle,
    /// Final counter values as rank 0 read them back (all equal to
    /// `rounds` — also asserted in-kernel).
    pub counters: Vec<u32>,
}

/// Word address of counter `c` (four counters per line).
fn counter_addr(c: usize) -> Addr {
    (c * 4) as Addr
}

/// Lock address guarding the line that holds counter `c`.
fn lock_addr(c: usize) -> Addr {
    const LOCK_BASE: Addr = 0x1000;
    LOCK_BASE + (counter_addr(c) / LINE_BYTES as Addr) * LINE_BYTES as Addr
}

/// Run the benchmark with the discipline matching `sys`'s configured
/// coherence mode: hardware MESI systems run the plain-cached kernel,
/// DII systems the flush/invalidate kernel.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run(sys: &SystemConfig, scfg: &SharingConfig) -> Result<SharingOutcome, RunError> {
    run_traced(sys, scfg, &mut NullSink)
}

/// [`run`] through the traced engine entry point, recording into `sink`
/// — tracing must never perturb the fingerprint, coherence traffic
/// included, and the equivalence tests pin that through this function.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_traced<S: TraceSink>(
    sys: &SystemConfig,
    scfg: &SharingConfig,
    sink: &mut S,
) -> Result<SharingOutcome, RunError> {
    let discipline =
        if sys.coherence().is_hardware() { Discipline::Hardware } else { Discipline::Software };
    run_disciplined_traced(sys, scfg, discipline, sink)
}

/// Run the benchmark with an explicit [`Discipline`] — chiefly to run
/// the DII-disciplined kernel *under* the MESI directory, where both
/// modes are architecturally equivalent (the equivalence tests pin
/// this).
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `Discipline::Hardware` is requested on a DII system (plain
/// cached read-modify-writes are incoherent without the directory), or
/// if the counters and locks do not fit the shared segment.
pub fn run_disciplined(
    sys: &SystemConfig,
    scfg: &SharingConfig,
    discipline: Discipline,
) -> Result<SharingOutcome, RunError> {
    run_disciplined_traced(sys, scfg, discipline, &mut NullSink)
}

/// [`run_disciplined`] through the traced engine entry point.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// As [`run_disciplined`].
pub fn run_disciplined_traced<S: TraceSink>(
    sys: &SystemConfig,
    scfg: &SharingConfig,
    discipline: Discipline,
    sink: &mut S,
) -> Result<SharingOutcome, RunError> {
    assert!(
        discipline == Discipline::Software || sys.coherence().is_hardware(),
        "the hardware discipline is incoherent without the MESI directory"
    );
    let ranks = sys.compute_pes();
    assert!(
        lock_addr(ranks) as u64 + LINE_BYTES as u64 <= sys.layout().shared_bytes() as u64,
        "{ranks} counters + line locks do not fit the shared segment"
    );
    let rounds = scfg.rounds;

    let window = Arc::new(AtomicU64::new(0));
    let readback: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let kernels: Vec<Kernel> = (0..ranks)
        .map(|r| {
            let cell = Arc::clone(&window);
            let sink = Arc::clone(&readback);
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                let ranks = comm.ranks();
                comm.barrier();
                let t0 = comm.now();
                for round in 0..rounds {
                    let c = (r + round) % ranks;
                    let addr = counter_addr(c);
                    comm.lock(lock_addr(c));
                    let v = match discipline {
                        Discipline::Software => {
                            comm.invalidate_line(addr);
                            let v = comm.load_u32(addr);
                            comm.store_u32(addr, v + 1);
                            comm.flush_line(addr);
                            v
                        }
                        Discipline::Hardware => {
                            let v = comm.load_u32(addr);
                            comm.store_u32(addr, v + 1);
                            v
                        }
                    };
                    assert!(v <= rounds as u32, "rank {r} counter {c} overshot: {v}");
                    comm.unlock(lock_addr(c));
                }
                comm.barrier();
                if r == 0 {
                    cell.store(comm.now() - t0, Ordering::SeqCst);
                    let finals: Vec<u32> = (0..ranks)
                        .map(|c| {
                            if discipline == Discipline::Software {
                                comm.invalidate_line(counter_addr(c));
                            }
                            let v = comm.load_u32(counter_addr(c));
                            assert_eq!(v, rounds as u32, "counter {c}");
                            v
                        })
                        .collect();
                    *sink.lock().unwrap() = finals;
                }
            }) as Kernel
        })
        .collect();

    let run = System::run_with(sys, &[], kernels, sink, &mut NullInjector)?;
    let counters = std::mem::take(&mut *readback.lock().unwrap());
    Ok(SharingOutcome { run, cycles: window.load(Ordering::SeqCst), counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_core::Coherence;

    fn sys(pes: usize, mesi: bool) -> SystemConfig {
        SystemConfig::builder()
            .compute_pes(pes)
            .coherence(if mesi { Coherence::MesiDirectory } else { Coherence::Dii })
            .cycle_limit(50_000_000)
            .build()
            .unwrap()
    }

    #[test]
    fn dii_correct_with_zero_protocol_traffic() {
        let out = run(&sys(4, false), &SharingConfig { rounds: 3 }).unwrap();
        assert_eq!(out.counters, vec![3; 4]);
        assert!(out.cycles > 0);
        assert_eq!(out.run.coherence.protocol_messages(), 0);
    }

    #[test]
    fn mesi_correct_with_demand_driven_probes() {
        let out = run(&sys(4, true), &SharingConfig { rounds: 3 }).unwrap();
        assert_eq!(out.counters, vec![3; 4]);
        let coh = &out.run.coherence;
        assert!(coh.gets > 0, "rotation must read-miss: {coh:?}");
        assert!(coh.getm > 0, "every increment needs ownership: {coh:?}");
        assert!(coh.invalidations_sent > 0, "sharers must be invalidated: {coh:?}");
        assert!(coh.fetches_sent > 0, "dirty lines must be fetched from owners: {coh:?}");
        assert_eq!(coh.invalidations_received, coh.invalidations_sent);
    }

    #[test]
    fn software_discipline_is_mode_independent() {
        let scfg = SharingConfig { rounds: 2 };
        let dii = run_disciplined(&sys(3, false), &scfg, Discipline::Software).unwrap();
        let mesi = run_disciplined(&sys(3, true), &scfg, Discipline::Software).unwrap();
        assert_eq!(dii.counters, mesi.counters);
        assert_eq!(dii.counters, vec![2; 3]);
    }
}
