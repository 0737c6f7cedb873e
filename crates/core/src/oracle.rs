//! The reference engine: the independent oracle the production engine is
//! held to.
//!
//! [`run_reference`] is the naive loop over the frozen seed fabric
//! ([`ReferenceNetwork`]) behind dynamic dispatch, with every component
//! ticked every cycle and its own end-of-cycle decisions. It shares only
//! the components, the bank plumbing and the end-of-run diagnostics with
//! [`System::run`](crate::system::System::run), which must produce a
//! bit-identical [`RunResult`] ([`RunResult::divergence`]; the
//! `engine_equivalence` tests of [`crate::system`] and
//! `tests/banked_memory.rs`). It is also the "before" measurement of the
//! simulation-speed benchmark. No workload path uses it.

use crate::config::SystemConfig;
use crate::system::{
    banks_deliver, banks_inject, banks_quiet, build_banks, build_pes, deadlock_detail,
    finish_result, kernel_list, stall_summary, AnyKernel, QuietState, RunError, RunResult,
};
use crate::FabricKind;
use medea_cache::Addr;
use medea_fault::FaultStats;
use medea_noc::ideal::IdealNetwork;
use medea_noc::reference::ReferenceNetwork;
use medea_noc::Fabric;
use medea_pe::pe::ProcessingElement;
use medea_sim::Cycle;
use medea_trace::NullSink;
use std::time::Instant;

/// Run `kernels` (one per configured PE, by rank order) on the reference
/// engine, untraced and fault-free; `preload` words are written into DDR
/// before the first cycle, as for [`System::run`](crate::system::System::run).
///
/// # Errors
///
/// See [`RunError`].
pub fn run_reference(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<impl Into<AnyKernel>>,
) -> Result<RunResult, RunError> {
    let kernels = kernel_list(cfg, kernels)?;
    let topo = cfg.topology();
    let mut fabric: Box<dyn Fabric> = match cfg.fabric() {
        FabricKind::Deflection => Box::new(ReferenceNetwork::new(topo)),
        FabricKind::Ideal => Box::new(IdealNetwork::new(topo)),
    };
    let mut banks = build_banks(cfg, preload);
    let mut pes = build_pes::<NullSink>(cfg, kernels);

    let wall_start = Instant::now();
    let mut now: Cycle = 0;
    loop {
        // 1. Deliver ejections.
        for pe in &mut pes {
            let node = pe.node();
            while let Some(flit) = fabric.eject(node) {
                pe.deliver(flit, now, &mut NullSink);
            }
        }
        banks_deliver(&mut *fabric, &mut banks, now, &mut NullSink);

        // 2. Tick components.
        for pe in &mut pes {
            pe.tick(now, &mut NullSink);
        }
        for bank in &mut banks {
            bank.unit.tick(now);
        }

        // 3. Inject (one flit per node per cycle).
        for pe in &mut pes {
            if let Some(flit) = pe.select_inject() {
                if let Err(back) = fabric.try_inject(pe.node(), flit, now) {
                    pe.restore_inject(back);
                }
            }
        }
        banks_inject(&mut *fabric, &mut banks, now, &mut NullSink);

        // 4. Fabric.
        fabric.tick(now);

        // 5. Termination, limits, fast-forward.
        if pes.iter().all(ProcessingElement::is_done) {
            break;
        }
        if now >= cfg.cycle_limit() {
            return Err(RunError::CycleLimit {
                limit: cfg.cycle_limit(),
                detail: stall_summary(&pes, &banks, fabric.in_flight(), std::iter::empty()),
            });
        }
        let quiet = fabric.in_flight() == 0 && banks_quiet(&banks);
        if quiet {
            match QuietState::of(&pes) {
                QuietState::AllTimed { min_wake } => {
                    let t = min_wake.min(cfg.cycle_limit());
                    if t > now + 1 {
                        now = t;
                        continue;
                    }
                }
                QuietState::Deadlocked => {
                    return Err(RunError::Deadlock { at: now, detail: deadlock_detail(&pes) });
                }
                QuietState::Mixed => {}
            }
        }
        now += 1;
    }

    Ok(finish_result(now, &pes, fabric.stats(), &banks, wall_start, FaultStats::default()))
}
