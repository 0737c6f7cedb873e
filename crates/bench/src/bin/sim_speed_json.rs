//! Before/after harness for the cycle-engine hot-path work: measures
//! simulated-cycles-per-second (experiment E8, `RunResult::sim_rate`) for
//! a fixed workload set on both engines —
//!
//! * **before**: [`System::run_reference`], the naive tick-everything
//!   loop behind a `Box<dyn Fabric>` (the seed engine);
//! * **after**: [`System::run`], the zero-allocation, event-driven engine:
//!   delivery visits only nodes with queued flits, and only PEs woken by a
//!   timed, delivery or probe wake tick — a PE waiting only for a flit is
//!   parked until one arrives;
//!
//! — and writes the results to `BENCH_sim_speed.json` (or the one path
//! given as an argument; any flag or a second argument exits 2 with the
//! usage line) as the `workloads` section of a `medea-bench/1`
//! report (`medea_bench::report`). Both engines produce bit-identical results:
//! every point asserts that `RunResult::divergence` finds no difference
//! between them (as do `tests/golden_determinism.rs` and the
//! `engine_equivalence` unit test); only wall-clock differs.

use medea_apps::hotspot::{self, HotspotConfig};
use medea_apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_apps::workloads::pingpong_kernels;
use medea_bench::report::{Cell, Report, Table};
use medea_bench::{base_builder, cells};
use medea_core::explore::Workload as _;
use medea_core::system::{AnyKernel, RunResult, System, Task};
use medea_core::{AsyncEmpi, SystemConfig, Topology};
use medea_sim::ids::Rank;
use std::sync::Arc;

const USAGE: &str = "usage: sim_speed_json [OUT_PATH]";

/// Runs per engine; the best (highest) rate is reported to damp noise.
const REPS: usize = 3;

/// Store+load round trips per rank of the hotspot point, sized so one
/// reference-engine run stays under about two seconds.
const HOTSPOT_OPS: usize = 8;

/// The last of `REPS` runs and the best rate among them.
fn best_rate(mut run: impl FnMut() -> RunResult) -> (RunResult, f64) {
    let mut last = run();
    let mut best = last.sim_rate();
    for _ in 1..REPS {
        last = run();
        best = best.max(last.sim_rate());
    }
    (last, best)
}

/// Run one workload `REPS` times on each engine, assert the engines
/// agree, add its row to `table` and return its speedup.
fn measure<K: Into<AnyKernel>>(
    table: &mut Table,
    name: &str,
    cfg: &SystemConfig,
    preload: &[(u32, u32)],
    kernels: impl Fn() -> Vec<K>,
) -> f64 {
    let (before, before_cps) =
        best_rate(|| System::run_reference(cfg, preload, kernels()).expect("reference run"));
    let (after, after_cps) =
        best_rate(|| System::run(cfg, preload, kernels()).expect("optimized run"));
    assert_eq!(after.divergence(&before), None, "{name}: the engines must agree");
    let speedup = after_cps / before_cps;
    table.push(cells![
        name,
        after.cycles,
        REPS,
        Cell::fixed(before_cps, 0),
        Cell::fixed(after_cps, 0),
        Cell::fixed(speedup, 2),
    ]);
    speedup
}

fn reduce_kernels(ranks: usize, iters: u32) -> Vec<Task> {
    (0..ranks)
        .map(|r| {
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                for _ in 0..iters {
                    comm.compute(200 + 37 * r as u64).await;
                    comm.barrier().await;
                    let _ = comm.allreduce(r as f64 + 0.5).await;
                }
            })
        })
        .collect()
}

/// Imbalanced fork-join: the master runs a long sequential phase while
/// the workers sit blocked in `recv`, then fans a token out and the
/// workers do a short parallel phase. The whole-system fast-forward can
/// never fire during the sequential phase (the workers are recv-blocked,
/// not timed), so the naive engine ticks the stalled master — and scans
/// the idle fabric — every one of those cycles. Per-PE wake scheduling
/// is built for exactly this shape.
fn imbalanced_kernels(ranks: usize, iters: u32) -> Vec<Task> {
    (0..ranks)
        .map(|r| {
            Task::new(move |api| async move {
                for _ in 0..iters {
                    if api.rank().is_master() {
                        api.compute(150_000).await;
                        for dst in 1..api.ranks() {
                            api.send_to_rank(Rank::new(dst as u8), &[1]).await;
                        }
                    } else {
                        let _ = api.recv_from_rank(Rank::new(0)).await;
                        api.compute(2_000 + 53 * r as u64).await;
                    }
                }
            })
        })
        .collect()
}

/// The output path from the arguments after the program name: at most
/// one positional, no flags.
fn parse_args(args: &[String]) -> Result<String, String> {
    match args {
        [] => Ok("BENCH_sim_speed.json".to_owned()),
        [flag, ..] if flag.starts_with('-') => Err(format!("unknown flag {flag}")),
        [path] => Ok(path.clone()),
        [_, extra, ..] => Err(format!("unexpected argument {extra}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}; {USAGE}");
        std::process::exit(2);
    });
    let mut report = Report::new("sim_speed", "full");
    let mut table = Table::new(
        "workloads",
        "simulated cycles per wall second, best of reps_per_engine runs per engine; before = \
         System::run_reference (naive tick-everything engine), after = System::run \
         (zero-allocation, event-driven: eject-ready delivery, timed/delivery/probe wakes, PEs \
         parked on a flit)",
        &["name", "simulated_cycles", "reps_per_engine", "before_cps", "after_cps", "speedup"],
    );
    let mut speedups = Vec::new();

    // Jacobi, the paper's workload: FP-stall-heavy with bursts of NoC and
    // MPMMU traffic — the per-PE wake-scheduling showcase.
    {
        let cfg = base_builder().compute_pes(4).cache_bytes(16 * 1024).build().expect("config");
        let workload = JacobiWorkload { jcfg: JacobiConfig::new(16, JacobiVariant::HybridFullMp) };
        let prepared = workload.prepare(&cfg);
        let preload = prepared.preload.clone();
        speedups.push(measure(&mut table, "jacobi_16x16_4pe_hybrid", &cfg, &preload, || {
            workload.prepare(&cfg).kernels
        }));
    }

    // Ping-pong: latency-bound message traffic, fabric almost always
    // near-empty — exercises the activity-scheduled network tick.
    {
        let cfg = base_builder().compute_pes(2).build().expect("config");
        speedups.push(measure(&mut table, "pingpong_mp_2000_rounds", &cfg, &[], || {
            pingpong_kernels(2000)
        }));
    }

    // All-reduce with staggered compute: mixed timed stalls and barrier
    // traffic across six ranks.
    {
        let cfg = base_builder().compute_pes(6).build().expect("config");
        speedups.push(measure(&mut table, "reduce_6pe_100_iters", &cfg, &[], || {
            reduce_kernels(6, 100)
        }));
    }

    // Imbalanced fork-join: the per-PE wake-scheduling showcase (see
    // `imbalanced_kernels`).
    {
        let cfg = base_builder().compute_pes(8).build().expect("config");
        speedups.push(measure(&mut table, "imbalanced_forkjoin_8pe", &cfg, &[], || {
            imbalanced_kernels(8, 4)
        }));
    }

    // Hotspot at the 256-router scale point: 252 PEs hammer four banks
    // with uncached single words, so nearly every PE cycle is a memory
    // wait that the event-driven engine spends parked.
    {
        let cfg = base_builder()
            .topology(Topology::new(16, 16).expect("16x16 torus"))
            .compute_pes(252)
            .memory_banks(4)
            .shared_bytes(4 * 1024 * 1024)
            .build()
            .expect("config");
        let hcfg = HotspotConfig { ops_per_rank: HOTSPOT_OPS };
        speedups.push(measure(&mut table, "hotspot_16x16_252pe_4banks", &cfg, &[], || {
            hotspot::kernels(&cfg, &hcfg, Arc::default())
        }));
    }

    // The 63-PE 8x8 hybrid Jacobi point of the BENCH_scaling ladder: its
    // n = 65 grid is the smallest 63 ranks accept, so the run is cut to
    // one measured iteration and no warm-up instead (a reference-engine
    // run still takes about three seconds). Mostly memory wait on bank 0.
    {
        let cfg = base_builder()
            .topology(Topology::new(8, 8).expect("8x8 torus"))
            .compute_pes(63)
            .cache_bytes(16 * 1024)
            .build()
            .expect("config");
        let jcfg = JacobiConfig::new(65, JacobiVariant::HybridFullMp).with_warmup_iters(0);
        let workload = JacobiWorkload { jcfg };
        let preload = workload.prepare(&cfg).preload;
        speedups.push(measure(&mut table, "jacobi_8x8_63pe_hybrid", &cfg, &preload, || {
            workload.prepare(&cfg).kernels
        }));
    }

    report.add(table);
    report.write(&out_path);
    let best = speedups.into_iter().fold(0.0f64, f64::max);
    assert!(best >= 1.5, "expected at least one workload to improve >= 1.5x, best was {best:.2}x");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<String, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_output_path_defaults_and_is_the_one_positional() {
        assert_eq!(parse(&[]), Ok("BENCH_sim_speed.json".into()));
        assert_eq!(parse(&["/tmp/out.json"]), Ok("/tmp/out.json".into()));
    }

    #[test]
    fn a_flag_or_a_second_positional_is_an_error() {
        assert_eq!(parse(&["--smoke"]), Err("unknown flag --smoke".into()));
        assert_eq!(parse(&["-h", "out.json"]), Err("unknown flag -h".into()));
        assert_eq!(parse(&["a.json", "b.json"]), Err("unexpected argument b.json".into()));
        assert_eq!(parse(&["a.json", "--smoke"]), Err("unexpected argument --smoke".into()));
    }
}
