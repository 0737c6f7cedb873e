//! Regenerate every table and figure of the MEDEA paper.
//!
//! ```text
//! figures <experiment> [--quick] [--size N] [--threads T]
//!
//! experiments:
//!   fig6            execution time vs cores/cache/policy, 60x60 (E1)
//!   fig7            optimal speedup vs chip area, 60x60 (E2)
//!   fig8            execution time vs cores/cache, WB, 30x30 (E3)
//!   fig9            optimal speedup vs chip area, 30x30 (E4)
//!   small           the 16x16 communication-dominated case (E7)
//!   hybrid-vs-sm    hybrid full-MP vs pure shared memory (E5)
//!   sync-only       sync-only MP vs full MP vs pure SM (E6)
//!   dse             full 168-point sweep + simulation-speed report (E8)
//!   pingpong        MP vs SM synchronization latency microbenchmark
//!   ablation-arbiter  arbiter Mux / SingleFifo / DualPriority (A1)
//!   ablation-noc      deflection torus vs ideal fabric (A2)
//!   traffic           NoC latency/throughput curves (A3)
//!   all             everything above
//! ```

use medea_apps::jacobi::{JacobiConfig, JacobiVariant};
use medea_apps::pingpong::{self, PingPongTransport};
use medea_bench::report::{design_point_table, Cell, Table};
use medea_bench::{
    base_builder, cells, exec_time_series, fig6_points, fig8_points, grid_side, jacobi_sweep,
    model_comparison, speedup_vs_area, sweep_threads, Effort,
};
use medea_core::{ArbiterConfig, FabricKind, PriorityAssignment, SystemConfig};
use medea_noc::coord::Topology;
use medea_noc::network::Network;
use medea_noc::traffic::{run_open_loop, Pattern, TrafficConfig};
use std::time::Instant;

const USAGE: &str = "usage: figures <experiment> [--quick] [--size N] [--threads T]";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    experiment: String,
    effort: Effort,
    size: Option<usize>,
    threads: usize,
}

/// Parse the arguments after the program name; `threads` is the sweep
/// width when `--threads` is absent. A flag whose value is missing or not
/// a number is an error, never a silent default.
fn parse_args(args: &[String], threads: usize) -> Result<Args, String> {
    let number = |flag: &str, value: Option<&String>| {
        value.and_then(|v| v.parse::<usize>().ok()).ok_or_else(|| format!("{flag} needs a number"))
    };
    let mut parsed = Args { experiment: String::new(), effort: Effort::Full, size: None, threads };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => parsed.effort = Effort::Quick,
            "--size" => parsed.size = Some(number(arg, iter.next())?),
            "--threads" => parsed.threads = number(arg, iter.next())?.max(1),
            other if parsed.experiment.is_empty() => parsed.experiment = other.to_string(),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if parsed.experiment.is_empty() {
        return Err("missing experiment".into());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { experiment, effort, size: size_override, threads } =
        parse_args(&args, sweep_threads()).unwrap_or_else(|e| {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2);
        });

    match experiment.as_str() {
        "fig6" => fig_exec_time(6, size_override.unwrap_or(60), effort, threads),
        "fig8" => fig_exec_time(8, size_override.unwrap_or(30), effort, threads),
        "fig7" => fig_speedup_area(7, size_override.unwrap_or(60), effort, threads),
        "fig9" => fig_speedup_area(9, size_override.unwrap_or(30), effort, threads),
        "small" => fig_exec_time(6, size_override.unwrap_or(16), effort, threads),
        "hybrid-vs-sm" => comparison(size_override, effort, false),
        "sync-only" => comparison(size_override, effort, true),
        "dse" => dse(effort, threads),
        "pingpong" => pingpong_report(),
        "ablation-arbiter" => ablation_arbiter(effort),
        "ablation-noc" => ablation_noc(effort),
        "ablation-mpmmu" => ablation_mpmmu(effort),
        "traffic" => traffic_report(),
        "all" => {
            fig_exec_time(6, 60, effort, threads);
            fig_speedup_area(7, 60, effort, threads);
            fig_exec_time(8, 30, effort, threads);
            fig_speedup_area(9, 30, effort, threads);
            fig_exec_time(6, 16, effort, threads);
            // One combined run covers both E5 (hybrid vs pure SM) and E6
            // (sync-only share) — the E6 table subsumes E5's columns.
            comparison(None, effort, true);
            pingpong_report();
            ablation_arbiter(effort);
            ablation_noc(effort);
            ablation_mpmmu(effort);
            traffic_report();
            dse(effort, threads);
        }
        other => {
            eprintln!("unknown experiment {other}; {USAGE}");
            std::process::exit(2);
        }
    }
}

/// Figs. 6/8 (and the 16x16 case): execution time per iteration.
fn fig_exec_time(figure: usize, paper_n: usize, effort: Effort, threads: usize) {
    let n = grid_side(paper_n, effort);
    let points = if figure == 8 { fig8_points(effort) } else { fig6_points(effort) };
    let t = Instant::now();
    let outcomes = jacobi_sweep(n, JacobiVariant::HybridFullMp, &points, threads);
    let series = exec_time_series(&outcomes);
    let cores: Vec<usize> = {
        let mut c: Vec<usize> =
            outcomes.iter().filter(|o| o.measured().is_some()).map(|o| o.point.pes).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    let mut headers = vec!["cores"];
    headers.extend(series.iter().map(|s| s.label.as_str()));
    let mut table = Table::new(
        &format!("Fig. {figure}"),
        &format!("Jacobi {n}x{n}, execution time per iteration (cycles)"),
        &headers,
    );
    for &pes in &cores {
        let mut row = cells![pes];
        row.extend(series.iter().map(|s| {
            Cell::from(s.points.iter().find(|(p, _)| *p == pes).map(|(_, cycles)| *cycles))
        }));
        table.push(row);
    }
    println!("{table}");
    println!("({} points in {:.1}s)\n", outcomes.len(), t.elapsed().as_secs_f64());
}

/// Figs. 7/9: optimal speedup vs chip area with kill-rule labels.
fn fig_speedup_area(figure: usize, paper_n: usize, effort: Effort, threads: usize) {
    let n = grid_side(paper_n, effort);
    let points = fig6_points(effort);
    let outcomes = jacobi_sweep(n, JacobiVariant::HybridFullMp, &points, threads);
    let sva = speedup_vs_area(&outcomes);
    let name = format!("Fig. {figure}");
    let note = format!("Jacobi {n}x{n}, optimal speedup vs chip area");
    println!("{}", design_point_table(&name, &format!("{note}, Pareto frontier"), &sva.frontier));
    println!(
        "{}",
        design_point_table(
            &name,
            &format!("{note}, after the kill rule (the paper's curve)"),
            &sva.optimal
        )
    );
}

/// E5/E6: the three programming models side by side.
fn comparison(size_override: Option<usize>, effort: Effort, include_sync_only: bool) {
    let n = size_override.unwrap_or(grid_side(60, effort));
    let cache = 16 * 1024;
    let pes: Vec<usize> = match effort {
        Effort::Full => vec![2, 4, 6, 8, 10],
        Effort::Quick => vec![2, 4, 8],
    };
    let (name, headers): (&str, &[&str]) = if include_sync_only {
        (
            "E6: sync-only MP vs full MP vs pure SM",
            &[
                "cores",
                "full-MP",
                "sync-only",
                "pure-SM",
                "full gain",
                "sync-only gain",
                "sync share %",
            ],
        )
    } else {
        ("E5: hybrid vs pure shared memory", &["cores", "hybrid", "pure-SM", "gain"])
    };
    let mut table = Table::new(name, &format!("Jacobi {n}x{n}, 16 kB WB"), headers);
    for r in model_comparison(n, cache, &pes) {
        let gain = Cell::fixed(r.hybrid_gain(), 2);
        table.push(if include_sync_only {
            let share = r.sync_only_gain() / r.hybrid_gain() * 100.0;
            let sync_gain = Cell::fixed(r.sync_only_gain(), 2);
            cells![
                r.pes,
                r.hybrid_full,
                r.sync_only,
                r.pure_sm,
                gain,
                sync_gain,
                Cell::fixed(share, 0)
            ]
        } else {
            cells![r.pes, r.hybrid_full, r.pure_sm, gain]
        });
    }
    println!("{table}");
}

/// E8: the full sweep with wall-clock and simulation-rate reporting.
fn dse(effort: Effort, threads: usize) {
    let n = grid_side(60, effort);
    let points = fig6_points(effort);
    println!(
        "== E8: design-space exploration, {} points, Jacobi {n}x{n}, {threads} threads ==",
        points.len()
    );
    let t = Instant::now();
    let outcomes = jacobi_sweep(n, JacobiVariant::HybridFullMp, &points, threads);
    let wall = t.elapsed();
    let mut sim_cycles = 0u64;
    let mut ok = 0usize;
    for o in &outcomes {
        if let Ok(r) = &o.result {
            sim_cycles += r.cycles;
            ok += 1;
        }
    }
    println!("points completed: {ok}/{}", outcomes.len());
    println!("total simulated cycles: {sim_cycles}");
    println!("wall-clock: {:.1}s", wall.as_secs_f64());
    println!(
        "aggregate simulation rate: {:.2} Mcycles/s",
        sim_cycles as f64 / wall.as_secs_f64() / 1e6
    );
    println!("(paper: 168 configurations in ~1 day on five 2004-era Xeon servers)\n");
}

/// MP vs SM synchronization latency.
fn pingpong_report() {
    let sys = base_builder().compute_pes(2).build().expect("config");
    let mp = pingpong::run(&sys, PingPongTransport::MessagePassing, 200).expect("mp run");
    let sm = pingpong::run(&sys, PingPongTransport::SharedMemory, 200).expect("sm run");
    let mut table = Table::new(
        "Ping-pong",
        "one-word synchronization round trip",
        &["transport", "cycles/round trip"],
    );
    table.push(cells!["message passing", Cell::fixed(mp.cycles_per_round, 1)]);
    table.push(cells!["shared memory", Cell::fixed(sm.cycles_per_round, 1)]);
    table.push(cells![
        "MP advantage (x)",
        Cell::fixed(sm.cycles_per_round / mp.cycles_per_round, 2)
    ]);
    println!("{table}");
}

/// A1: arbiter build options under the hybrid Jacobi.
fn ablation_arbiter(effort: Effort) {
    let n = grid_side(30, effort);
    let configs: Vec<(&str, ArbiterConfig)> = vec![
        ("mux", ArbiterConfig::Mux),
        ("single fifo(8)", ArbiterConfig::SingleFifo { depth: 8 }),
        (
            "dual prio (msg high)",
            ArbiterConfig::DualPriority { depth: 8, priority: PriorityAssignment::MessageHigh },
        ),
        (
            "dual prio (bridge high)",
            ArbiterConfig::DualPriority { depth: 8, priority: PriorityAssignment::BridgeHigh },
        ),
    ];
    let mut table = Table::new(
        "A1: arbiter ablation",
        &format!("Jacobi {n}x{n}, 8 PEs, 16 kB WB"),
        &["arbiter", "cycles/iter"],
    );
    for (label, arbiter) in configs {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(16 * 1024)
            .arbiter(arbiter)
            .build()
            .expect("config");
        table.push(cells![label, run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp)]);
    }
    println!("{table}");
}

/// A2: deflection torus vs contention-free ideal fabric.
fn ablation_noc(effort: Effort) {
    let n = grid_side(30, effort);
    let mut table = Table::new(
        "A2: fabric ablation",
        &format!("Jacobi {n}x{n}, 8 PEs, 4 kB WB (traffic-heavy)"),
        &["fabric", "cycles/iter"],
    );
    for (label, fabric) in
        [("deflection torus", FabricKind::Deflection), ("ideal (no contention)", FabricKind::Ideal)]
    {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(4 * 1024)
            .fabric(fabric)
            .build()
            .expect("config");
        table.push(cells![label, run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp)]);
    }
    println!("{table}");
}

/// A4: MPMMU local-cache size — the paper's "MPMMU optimization"
/// future-work item. A memory-bound configuration (small L1s) shows how
/// much the memory node's own cache shields DDR latency.
fn ablation_mpmmu(effort: Effort) {
    let n = grid_side(30, effort);
    let mut table = Table::new(
        "A4: MPMMU cache ablation",
        &format!("Jacobi {n}x{n}, 8 PEs, 2 kB L1 WB"),
        &["MPMMU cache kB", "cycles/iter"],
    );
    for kb in [2usize, 8, 16, 64] {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(2 * 1024)
            .mpmmu_cache_bytes(kb * 1024)
            .build()
            .expect("config");
        table.push(cells![kb, run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp)]);
    }
    println!("{table}");
}

/// A3: standalone NoC characterization.
fn traffic_report() {
    let topo = Topology::paper_4x4();
    let mut table = Table::new(
        "A3: NoC latency vs offered load",
        "4x4 deflection torus",
        &["pattern", "offered", "accepted", "mean lat", "max lat", "defl/flit"],
    );
    for pattern in [Pattern::UniformRandom, Pattern::Transpose] {
        for load in [0.05, 0.2, 0.4, 0.6, 0.8] {
            let mut net = Network::new(topo);
            let cfg = TrafficConfig { pattern, offered_load: load, ..TrafficConfig::default() };
            let rep = run_open_loop(&mut net, topo, &cfg);
            table.push(cells![
                pattern.to_string(),
                Cell::fixed(load, 2),
                Cell::fixed(rep.accepted_throughput, 3),
                Cell::fixed(rep.mean_latency, 1),
                rep.max_latency,
                Cell::fixed(rep.deflections_per_flit, 2),
            ]);
        }
    }
    println!("{table}");
}

fn run_jacobi_once(cfg: &SystemConfig, n: usize, variant: JacobiVariant) -> u64 {
    use medea_core::explore::Workload as _;
    let workload = medea_apps::jacobi::JacobiWorkload { jcfg: JacobiConfig::new(n, variant) };
    let prepared = workload.prepare(cfg);
    let measured = prepared.measured.clone();
    medea_core::system::System::run(cfg, &prepared.preload, prepared.kernels).expect("run");
    measured.load(std::sync::atomic::Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), 8)
    }

    #[test]
    fn parses_every_flag() {
        let args = parse(&["fig6", "--quick", "--size", "24", "--threads", "0"]).unwrap();
        let expect =
            Args { experiment: "fig6".into(), effort: Effort::Quick, size: Some(24), threads: 1 };
        assert_eq!(args, expect);
        let args = parse(&["dse"]).unwrap();
        assert_eq!((args.effort, args.size, args.threads), (Effort::Full, None, 8));
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error() {
        assert_eq!(parse(&["fig6", "--size", "x", "--quick"]), Err("--size needs a number".into()));
        assert_eq!(parse(&["fig6", "--threads", "two"]), Err("--threads needs a number".into()));
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert_eq!(
            parse(&["fig6", "--threads", "2", "--size"]),
            Err("--size needs a number".into())
        );
        assert_eq!(parse(&["fig6", "--threads"]), Err("--threads needs a number".into()));
        assert_eq!(parse(&[]), Err("missing experiment".into()));
        assert_eq!(parse(&["fig6", "fig7"]), Err("unexpected argument fig7".into()));
    }
}
