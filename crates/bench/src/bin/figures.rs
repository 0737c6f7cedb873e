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
use medea_bench::{
    base_builder, exec_time_series, fig6_points, fig8_points, grid_side, jacobi_sweep,
    model_comparison, speedup_vs_area, sweep_threads, Effort,
};

use medea_core::report::{format_labeled_series, format_table};
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
    println!("== Fig. {figure}: Jacobi {n}x{n}, execution time per iteration (cycles) ==");
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
    let mut headers: Vec<String> = vec!["cores".into()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = cores
        .iter()
        .map(|&pes| {
            let mut row = vec![pes.to_string()];
            for s in &series {
                let cell = s
                    .points
                    .iter()
                    .find(|(p, _)| *p == pes)
                    .map(|(_, cyc)| cyc.to_string())
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            row
        })
        .collect();
    println!("{}", format_table(&header_refs, &rows));
    println!("({} points in {:.1}s)\n", outcomes.len(), t.elapsed().as_secs_f64());
}

/// Figs. 7/9: optimal speedup vs chip area with kill-rule labels.
fn fig_speedup_area(figure: usize, paper_n: usize, effort: Effort, threads: usize) {
    let n = grid_side(paper_n, effort);
    println!("== Fig. {figure}: Jacobi {n}x{n}, optimal speedup vs chip area ==");
    let points = fig6_points(effort);
    let outcomes = jacobi_sweep(n, JacobiVariant::HybridFullMp, &points, threads);
    let sva = speedup_vs_area(&outcomes);
    let fmt = |points: &[medea_core::area::DesignPoint]| {
        points.iter().map(|p| (p.label.clone(), p.area_mm2, p.speedup)).collect::<Vec<_>>()
    };
    println!(
        "{}",
        format_labeled_series("Pareto frontier (area mm^2, speedup)", &fmt(&sva.frontier))
    );
    println!(
        "{}",
        format_labeled_series("After kill rule (the paper's 'optimal' curve)", &fmt(&sva.optimal))
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
    println!(
        "== {}: Jacobi {n}x{n}, 16 kB WB ==",
        if include_sync_only {
            "E6: sync-only MP vs full MP vs pure SM"
        } else {
            "E5: hybrid vs pure shared memory"
        }
    );
    let rows = model_comparison(n, cache, &pes);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.pes.to_string(),
                r.hybrid_full.to_string(),
                r.pure_sm.to_string(),
                format!("{:.2}x", r.hybrid_gain()),
            ];
            if include_sync_only {
                row.insert(2, r.sync_only.to_string());
                row.push(format!("{:.2}x", r.sync_only_gain()));
                let share = r.sync_only_gain() / r.hybrid_gain() * 100.0;
                row.push(format!("{share:.0}%"));
            }
            row
        })
        .collect();
    let headers: Vec<&str> = if include_sync_only {
        vec![
            "cores",
            "full-MP",
            "sync-only",
            "pure-SM",
            "full gain",
            "sync-only gain",
            "sync share",
        ]
    } else {
        vec!["cores", "hybrid", "pure-SM", "gain"]
    };
    println!("{}", format_table(&headers, &table));
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
    println!("== Ping-pong: one-word synchronization round trip ==");
    let sys = base_builder().compute_pes(2).build().expect("config");
    let mp = pingpong::run(&sys, PingPongTransport::MessagePassing, 200).expect("mp run");
    let sm = pingpong::run(&sys, PingPongTransport::SharedMemory, 200).expect("sm run");
    println!(
        "{}",
        format_table(
            &["transport", "cycles/round trip"],
            &[
                vec!["message passing".into(), format!("{:.1}", mp.cycles_per_round)],
                vec!["shared memory".into(), format!("{:.1}", sm.cycles_per_round)],
                vec![
                    "MP advantage".into(),
                    format!("{:.2}x", sm.cycles_per_round / mp.cycles_per_round)
                ],
            ],
        )
    );
}

/// A1: arbiter build options under the hybrid Jacobi.
fn ablation_arbiter(effort: Effort) {
    let n = grid_side(30, effort);
    println!("== A1: arbiter ablation, Jacobi {n}x{n}, 8 PEs, 16 kB WB ==");
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
    let mut rows = Vec::new();
    for (label, arbiter) in configs {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(16 * 1024)
            .arbiter(arbiter)
            .build()
            .expect("config");
        let cycles = run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp);
        rows.push(vec![label.to_string(), cycles.to_string()]);
    }
    println!("{}", format_table(&["arbiter", "cycles/iter"], &rows));
}

/// A2: deflection torus vs contention-free ideal fabric.
fn ablation_noc(effort: Effort) {
    let n = grid_side(30, effort);
    println!("== A2: fabric ablation, Jacobi {n}x{n}, 8 PEs, 4 kB WB (traffic-heavy) ==");
    let mut rows = Vec::new();
    for (label, fabric) in
        [("deflection torus", FabricKind::Deflection), ("ideal (no contention)", FabricKind::Ideal)]
    {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(4 * 1024)
            .fabric(fabric)
            .build()
            .expect("config");
        let cycles = run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp);
        rows.push(vec![label.to_string(), cycles.to_string()]);
    }
    println!("{}", format_table(&["fabric", "cycles/iter"], &rows));
}

/// A4: MPMMU local-cache size — the paper's "MPMMU optimization"
/// future-work item. A memory-bound configuration (small L1s) shows how
/// much the memory node's own cache shields DDR latency.
fn ablation_mpmmu(effort: Effort) {
    let n = grid_side(30, effort);
    println!("== A4: MPMMU cache ablation, Jacobi {n}x{n}, 8 PEs, 2 kB L1 WB ==");
    let mut rows = Vec::new();
    for kb in [2usize, 8, 16, 64] {
        let cfg = base_builder()
            .compute_pes(8.min(medea_apps::grid::max_ranks(n)))
            .cache_bytes(2 * 1024)
            .mpmmu_cache_bytes(kb * 1024)
            .build()
            .expect("config");
        let cycles = run_jacobi_once(&cfg, n, JacobiVariant::HybridFullMp);
        rows.push(vec![format!("{kb} kB"), cycles.to_string()]);
    }
    println!("{}", format_table(&["MPMMU cache", "cycles/iter"], &rows));
}

/// A3: standalone NoC characterization.
fn traffic_report() {
    println!("== A3: NoC latency vs offered load (4x4 deflection torus) ==");
    let topo = Topology::paper_4x4();
    let mut rows = Vec::new();
    for pattern in [Pattern::UniformRandom, Pattern::Transpose] {
        for load in [0.05, 0.2, 0.4, 0.6, 0.8] {
            let mut net = Network::new(topo);
            let cfg = TrafficConfig { pattern, offered_load: load, ..TrafficConfig::default() };
            let rep = run_open_loop(&mut net, topo, &cfg);
            rows.push(vec![
                pattern.to_string(),
                format!("{load:.2}"),
                format!("{:.3}", rep.accepted_throughput),
                format!("{:.1}", rep.mean_latency),
                rep.max_latency.to_string(),
                format!("{:.2}", rep.deflections_per_flit),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &["pattern", "offered", "accepted", "mean lat", "max lat", "defl/flit"],
            &rows
        )
    );
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
