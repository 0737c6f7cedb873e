//! Chrome-trace emitter: run one sweep point with tracing on and write
//! the capture as a Chrome `trace_event` JSON file (plus optional CSV),
//! ready for `chrome://tracing` / Perfetto.
//!
//! ```text
//! cargo run --release -p medea-bench --bin trace_json -- \
//!     [--workload pingpong|mixed|jacobi] [--side N] [--pes N] [--banks N] \
//!     [--capacity N] [--csv CSV_PATH] [OUT_PATH]
//! ```
//!
//! Defaults: the paper-4×4 pingpong point, a 1 Mi-event ring, output to
//! `BENCH_trace.json`. `--workload mixed` runs a shared-memory + lock +
//! collective + message kernel set that exercises **all four** event
//! classes (NoC, cache, MPMMU/lock, kernel spans) on one timeline;
//! `--workload jacobi` traces one iteration of the paper's workload.
//! `--side N` picks an N×N torus; `--pes`/`--banks` size the system
//! (defaults: workload-dependent PEs, 1 bank). A flag value that does not
//! parse or gives no valid system exits 2 with the usage line.
//!
//! The emitted JSON is syntax-validated (`medea_trace::json`) before it
//! is written, so the CI artifact is parseable by construction; the run's
//! flit-latency percentiles and a trace summary (event counts per class,
//! peak link load, lock contention) are printed alongside as
//! `medea_bench::report` tables.

use medea_apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_apps::workloads::{pingpong_kernels, trace_mix_kernels};
use medea_bench::cells;
use medea_bench::report::{run_cells, trace_tables, Table, RUN_COLUMNS};
use medea_core::explore::Workload as _;
use medea_core::system::{AnyKernel, RunResult, System};
use medea_core::{EventClass, NullInjector, RingSink, SystemConfig, Topology};
use medea_trace::{chrome, csv, json, TimedEvent, TraceAnalysis};
use std::str::FromStr;

const USAGE: &str = "usage: trace_json [--workload pingpong|mixed|jacobi] [--side N] [--pes N] \
                     [--banks N] [--capacity N] [--csv CSV_PATH] [OUT_PATH]";

/// One logical packet per round trip keeps the fabric lively without
/// flooding the ring.
const PINGPONG_ROUNDS: u32 = 40;

/// Lock-guarded counter rounds of the mixed workload.
const MIX_LOCK_ROUNDS: usize = 4;

/// A parsed command line: the workload and the system it runs on.
struct Args {
    workload: String,
    cfg: SystemConfig,
    capacity: usize,
    csv_path: Option<String>,
    out_path: String,
}

/// Parse the arguments after the program name and build the traced
/// system. A flag whose value is missing or does not parse, an unknown
/// workload and a configuration the builder rejects are errors.
fn parse_args(args: &[String]) -> Result<Args, String> {
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<'a, T: FromStr>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<T, String> {
        value(it, flag)?.parse().map_err(|_| format!("{flag} needs a number"))
    }
    let (mut workload, mut side, mut pes, mut banks) = ("pingpong".to_owned(), 4u8, None, 1usize);
    let (mut capacity, mut csv_path, mut out_path) = (1 << 20, None, "BENCH_trace.json".to_owned());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = value(&mut it, arg)?,
            "--side" => side = number(&mut it, arg)?,
            "--pes" => pes = Some(number(&mut it, arg)?),
            "--banks" => banks = number(&mut it, arg)?,
            "--capacity" => capacity = number(&mut it, arg)?,
            "--csv" => csv_path = Some(value(&mut it, arg)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => out_path = path.to_owned(),
        }
    }
    let topology = Topology::new(side, side).map_err(|e| format!("--side {side}: {e}"))?;
    let free_nodes = topology
        .nodes()
        .checked_sub(banks)
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("--banks {banks} leaves no PE node on a {topology}"))?;
    let default_pes = match workload.as_str() {
        "pingpong" => 2,
        "mixed" => 5.min(free_nodes),
        "jacobi" => 4.min(free_nodes),
        other => return Err(format!("unknown workload {other}")),
    };
    let cfg = SystemConfig::builder()
        .topology(topology)
        .compute_pes(pes.unwrap_or(default_pes))
        .memory_banks(banks)
        .cycle_limit(400_000_000)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Args { workload, cfg, capacity, csv_path, out_path })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, cfg, capacity, csv_path, out_path } =
        parse_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2);
        });

    let any = |tasks: Vec<_>| tasks.into_iter().map(AnyKernel::Task).collect();
    let (preload, kernels): (Vec<(u32, u32)>, Vec<AnyKernel>) = match workload.as_str() {
        "pingpong" => (Vec::new(), any(pingpong_kernels(PINGPONG_ROUNDS))),
        "mixed" => (Vec::new(), any(trace_mix_kernels(cfg.compute_pes(), MIX_LOCK_ROUNDS))),
        _ => {
            let workload = JacobiWorkload {
                jcfg: JacobiConfig::new(16, JacobiVariant::HybridFullMp)
                    .with_warmup_iters(0)
                    .with_measured_iters(1),
            };
            let prepared = workload.prepare(&cfg);
            (prepared.preload, prepared.kernels)
        }
    };

    let mut sink = RingSink::new(capacity);
    let result: RunResult = System::run_with(&cfg, &preload, kernels, &mut sink, &mut NullInjector)
        .expect("traced run");
    let events: Vec<TimedEvent> = sink.to_vec();
    assert!(!events.is_empty(), "a traced run must capture events");

    // Track names: ranks for PE nodes, bank indices for bank nodes.
    let plan = cfg.node_plan();
    let bank_nodes = cfg.bank_nodes();
    let doc = chrome::to_chrome_json(&events, |node| {
        let id = medea_sim::ids::NodeId::new(node);
        if let Some(bank) = bank_nodes.iter().position(|b| *b == id) {
            format!("bank {bank} @ node {node}")
        } else if let Some(rank) = plan.rank_of_node(id) {
            format!("node {node} (rank {})", rank.index())
        } else {
            format!("node {node}")
        }
    });
    json::validate(&doc).expect("emitted chrome trace must be valid JSON");
    std::fs::write(&out_path, &doc).expect("write trace json");
    if let Some(csv_path) = &csv_path {
        std::fs::write(csv_path, csv::to_csv(&events)).expect("write trace csv");
        println!("wrote {csv_path}");
    }

    // Summary: class census, trace analytics, and the run's standard
    // columns (NoC latency percentiles included).
    let census =
        |class: EventClass| events.iter().filter(|t| t.event.class().intersects(class)).count();
    let mut counts = Table::new(
        "events",
        "captured per class",
        &["events", "dropped", "noc", "cache", "mem", "kernel"],
    );
    counts.push(cells![
        events.len(),
        sink.dropped(),
        census(EventClass::NOC),
        census(EventClass::CACHE),
        census(EventClass::MEM),
        census(EventClass::KERNEL),
    ]);
    println!("{counts}");
    let analysis = TraceAnalysis::from_events(&events);
    if let Some((node, links)) = analysis.peak_link_load() {
        println!("peak link load: {links}/4 at node {node}");
    }
    if analysis.lock_acquires > 0 {
        println!(
            "locks: {} acquired, {} contended, {} contention cycles",
            analysis.lock_acquires, analysis.contended_acquires, analysis.lock_contention_cycles
        );
    }
    for table in trace_tables(&analysis, 8) {
        if !table.rows().is_empty() {
            println!("{table}");
        }
    }
    let mut run = Table::new("run", "", &[&["config"][..], &RUN_COLUMNS].concat());
    run.push([cells![cfg.label()], run_cells(&result)].concat());
    println!("{run}");
    println!("{} flits delivered; wrote {out_path}", result.fabric_delivered);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_flag() {
        let args = parse(&[
            "--workload",
            "mixed",
            "--side",
            "8",
            "--banks",
            "2",
            "--capacity",
            "64",
            "--csv",
            "t.csv",
            "out.json",
        ])
        .unwrap();
        assert_eq!(args.workload, "mixed");
        assert_eq!(args.cfg.label(), "5P_16k$_WB@8x8x2B");
        assert_eq!((args.capacity, args.csv_path.as_deref()), (64, Some("t.csv")));
        assert_eq!(args.out_path, "out.json");
        let args = parse(&["--pes", "3"]).unwrap();
        assert_eq!((args.workload.as_str(), args.cfg.compute_pes()), ("pingpong", 3));
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error() {
        assert_eq!(parse(&["--side", "x"]).err(), Some("--side needs a number".into()));
        assert_eq!(parse(&["--pes"]).err(), Some("--pes needs a value".into()));
        assert_eq!(parse(&["--workload", "fft"]).err(), Some("unknown workload fft".into()));
    }

    #[test]
    fn a_value_that_gives_no_system_is_an_error() {
        let side = parse(&["--side", "17"]).err().unwrap();
        assert!(side.starts_with("--side 17: "), "{side}");
        let pes = parse(&["--pes", "99"]).err().unwrap();
        assert!(pes.contains("99"), "{pes}");
        let banks = parse(&["--banks", "16"]).err().unwrap();
        assert!(banks.contains("no PE node"), "{banks}");
    }
}
