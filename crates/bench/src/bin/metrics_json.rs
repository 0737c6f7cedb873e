//! Profiler harness: run the paper-4×4 pingpong and mixed workloads with
//! the `medea-metrics` subsystem enabled and write the run profiles as
//! `BENCH_metrics.json` (a `medea-bench/1` report whose `utilization`,
//! `hottest_routers` and `hottest_banks` sections share the scaling
//! harness's columns, plus a per-PE `pe_breakdown`) and the
//! self-contained `BENCH_heatmap.html` NoC heatmap of the mixed run.
//!
//! ```text
//! cargo run --release -p medea-bench --bin metrics_json -- \
//!     [--smoke] [--interval N] [--heatmap HTML_PATH] [OUT_PATH]
//! ```
//!
//! Defaults: a 64-cycle sampling window, output to `BENCH_metrics.json`
//! and `BENCH_heatmap.html`. `--smoke` shrinks the kernels to CI scale
//! while still committing a multi-window series.
//!
//! Both artifacts are validated before they are written: the JSON
//! through `medea_trace::json` (by the report writer) and the heatmap's
//! SVG through `medea_metrics::heatmap::check_svg_well_formed` (tag
//! balance, one cell per directed link), with a multi-window animation
//! asserted — the committed artifacts are parseable by construction.

use medea_apps::workloads::{pingpong_kernels, trace_mix_kernels};
use medea_bench::report::{breakdown_cells, breakdown_columns, utilization_tables, Report, Table};
use medea_bench::{cells, UtilizationRow};
use medea_core::system::{Kernel, System};
use medea_core::{MetricsConfig, SystemConfig, Topology};
use medea_metrics::heatmap::{check_svg_well_formed, render_heatmap_html};
use medea_sim::Cycle;

struct Args {
    smoke: bool,
    interval: Cycle,
    heatmap_path: String,
    out_path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        interval: 64,
        heatmap_path: "BENCH_heatmap.html".to_owned(),
        out_path: "BENCH_metrics.json".to_owned(),
    };
    let usage = "usage: metrics_json [--smoke] [--interval N] [--heatmap HTML_PATH] [OUT_PATH]";
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--interval" => {
                args.interval =
                    it.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                        || {
                            eprintln!("--interval needs a positive cycle count; {usage}");
                            std::process::exit(2);
                        },
                    );
            }
            "--heatmap" => {
                args.heatmap_path = it.next().unwrap_or_else(|| {
                    eprintln!("--heatmap needs a path; {usage}");
                    std::process::exit(2);
                });
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}; {usage}");
                std::process::exit(2);
            }
            path => args.out_path = path.to_owned(),
        }
    }
    args
}

/// Run one metered paper-4×4 point and wrap its report as a row.
fn metered_point(name: &str, pes: usize, interval: Cycle, kernels: Vec<Kernel>) -> UtilizationRow {
    let cfg = SystemConfig::builder()
        .topology(Topology::new(4, 4).expect("valid square torus"))
        .compute_pes(pes)
        .cycle_limit(400_000_000)
        .metrics(MetricsConfig::every(interval))
        .build()
        .expect("metrics point configuration");
    let result = System::run(&cfg, &[], kernels).expect("metered run");
    let report = result.metrics.expect("metered run attaches a metrics report");
    UtilizationRow {
        topology: "4x4".to_owned(),
        label: format!("{name} {}", cfg.label()),
        pes,
        report,
    }
}

fn main() {
    let args = parse_args();
    let mut report = Report::new("metrics", if args.smoke { "smoke" } else { "full" });
    let (rounds, lock_rounds) = if args.smoke { (10, 2) } else { (40, 4) };
    let rows = vec![
        metered_point("pingpong", 2, args.interval, pingpong_kernels(rounds)),
        metered_point("mixed", 5, args.interval, trace_mix_kernels(5, lock_rounds)),
    ];

    let note = "paper-4x4 pingpong + mixed (locks, collectives, messages, shared memory); \
                breakdown fractions sum to 1.0 per row; link busy is a [0,1] per-window \
                utilization";
    for table in utilization_tables(note, &rows) {
        report.add(table);
    }
    let mut per_pe = Table::new(
        "pe_breakdown",
        "cycle attribution of every PE of each utilization row",
        &[&["label", "rank"][..], &breakdown_columns()].concat(),
    );
    for row in &rows {
        for (rank, b) in row.report.breakdown.iter().enumerate() {
            per_pe.push([cells![row.label.as_str(), rank], breakdown_cells(b)].concat());
        }
    }
    report.add(per_pe);
    report.write(&args.out_path);

    // The heatmap artifact comes from the mixed run — the only workload
    // that exercises every sampled subsystem on one timeline.
    let mixed = rows.last().expect("mixed row present");
    let html = render_heatmap_html(&mixed.report, &mixed.label);
    let cells = check_svg_well_formed(&html).expect("heatmap SVG must be well-formed");
    assert_eq!(cells, mixed.report.nodes() * 4, "one heatmap cell per directed link");
    assert!(
        mixed.report.windows.len() >= 2,
        "the committed heatmap must animate over at least two sample windows"
    );
    std::fs::write(&args.heatmap_path, &html).expect("write heatmap html");
    println!("wrote {}", args.heatmap_path);
}
