//! Topology-scaling harness: runs the paper's Jacobi workload on 4×4,
//! 8×8 and 16×16 tori (up to 255 compute PEs) through the topology-aware
//! parallel sweep engine (`medea_core::explore::run_sweep`) and writes
//! `BENCH_scaling.json` in the `medea-bench/1` schema
//! (`medea_bench::report`). Its `ladder` section holds, per point, the
//! standard run columns (simulation throughput, flit latency percentiles,
//! deflection pressure) and the Jacobi speedup relative to the fewest-PE
//! point of the same torus.
//!
//! All points of all tiers go through **one** sweep call, so the
//! self-scheduling worker pool keeps every host core busy across the ladder
//! rather than per tier. In full mode the most-populated 16×16 point
//! (255 PEs) is additionally re-run with numerical validation against
//! the sequential reference (the `validation` section) — the largest
//! configuration is checked bit-for-bit, not just timed.
//!
//! The harness also runs the **collectives microbench**: barrier and
//! allreduce cycles per operation at the most-populated point of every
//! tier, for each `CollectiveAlgo` (linear / binomial-tree /
//! recursive-doubling). This records the O(ranks) → O(log ranks) win of
//! the tree algorithms — on the full 255-rank 16×16 point the tree
//! barrier must complete in at least 4× fewer simulated cycles than the
//! linear one (asserted).
//!
//! And the **memory-banks microbench**: the shared-memory hotspot
//! workload (`medea_apps::hotspot`) on fully populated 8×8 and 16×16
//! tori with 1, 2 and 4 address-interleaved MPMMU banks (each bank
//! occupies a node, so the populations are 255/254/252 on 16×16). This
//! records the serialization relief of distributing the MPMMU — on the
//! full 16×16 point, 4 banks must beat the single-bank 255-PE baseline
//! by ≥ 2× (asserted; ≥ 1× at CI smoke scale).
//!
//! And the **coherence microbench**: the fine-grained-sharing workload
//! (`medea_apps::sharing`) on every tier under both coherence modes —
//! the paper's software DII and the beyond-the-paper directory MESI
//! (`SystemConfigBuilder::coherence`). Rows report simulated cycles and
//! the directory's protocol counters; the mode contracts are asserted
//! (DII protocol-silent, MESI demand-driven invalidations/fetches), and
//! every run validates its shared counters in-kernel.
//!
//! And the **utilization profile**: the most-populated Jacobi point of
//! every tier re-run with the `medea-metrics` profiler enabled
//! (`SystemConfigBuilder::metrics`) at a tier-scaled sampling window.
//! Rows report the aggregate per-PE cycle attribution (compute /
//! recv-wait / mem / … fractions, summing to 1.0 by construction) and
//! the peak single-link utilization of any sample window; the
//! `hottest_routers` and `hottest_banks` sections list where the
//! pressure sits. Metered runs are kept out of the timing ladder so
//! sampling cost never pollutes the cycles/sec columns.
//!
//! And the **resilience sweep**: seeded fault injection (Message-flit
//! corruption, a mid-run dead torus link, MPMMU response drops/delays)
//! against the standard recovery configuration. Every scenario must
//! complete — Jacobi scenarios validated bit-exactly against the
//! sequential reference — with nonzero recovery counters (deflection
//! reroutes, eMPI retransmissions, bridge retries), asserted.
//!
//! ```text
//! cargo run --release -p medea-bench --bin scaling_json -- [--smoke] [OUT_PATH]
//! ```
//!
//! `--smoke` shrinks grids and PE counts to CI scale while still covering
//! all three topologies. Exception: the memory-banks sweep keeps its
//! fully populated tori even in smoke mode — the MPMMU serialization it
//! measures only exists under full population — and shrinks the per-rank
//! op count instead (the hotspot windows are tens of thousands of
//! simulated cycles, a few wall seconds total).

use medea_apps::hotspot::{self, HotspotConfig};
use medea_apps::jacobi::{self, JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_apps::sharing::{self, SharingConfig};
use medea_bench::report::{
    recovery_cells, run_cells, utilization_tables, Cell, Report, Table, RECOVERY_COLUMNS,
    RUN_COLUMNS,
};
use medea_bench::{cells, sweep_threads, UtilizationRow};
use medea_core::explore::{run_sweep, PreparedWorkload, SweepOutcome, SweepPoint, Workload};
use medea_core::system::{RunError, RunResult, System, Task};
use medea_core::{
    AsyncEmpi, CachePolicy, Coherence, CollectiveAlgo, DeadLink, FaultConfig, MetricsConfig,
    NullSink, PeActivity, ResilienceConfig, ScheduledInjector, SystemConfig, SystemConfigBuilder,
    Topology,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One torus of the scaling ladder: its grid side and the PE counts run
/// on it (fewest first; the speedup baseline).
struct Tier {
    side: u8,
    grid_n: usize,
    pe_counts: &'static [usize],
}

impl Tier {
    fn topology(&self) -> Topology {
        Topology::new(self.side, self.side).expect("valid square torus")
    }

    /// The `topology` column, e.g. `8x8`.
    fn name(&self) -> String {
        format!("{}x{}", self.side, self.side)
    }

    fn most_pes(&self) -> usize {
        *self.pe_counts.last().expect("tier has PE counts")
    }
}

/// Full ladder: fully populated tori, up to the 255-PE maximum. The grid
/// is sized so the largest PE count gets one interior row per rank.
const FULL: &[Tier] = &[
    Tier { side: 4, grid_n: 62, pe_counts: &[2, 8, 15] },
    Tier { side: 8, grid_n: 65, pe_counts: &[4, 16, 63] },
    Tier { side: 16, grid_n: 257, pe_counts: &[32, 128, 255] },
];

/// CI-scale ladder: same three topologies, small grids and populations.
const SMOKE: &[Tier] = &[
    Tier { side: 4, grid_n: 18, pe_counts: &[2, 8] },
    Tier { side: 8, grid_n: 26, pe_counts: &[4, 24] },
    Tier { side: 16, grid_n: 42, pe_counts: &[8, 40] },
];

const CACHE_BYTES: usize = 16 * 1024;

/// Jacobi with the grid side chosen per point from the point's topology,
/// so one sweep can interleave all tiers on the worker pool.
struct TieredJacobi {
    /// `(torus, grid side)` pairs, keyed by the full topology so square
    /// and rectangular tori of equal width can never be confused.
    grid_by_topology: Vec<(Topology, usize)>,
}

impl TieredJacobi {
    fn grid_n(&self, topology: Topology) -> usize {
        self.grid_by_topology
            .iter()
            .find(|(t, _)| *t == topology)
            .map(|(_, n)| *n)
            .expect("every sweep point's topology has a grid size")
    }
}

impl Workload for TieredJacobi {
    fn name(&self) -> &str {
        "jacobi-scaling"
    }

    fn prepare(&self, cfg: &SystemConfig) -> PreparedWorkload {
        JacobiWorkload { jcfg: jacobi_config(self.grid_n(cfg.topology())) }.prepare(cfg)
    }
}

fn jacobi_config(grid_n: usize) -> JacobiConfig {
    JacobiConfig::new(grid_n, JacobiVariant::HybridFullMp)
        .with_warmup_iters(1)
        .with_measured_iters(1)
}

/// Sweep-invariant configuration. The shared segment must hold the
/// published halo slots of the most populated point (~2 MB at 255 ranks
/// on a 257-grid); 4 MB covers every tier with room to spare.
fn base_builder() -> SystemConfigBuilder {
    SystemConfig::builder().cycle_limit(400_000_000).shared_bytes(4 * 1024 * 1024)
}

/// The `ladder` section: every point of every tier in one sweep. Gate:
/// every tier shows parallel speedup from its fewest- to its
/// most-populated point (the whole reason the torus scales out).
fn run_ladder(tiers: &[Tier], threads: usize) -> Table {
    let workload =
        TieredJacobi { grid_by_topology: tiers.iter().map(|t| (t.topology(), t.grid_n)).collect() };
    // One flat point list: the self-scheduling worker pool overlaps cheap
    // 4x4 points with the long 255-PE grind instead of idling between
    // tiers.
    let points: Vec<SweepPoint> = tiers
        .iter()
        .flat_map(|t| {
            t.pe_counts
                .iter()
                .map(|&pes| SweepPoint::on(t.topology(), pes, CACHE_BYTES, CachePolicy::WriteBack))
        })
        .collect();
    let outcomes = run_sweep(&workload, &points, &base_builder(), threads);

    let columns =
        ["topology", "grid_n", "label", "pes", "cycles_per_iter", "jacobi_speedup_vs_fewest_pes"];
    let mut table = Table::new(
        "ladder",
        "jacobi hybrid-full-mp, 1 warmup + 1 measured iteration, every point in one \
         explore::run_sweep; flit latency p50/p99 are log2-bucket upper estimates, max exact",
        &[&columns[..], &RUN_COLUMNS].concat(),
    );
    let mut cursor = outcomes.iter();
    for tier in tiers {
        let tier_outcomes: Vec<&SweepOutcome> =
            cursor.by_ref().take(tier.pe_counts.len()).collect();
        let baseline = tier_outcomes
            .first()
            .and_then(|o| o.measured())
            .expect("fewest-PE point must succeed")
            .max(1) as f64;
        let mut speedup = 0.0;
        for o in tier_outcomes {
            let result = o.result.as_ref().expect("scaling run failed");
            speedup = baseline / o.measured_cycles.max(1) as f64;
            let point = cells![
                tier.name(),
                tier.grid_n,
                o.label.as_str(),
                o.point.pes,
                o.measured_cycles,
                Cell::fixed(speedup, 2),
            ];
            table.push([point, run_cells(result)].concat());
        }
        assert!(
            speedup > 1.0,
            "{}: {} PEs must beat {} PEs, got {speedup:.2}x",
            tier.name(),
            tier.most_pes(),
            tier.pe_counts[0]
        );
    }
    table
}

// ---- collectives microbench ----

/// Operations measured per (topology, algorithm) point.
const COLLECTIVE_ITERS: u64 = 8;

/// Measure the steady-state cost of one collective: every rank loops
/// `COLLECTIVE_ITERS` operations between two `now()` probes at rank 0
/// (one warm-up barrier first so arrival skew does not pollute the
/// window).
fn collective_cycles(
    topology: Topology,
    pes: usize,
    algo: CollectiveAlgo,
    op: &'static str,
) -> u64 {
    let cfg = base_builder()
        .topology(topology)
        .compute_pes(pes)
        .cache_bytes(CACHE_BYTES)
        .collective_algo(algo)
        .build()
        .expect("collective bench configuration");
    let measured = Arc::new(AtomicU64::new(0));
    let kernels: Vec<Task> = (0..pes)
        .map(|r| {
            let cell = Arc::clone(&measured);
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                comm.barrier().await;
                let t0 = comm.now().await;
                for _ in 0..COLLECTIVE_ITERS {
                    match op {
                        "barrier" => comm.barrier().await,
                        "allreduce" => {
                            let _ = comm.allreduce(r as f64 + 0.5).await;
                        }
                        other => unreachable!("unknown collective op {other}"),
                    }
                }
                if r == 0 {
                    cell.store((comm.now().await - t0) / COLLECTIVE_ITERS, Ordering::SeqCst);
                }
            })
        })
        .collect();
    System::run(&cfg, &[], kernels).expect("collective bench run");
    measured.load(Ordering::SeqCst)
}

/// The `collectives` section: barrier + allreduce at the most-populated
/// point of every tier, for every algorithm. Gate, the O(ranks) →
/// O(log ranks) win: on the largest tier the binomial-tree barrier is
/// ≥ 4x cheaper than linear on the full 255-rank run, and still ≥ 1.5x
/// at smoke scale.
fn run_collectives(tiers: &[Tier], smoke: bool) -> Table {
    let largest = tiers.last().expect("ladder is not empty").side;
    let mut table = Table::new(
        "collectives",
        "cycles per operation at rank 0 over iters_per_op back-to-back operations, after one \
         warm-up barrier",
        &["topology", "pes", "op", "algo", "iters_per_op", "cycles_per_op", "speedup_vs_linear"],
    );
    for tier in tiers {
        let pes = tier.most_pes();
        for op in ["barrier", "allreduce"] {
            let linear = collective_cycles(tier.topology(), pes, CollectiveAlgo::Linear, op);
            for algo in CollectiveAlgo::ALL {
                let cycles = if algo == CollectiveAlgo::Linear {
                    linear
                } else {
                    collective_cycles(tier.topology(), pes, algo, op)
                };
                let speedup = linear as f64 / cycles.max(1) as f64;
                table.push(cells![
                    tier.name(),
                    pes,
                    op,
                    algo.to_string(),
                    COLLECTIVE_ITERS,
                    cycles,
                    Cell::fixed(speedup, 2),
                ]);
                if tier.side == largest && op == "barrier" && algo == CollectiveAlgo::BinomialTree {
                    let required = if smoke { 1.5 } else { 4.0 };
                    assert!(
                        speedup >= required,
                        "binomial barrier at {pes} PEs must be >= {required}x cheaper than \
                         linear, got {speedup:.2}x"
                    );
                }
            }
        }
    }
    table
}

// ---- memory-banks microbench ----

/// Bank counts swept per topology.
const BANK_COUNTS: [usize; 3] = [1, 2, 4];

/// The `memory_banks` section: the shared-memory hotspot on fully
/// populated 8×8/16×16 tori for each bank count. Every node not hosting a
/// bank hosts a PE, so the single-bank row is the 255-PE (63-PE) status
/// quo and the multi-bank rows trade one PE per extra bank for N-way
/// memory parallelism. Per-rank work (`ops` store+load round trips) is
/// fixed; the window is rank 0's barrier-to-barrier time, i.e.
/// whole-system completion. Gate, the distributed-memory payoff: on the
/// largest torus 4 banks beat the single-bank baseline by ≥ 2x (≥ 1x in
/// smoke mode).
fn run_memory_banks(tiers: &[Tier], ops: usize, smoke: bool) -> Table {
    let largest = tiers.last().expect("ladder is not empty").side;
    let mut table = Table::new(
        "memory_banks",
        "hotspot uncached store+load, line-strided shared walk",
        &[
            "topology",
            "label",
            "pes",
            "banks",
            "ops_per_rank",
            "hotspot_cycles",
            "speedup_vs_single_bank",
        ],
    );
    for tier in tiers.iter().filter(|t| t.side >= 8) {
        let topology = tier.topology();
        let mut single = 0u64;
        for banks in BANK_COUNTS {
            let pes = topology.nodes() - banks;
            let sys = base_builder()
                .topology(topology)
                .compute_pes(pes)
                .cache_bytes(CACHE_BYTES)
                .memory_banks(banks)
                .build()
                .expect("bank bench configuration");
            let cycles = hotspot::run(&sys, &HotspotConfig { ops_per_rank: ops })
                .expect("hotspot run")
                .cycles;
            if banks == 1 {
                single = cycles;
            }
            let speedup = single as f64 / cycles.max(1) as f64;
            table.push(cells![
                tier.name(),
                sys.label(),
                pes,
                banks,
                ops,
                cycles,
                Cell::fixed(speedup, 2)
            ]);
            if tier.side == largest && banks == 4 {
                let required = if smoke { 1.0 } else { 2.0 };
                assert!(
                    speedup >= required,
                    "{}: 4 banks must be >= {required}x faster than the single-bank baseline \
                     on the hotspot workload, got {speedup:.2}x",
                    sys.label()
                );
            }
        }
    }
    table
}

// ---- coherence microbench ----

/// The `coherence` section: the fine-grained-sharing workload
/// (`medea_apps::sharing`) under both coherence modes on every tier. DII
/// rows run the §II-E software discipline (invalidate before read, flush
/// after write), MESI rows the plain-cached kernel with the MPMMU
/// directory moving lines on demand. Every run validates its final
/// counters in-kernel, so each row is a *correct* run, and the mode
/// contracts are asserted on the counters: DII must report zero protocol
/// messages, MESI real demand-driven invalidations and owner fetches.
/// Deliberately no wall-clock gates — the comparison is simulated cycles
/// and protocol traffic, both deterministic.
fn run_coherence(tiers: &[Tier], rounds: usize) -> Table {
    let mut table = Table::new(
        "coherence",
        "fine-grained sharing: lock-guarded RMW rotation over line-interleaved counters",
        &[
            "topology",
            "label",
            "pes",
            "banks",
            "mode",
            "rounds",
            "sharing_cycles",
            "protocol_messages",
            "invalidations",
            "fetches",
            "probe_writebacks",
            "directory_lines_peak",
        ],
    );
    for tier in tiers {
        // 2×side ranks: enough contention to migrate every line each
        // round, well clear of the node budget on every tier. The paper
        // 4×4 keeps its single MPMMU; the larger tori spread the
        // directory over 4 banks like the memory-banks sweep.
        let pes = 2 * tier.side as usize;
        let banks = if tier.side == 4 { 1 } else { 4 };
        for mode in [Coherence::Dii, Coherence::MesiDirectory] {
            let sys = base_builder()
                .topology(tier.topology())
                .compute_pes(pes)
                .cache_bytes(CACHE_BYTES)
                .cache_policy(CachePolicy::WriteBack)
                .memory_banks(banks)
                .coherence(mode)
                .build()
                .expect("coherence bench configuration");
            let out = sharing::run(&sys, &SharingConfig { rounds }).expect("sharing run");
            assert_eq!(out.counters, vec![rounds as u32; pes], "sharing readback");
            let coh = out.run.coherence;
            if mode.is_hardware() {
                assert!(coh.invalidations_sent > 0, "MESI must invalidate sharers: {coh:?}");
                assert!(coh.fetches_sent > 0, "MESI must fetch from owners: {coh:?}");
            } else {
                assert_eq!(coh.protocol_messages(), 0, "DII must be protocol-silent: {coh:?}");
            }
            table.push(cells![
                tier.name(),
                sys.label(),
                pes,
                banks,
                if mode.is_hardware() { "mesi" } else { "dii" },
                rounds,
                out.cycles,
                coh.protocol_messages(),
                coh.invalidations_sent,
                coh.fetches_sent,
                coh.probe_writebacks,
                coh.directory_lines_peak,
            ]);
        }
    }
    table
}

// ---- utilization profile ----

/// Metered re-run of the most-populated Jacobi point of every tier: the
/// cycle-attribution profiler and periodic samplers enabled at a
/// tier-scaled window, feeding the `utilization` sections. The sampling
/// interval grows with the tier so the deepest 16×16 run still fits the
/// default 256-window ring without evicting its early windows. Gate:
/// every point really profiled — an exhaustive cycle attribution
/// (fractions sum to 1.0), at least two committed windows and at least
/// one lit link.
fn run_utilization(tiers: &[Tier], smoke: bool) -> Vec<UtilizationRow> {
    let mut rows = Vec::new();
    for tier in tiers {
        let pes = tier.most_pes();
        let interval: u64 = match (tier.side, smoke) {
            (16, false) => 65_536,
            (8, false) => 4_096,
            (_, false) => 2_048,
            (16, true) => 2_048,
            (8, true) => 1_024,
            (_, true) => 512,
        };
        let sys = base_builder()
            .topology(tier.topology())
            .compute_pes(pes)
            .cache_bytes(CACHE_BYTES)
            .metrics(MetricsConfig::every(interval))
            .build()
            .expect("utilization configuration");
        let outcome = jacobi::run(&sys, &jacobi_config(tier.grid_n)).expect("utilization run");
        let report = outcome.run.metrics.expect("metered run attaches a metrics report");
        let label = sys.label();
        let agg = report.aggregate();
        let sum: f64 = PeActivity::ALL.iter().map(|&a| agg.fraction(a)).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{label}: breakdown fractions must sum to 1.0, got {sum}"
        );
        assert!(report.windows.len() >= 2, "{label}: the sampler must commit at least two windows");
        assert!(
            report.peak_link_utilization().is_some(),
            "{label}: a jacobi run must light up at least one link"
        );
        rows.push(UtilizationRow { topology: tier.name(), label, pes, report });
    }
    rows
}

// ---- resilience microbench ----

/// The `resilience` section, the fault-injection sweep: every scenario
/// runs with [`ResilienceConfig::standard`] (retransmission, bridge
/// retry, watchdog) against a seeded [`ScheduledInjector`]. Gate: every
/// scenario finishes — validated bit-exactly for the Jacobi scenarios —
/// injects real faults, and shows them absorbed in its recovery
/// counters. Smoke mode shrinks grids and op counts, never the fault
/// rates.
fn run_resilience(smoke: bool) -> Table {
    // The 16-PE scenarios need one interior row per rank: grid >= 18.
    let grid = if smoke { 18 } else { 24 };
    let iters = if smoke { 1 } else { 2 };

    // Jacobi under fire: the solve must still validate bit-exactly
    // against the sequential reference after every recovery.
    let jacobi_scenario = |side: u8, pes: usize, schedule: FaultConfig| {
        let sys = base_builder()
            .topology(Topology::new(side, side).expect("valid square torus"))
            .compute_pes(pes)
            .cache_bytes(CACHE_BYTES)
            .resilience(ResilienceConfig::standard())
            .build()
            .expect("resilience bench configuration");
        let jcfg = JacobiConfig::new(grid, JacobiVariant::HybridFullMp)
            .with_warmup_iters(0)
            .with_measured_iters(iters)
            .with_validation();
        let mut injector = ScheduledInjector::new(schedule);
        jacobi::run_faulted(&sys, &jcfg, &mut NullSink, &mut injector).map(|outcome| {
            jacobi::validate_against_reference(&jcfg, &outcome)
                .expect("faulted jacobi must still match the sequential reference");
            outcome.run
        })
    };

    // Bank-hammer: uncached read round trips under response drops and
    // service delays — recovery is the pif2NoC bridge's read retry.
    let bank_hammer = || {
        let ops = if smoke { 64 } else { 256 };
        let pes = 4usize;
        let sys = base_builder()
            .compute_pes(pes)
            .cache_bytes(CACHE_BYTES)
            .resilience(ResilienceConfig::standard())
            .build()
            .expect("bank-hammer configuration");
        let kernels: Vec<Task> = (0..pes)
            .map(|r| {
                Task::new(move |api| async move {
                    let comm = AsyncEmpi::new(api);
                    for i in 0..ops {
                        let addr = 0x100 + ((r * ops + i) as u32 % 64) * 4;
                        comm.uncached_store_u32(addr, i as u32).await;
                        let _ = comm.uncached_load_u32(addr).await;
                    }
                })
            })
            .collect();
        let schedule = FaultConfig {
            seed: 0xFA_004,
            bank_drop_ppm: 20_000,
            bank_delay_ppm: 20_000,
            bank_delay_cycles: 200,
            ..FaultConfig::default()
        };
        let mut injector = ScheduledInjector::new(schedule);
        System::run_with(&sys, &[], kernels, &mut NullSink, &mut injector)
    };

    let dead_link = DeadLink { node: 0, dir: 1, at: 400 };
    let scenarios: [(&str, Result<RunResult, RunError>); 4] = [
        (
            "4x4 jacobi corrupt=10000ppm",
            jacobi_scenario(
                4,
                8,
                FaultConfig { seed: 0xFA_001, flit_corrupt_ppm: 10_000, ..FaultConfig::default() },
            ),
        ),
        (
            "8x8 jacobi dead-link@400",
            jacobi_scenario(
                8,
                16,
                FaultConfig { seed: 0xFA_002, ..FaultConfig::default() }.kill_link(dead_link),
            ),
        ),
        (
            "8x8 jacobi dead-link+corrupt",
            jacobi_scenario(
                8,
                16,
                FaultConfig { seed: 0xFA_003, flit_corrupt_ppm: 1_000, ..FaultConfig::default() }
                    .kill_link(dead_link),
            ),
        ),
        ("4x4 bank-hammer drop+delay", bank_hammer()),
    ];

    let mut table = Table::new(
        "resilience",
        "ResilienceConfig::standard (retransmit + bridge retry + watchdog) against seeded faults",
        &[&["scenario"][..], &RECOVERY_COLUMNS].concat(),
    );
    for (name, run) in &scenarios {
        table.push([cells![*name], recovery_cells(run)].concat());
    }
    for (name, run) in scenarios {
        let r = run.unwrap_or_else(|e| panic!("{name}: faulted run must recover, got {e}"));
        assert!(r.fault.total() > 0, "{name}: the schedule must actually inject faults");
        assert!(
            r.fabric_reroutes + r.retransmits() + r.bridge_retries() > 0,
            "{name}: recovery counters must show the faults were absorbed"
        );
    }
    table
}

/// The `validation` section: the most-populated point of the largest
/// tier re-run with validation — every interior cell of the final grid
/// must match the sequential reference bit-for-bit, so the 255-PE
/// configuration is numerically checked, not just timed (the seq-number
/// attribution assumption of the TIE receiver included). Smoke mode skips
/// the ~half-minute pass and leaves the section empty; the 63-rank
/// validated run in the apps test suite covers CI.
fn validate_largest(tiers: &[Tier], smoke: bool) -> Table {
    let mut table = Table::new(
        "validation",
        "largest point, 1 measured iteration, final grid checked against the sequential \
         reference (full mode only)",
        &[&["label", "pes"][..], &RUN_COLUMNS].concat(),
    );
    if smoke {
        return table;
    }
    let tier = tiers.last().expect("ladder is not empty");
    let pes = tier.most_pes();
    let sys = base_builder()
        .topology(tier.topology())
        .compute_pes(pes)
        .cache_bytes(CACHE_BYTES)
        .build()
        .expect("validated configuration");
    let jcfg = JacobiConfig::new(tier.grid_n, JacobiVariant::HybridFullMp)
        .with_warmup_iters(0)
        .with_measured_iters(1)
        .with_validation();
    let outcome = jacobi::run(&sys, &jcfg).expect("validation run");
    jacobi::validate_against_reference(&jcfg, &outcome)
        .expect("largest configuration must match the sequential reference bit-for-bit");
    table.push([cells![sys.label(), pes], run_cells(&outcome.run)].concat());
    table
}

fn main() {
    let usage = "usage: scaling_json [--smoke] [OUT_PATH]";
    let mut smoke = false;
    let mut out_path = "BENCH_scaling.json".to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}; {usage}");
                std::process::exit(2);
            }
            path => out_path = path.to_owned(),
        }
    }
    let tiers = if smoke { SMOKE } else { FULL };
    let mut report = Report::new("scaling", if smoke { "smoke" } else { "full" });
    report.add(run_ladder(tiers, sweep_threads()));
    report.add(validate_largest(tiers, smoke));
    report.add(run_collectives(tiers, smoke));
    report.add(run_memory_banks(tiers, if smoke { 6 } else { 16 }, smoke));
    report.add(run_coherence(tiers, if smoke { 4 } else { 8 }));
    let utilization = run_utilization(tiers, smoke);
    let note = "jacobi hybrid-full-mp, most-populated point per tier, metered re-run; breakdown \
                fractions sum to 1.0 per row; link busy is a [0,1] per-window utilization";
    for table in utilization_tables(note, &utilization) {
        report.add(table);
    }
    report.add(run_resilience(smoke));
    report.write(&out_path);
}
