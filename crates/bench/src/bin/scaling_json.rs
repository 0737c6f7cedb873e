//! Topology-scaling harness: runs the paper's Jacobi workload on 4×4,
//! 8×8 and 16×16 tori (up to 255 compute PEs) through the topology-aware
//! parallel sweep engine (`medea_core::explore::run_sweep`) and writes
//! `BENCH_scaling.json` with, per point, the simulation throughput
//! (simulated cycles per wall-clock second) and the Jacobi speedup
//! relative to the fewest-PE point of the same torus.
//!
//! All points of all tiers go through **one** sweep call, so the
//! self-scheduling worker pool keeps every host core busy across the ladder
//! rather than per tier. In full mode the most-populated 16×16 point
//! (255 PEs) is additionally re-run with numerical validation against
//! the sequential reference — the largest configuration is checked
//! bit-for-bit, not just timed.
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
//! recv-wait / mem / … fractions, summing to 1.0 by construction), the
//! peak single-link utilization of any sample window and the
//! hottest-router/bank tables. Metered runs are kept out of the timing
//! ladder so sampling cost never pollutes the cycles/sec columns.
//!
//! And the **resilience sweep**: seeded fault injection (Message-flit
//! corruption, a mid-run dead torus link, MPMMU response drops/delays)
//! against the standard recovery configuration. Every scenario must
//! complete — Jacobi scenarios validated bit-exactly against the
//! sequential reference — with nonzero recovery counters (deflection
//! reroutes, eMPI retransmissions, bridge retries), asserted.
//!
//! And the **parallel-engine microbench**: the most-populated Jacobi
//! point of the 8×8 and 16×16 tiers (63 and 255 PEs in full mode), each
//! re-run single-run at 1/2/4/8 host threads through the tiled cycle
//! engine. Every multi-thread run must reproduce the single-thread
//! `RunResult` bit-for-bit (asserted, always), and on hosts with enough
//! cores the 255-PE point must reach ≥ 3× cycles/sec at 8 threads
//! (≥ 1.5× at 4 threads at CI smoke scale).
//!
//! ```text
//! cargo run --release -p medea-bench --bin scaling_json -- \
//!     [--smoke] [--engine-threads N] [OUT_PATH]
//! ```
//!
//! `--engine-threads N` runs every sweep point's cycle engine tiled over
//! N host threads (`SystemConfigBuilder::host_threads`); the sweep's own
//! worker count is then capped so sweep threads × engine threads never
//! oversubscribes the host.
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
use medea_bench::{sweep_threads, utilization_rows_json, UtilizationRow};
use medea_core::api::PeApi;
use medea_core::explore::{run_sweep, PreparedWorkload, SweepOutcome, SweepPoint, Workload};
use medea_core::report::format_breakdown_table;
use medea_core::system::{Kernel, RunResult, System};
use medea_core::{
    CachePolicy, Coherence, CollectiveAlgo, CycleBreakdown, DeadLink, Empi, FaultConfig,
    MetricsConfig, NullSink, PeActivity, ResilienceConfig, ScheduledInjector, SystemConfig,
    SystemConfigBuilder, Topology,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One torus of the scaling ladder: its grid side and the PE counts run
/// on it (fewest first; the speedup baseline).
struct Tier {
    side: u8,
    grid_n: usize,
    pe_counts: &'static [usize],
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

struct Row {
    label: String,
    pes: usize,
    /// Host threads the point's own cycle engine ran on (1 = sequential
    /// engine; the sweep's worker-pool parallelism is reported globally).
    host_threads: usize,
    sim_cycles: u64,
    cycles_per_iter: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    speedup: f64,
    /// Flit-latency percentiles (bucket-granular upper estimates) and the
    /// deflection pressure of the same run — the `noc` section's data.
    lat_p50: Option<u64>,
    lat_p99: Option<u64>,
    lat_max: Option<u64>,
    defl_per_flit: Option<f64>,
}

struct TierReport {
    topology: String,
    grid_n: usize,
    rows: Vec<Row>,
}

fn run_ladder(tiers: &[Tier], threads: usize, engine_threads: usize) -> Vec<TierReport> {
    let topo_of = |t: &Tier| Topology::new(t.side, t.side).expect("valid square torus");
    let workload =
        TieredJacobi { grid_by_topology: tiers.iter().map(|t| (topo_of(t), t.grid_n)).collect() };
    // One flat point list: the self-scheduling worker pool overlaps cheap
    // 4x4 points with the long 255-PE grind instead of idling between
    // tiers.
    let mut points = Vec::new();
    for tier in tiers {
        let topology = topo_of(tier);
        for &pes in tier.pe_counts {
            points.push(SweepPoint::on(topology, pes, CACHE_BYTES, CachePolicy::WriteBack));
        }
    }
    let outcomes =
        run_sweep(&workload, &points, &base_builder().host_threads(engine_threads), threads);

    let mut reports = Vec::new();
    let mut cursor = outcomes.iter();
    for tier in tiers {
        let tier_outcomes: Vec<&SweepOutcome> =
            cursor.by_ref().take(tier.pe_counts.len()).collect();
        let baseline = tier_outcomes
            .first()
            .and_then(|o| o.measured())
            .expect("fewest-PE point must succeed")
            .max(1) as f64;
        let rows = tier_outcomes
            .iter()
            .map(|o| {
                let result = o.result.as_ref().expect("scaling run failed");
                Row {
                    label: o.label.clone(),
                    pes: o.point.pes,
                    host_threads: engine_threads,
                    sim_cycles: result.cycles,
                    cycles_per_iter: o.measured_cycles,
                    wall_s: result.wall.as_secs_f64(),
                    cycles_per_sec: result.sim_rate(),
                    speedup: baseline / o.measured_cycles.max(1) as f64,
                    lat_p50: result.flit_latency_p50(),
                    lat_p99: result.flit_latency_p99(),
                    lat_max: result.fabric_max_latency,
                    defl_per_flit: result.deflections_per_delivered(),
                }
            })
            .collect();
        reports.push(TierReport {
            topology: format!("{}x{}", tier.side, tier.side),
            grid_n: tier.grid_n,
            rows,
        });
    }
    reports
}

// ---- parallel engine microbench ----

/// One thread count of one parallel-engine point.
struct ParallelRow {
    threads: usize,
    wall_s: f64,
    cycles_per_sec: f64,
    speedup_vs_1t: f64,
}

/// One benchmarked point: a fully populated Jacobi run re-executed at
/// every thread count of the ladder.
struct ParallelReport {
    topology: String,
    grid_n: usize,
    pes: usize,
    sim_cycles: u64,
    rows: Vec<ParallelRow>,
}

/// Single-run scaling of the tiled cycle engine: the most-populated
/// Jacobi point of every tier past 4×4, re-run at each thread count.
/// The 1-thread run is the baseline for both the speedup column and the
/// bit-identity assertion.
fn run_parallel_engine(tiers: &[Tier], smoke: bool) -> Vec<ParallelReport> {
    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut reports = Vec::new();
    for tier in tiers.iter().filter(|t| t.side > 4) {
        let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
        let pes = *tier.pe_counts.last().expect("tier has PE counts");
        let jcfg = jacobi_config(tier.grid_n);
        let mut baseline: Option<(f64, RunResult)> = None;
        let mut rows = Vec::new();
        let mut sim_cycles = 0;
        for &threads in thread_counts {
            let sys = base_builder()
                .topology(topology)
                .compute_pes(pes)
                .cache_bytes(CACHE_BYTES)
                .host_threads(threads)
                .build()
                .expect("parallel engine configuration");
            let t0 = Instant::now();
            let outcome = jacobi::run(&sys, &jcfg).expect("parallel engine run");
            let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
            let cycles_per_sec = outcome.run.cycles as f64 / wall_s;
            sim_cycles = outcome.run.cycles;
            let speedup_vs_1t = match &baseline {
                Some((base_rate, seq)) => {
                    assert_eq!(
                        outcome.run.divergence(seq),
                        None,
                        "{}x{} {pes}PE @{threads}t",
                        tier.side,
                        tier.side
                    );
                    cycles_per_sec / base_rate
                }
                None => {
                    baseline = Some((cycles_per_sec, outcome.run));
                    1.0
                }
            };
            rows.push(ParallelRow { threads, wall_s, cycles_per_sec, speedup_vs_1t });
        }
        reports.push(ParallelReport {
            topology: format!("{}x{}", tier.side, tier.side),
            grid_n: tier.grid_n,
            pes,
            sim_cycles,
            rows,
        });
    }
    reports
}

// ---- collectives microbench ----

/// Operations measured per (topology, algorithm) point.
const COLLECTIVE_ITERS: u64 = 8;

/// One row of the collectives microbench.
struct CollectiveRow {
    topology: String,
    pes: usize,
    op: &'static str,
    algo: CollectiveAlgo,
    cycles_per_op: u64,
    speedup_vs_linear: f64,
}

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
    let kernels: Vec<Kernel> = (0..pes)
        .map(|r| {
            let cell = Arc::clone(&measured);
            Box::new(move |api: PeApi| {
                let comm = Empi::new(api);
                comm.barrier();
                let t0 = comm.now();
                for _ in 0..COLLECTIVE_ITERS {
                    match op {
                        "barrier" => comm.barrier(),
                        "allreduce" => {
                            let _ = comm.allreduce(r as f64 + 0.5);
                        }
                        other => unreachable!("unknown collective op {other}"),
                    }
                }
                if r == 0 {
                    cell.store((comm.now() - t0) / COLLECTIVE_ITERS, Ordering::SeqCst);
                }
            }) as Kernel
        })
        .collect();
    System::run(&cfg, &[], kernels).expect("collective bench run");
    measured.load(Ordering::SeqCst)
}

/// Barrier + allreduce at the most-populated point of every tier, for
/// every algorithm.
fn run_collectives(tiers: &[Tier]) -> Vec<CollectiveRow> {
    let mut rows = Vec::new();
    for tier in tiers {
        let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
        let pes = *tier.pe_counts.last().expect("tier has PE counts");
        for op in ["barrier", "allreduce"] {
            let linear = collective_cycles(topology, pes, CollectiveAlgo::Linear, op);
            for algo in CollectiveAlgo::ALL {
                let cycles = if algo == CollectiveAlgo::Linear {
                    linear
                } else {
                    collective_cycles(topology, pes, algo, op)
                };
                rows.push(CollectiveRow {
                    topology: format!("{}x{}", tier.side, tier.side),
                    pes,
                    op,
                    algo,
                    cycles_per_op: cycles,
                    speedup_vs_linear: linear as f64 / cycles.max(1) as f64,
                });
            }
        }
    }
    rows
}

// ---- memory-banks microbench ----

/// Bank counts swept per topology.
const BANK_COUNTS: [usize; 3] = [1, 2, 4];

/// One row of the memory-banks microbench.
struct BankRow {
    topology: String,
    label: String,
    pes: usize,
    banks: usize,
    hotspot_cycles: u64,
    speedup_vs_single_bank: f64,
}

/// The shared-memory hotspot on fully populated 8×8/16×16 tori for each
/// bank count. Every node not hosting a bank hosts a PE, so the
/// single-bank row is the 255-PE (63-PE) status quo and the multi-bank
/// rows trade one PE per extra bank for N-way memory parallelism.
/// Per-rank work (`ops` store+load round trips) is fixed; the window is
/// rank 0's barrier-to-barrier time, i.e. whole-system completion.
fn run_memory_banks(tiers: &[Tier], ops: usize) -> Vec<BankRow> {
    let mut rows = Vec::new();
    for tier in tiers.iter().filter(|t| t.side >= 8) {
        let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
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
            let outcome =
                hotspot::run(&sys, &HotspotConfig { ops_per_rank: ops }).expect("hotspot run");
            if banks == 1 {
                single = outcome.cycles;
            }
            rows.push(BankRow {
                topology: format!("{}x{}", tier.side, tier.side),
                label: sys.label(),
                pes,
                banks,
                hotspot_cycles: outcome.cycles,
                speedup_vs_single_bank: single as f64 / outcome.cycles.max(1) as f64,
            });
        }
    }
    rows
}

// ---- coherence microbench ----

/// One row of the coherence microbench.
struct CoherenceRow {
    topology: String,
    label: String,
    pes: usize,
    banks: usize,
    mode: &'static str,
    sharing_cycles: u64,
    protocol_messages: u64,
    invalidations: u64,
    fetches: u64,
    probe_writebacks: u64,
    directory_lines_peak: u64,
}

/// The fine-grained-sharing workload (`medea_apps::sharing`) under both
/// coherence modes on every tier: DII rows run the §II-E software
/// discipline (invalidate before read, flush after write), MESI rows
/// the plain-cached kernel with the MPMMU directory moving lines on
/// demand. Every run validates its final counters in-kernel, so each
/// row is a *correct* run, and the mode contracts are asserted on the
/// counters: DII must report zero protocol messages, MESI real
/// demand-driven invalidations and owner fetches. Deliberately no
/// wall-clock gates — the comparison is simulated cycles and protocol
/// traffic, both deterministic.
fn run_coherence(tiers: &[Tier], rounds: usize) -> Vec<CoherenceRow> {
    let mut rows = Vec::new();
    for tier in tiers {
        let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
        // 2×side ranks: enough contention to migrate every line each
        // round, well clear of the node budget on every tier. The paper
        // 4×4 keeps its single MPMMU; the larger tori spread the
        // directory over 4 banks like the memory-banks sweep.
        let pes = 2 * tier.side as usize;
        let banks = if tier.side == 4 { 1 } else { 4 };
        for mode in [Coherence::Dii, Coherence::MesiDirectory] {
            let sys = base_builder()
                .topology(topology)
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
            rows.push(CoherenceRow {
                topology: format!("{}x{}", tier.side, tier.side),
                label: sys.label(),
                pes,
                banks,
                mode: if mode.is_hardware() { "mesi" } else { "dii" },
                sharing_cycles: out.cycles,
                protocol_messages: coh.protocol_messages(),
                invalidations: coh.invalidations_sent,
                fetches: coh.fetches_sent,
                probe_writebacks: coh.probe_writebacks,
                directory_lines_peak: coh.directory_lines_peak,
            });
        }
    }
    rows
}

// ---- utilization profile ----

/// Metered re-run of the most-populated Jacobi point of every tier: the
/// cycle-attribution profiler and periodic samplers enabled at a
/// tier-scaled window, feeding the `utilization` section. The sampling
/// interval grows with the tier so the deepest 16×16 run still fits the
/// default 256-window ring without evicting its early windows.
fn run_utilization(tiers: &[Tier], smoke: bool) -> Vec<UtilizationRow> {
    let mut rows = Vec::new();
    for tier in tiers {
        let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
        let pes = *tier.pe_counts.last().expect("tier has PE counts");
        let interval: u64 = match (tier.side, smoke) {
            (16, false) => 65_536,
            (8, false) => 4_096,
            (_, false) => 2_048,
            (16, true) => 2_048,
            (8, true) => 1_024,
            (_, true) => 512,
        };
        let sys = base_builder()
            .topology(topology)
            .compute_pes(pes)
            .cache_bytes(CACHE_BYTES)
            .metrics(MetricsConfig::every(interval))
            .build()
            .expect("utilization configuration");
        let outcome = jacobi::run(&sys, &jacobi_config(tier.grid_n)).expect("utilization run");
        let report = outcome.run.metrics.expect("metered run attaches a metrics report");
        rows.push(UtilizationRow {
            topology: format!("{}x{}", tier.side, tier.side),
            label: sys.label(),
            pes,
            report,
        });
    }
    rows
}

// ---- resilience microbench ----

/// The fault-injection sweep behind the `resilience` section: every
/// scenario runs with [`ResilienceConfig::standard`] (retransmission,
/// bridge retry, watchdog) against a seeded [`ScheduledInjector`] and
/// must finish — validated bit-exactly for the Jacobi scenarios — while
/// the recovery counters show the faults were really absorbed, not
/// merely absent. Smoke mode shrinks grids and op counts, never the
/// fault rates.
fn run_resilience(smoke: bool) -> Vec<medea_core::report::ResilienceRow> {
    // The 16-PE scenarios need one interior row per rank: grid >= 18.
    let grid = if smoke { 18 } else { 24 };
    let iters = if smoke { 1 } else { 2 };

    let short = |e: &medea_core::system::RunError| -> String {
        use medea_core::system::RunError;
        match e {
            RunError::CycleLimit { .. } => "cycle-limit".into(),
            RunError::Watchdog { .. } => "watchdog".into(),
            RunError::Deadlock { .. } => "deadlock".into(),
            other => format!("{other}"),
        }
    };

    // Jacobi under fire: the solve must still validate bit-exactly
    // against the sequential reference after every recovery.
    let jacobi_scenario = |name: &str, side: u8, pes: usize, schedule: FaultConfig| {
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
        match jacobi::run_faulted(&sys, &jcfg, &mut NullSink, &mut injector) {
            Ok(outcome) => {
                jacobi::validate_against_reference(&jcfg, &outcome)
                    .expect("faulted jacobi must still match the sequential reference");
                let r = &outcome.run;
                (
                    name.to_owned(),
                    r.fault.total(),
                    r.fabric_reroutes,
                    r.retransmits(),
                    r.nacks_sent(),
                    r.bridge_retries(),
                    "ok".to_owned(),
                )
            }
            Err(e) => (name.to_owned(), 0, 0, 0, 0, 0, short(&e)),
        }
    };

    let mut rows = Vec::new();
    rows.push(jacobi_scenario(
        "4x4 jacobi corrupt=10000ppm",
        4,
        8,
        FaultConfig { seed: 0xFA_001, flit_corrupt_ppm: 10_000, ..FaultConfig::default() },
    ));
    rows.push(jacobi_scenario(
        "8x8 jacobi dead-link@400",
        8,
        16,
        FaultConfig { seed: 0xFA_002, ..FaultConfig::default() }.kill_link(DeadLink {
            node: 0,
            dir: 1,
            at: 400,
        }),
    ));
    rows.push(jacobi_scenario(
        "8x8 jacobi dead-link+corrupt",
        8,
        16,
        FaultConfig { seed: 0xFA_003, flit_corrupt_ppm: 1_000, ..FaultConfig::default() }
            .kill_link(DeadLink { node: 0, dir: 1, at: 400 }),
    ));

    // Bank-hammer: uncached read round trips under response drops and
    // service delays — recovery is the pif2NoC bridge's read retry.
    {
        let ops = if smoke { 64 } else { 256 };
        let pes = 4usize;
        let sys = base_builder()
            .compute_pes(pes)
            .cache_bytes(CACHE_BYTES)
            .resilience(ResilienceConfig::standard())
            .build()
            .expect("bank-hammer configuration");
        let kernels: Vec<Kernel> = (0..pes)
            .map(|r| {
                Box::new(move |api: PeApi| {
                    let comm = Empi::new(api);
                    for i in 0..ops {
                        let addr = 0x100 + ((r * ops + i) as u32 % 64) * 4;
                        comm.uncached_store_u32(addr, i as u32);
                        let _ = comm.uncached_load_u32(addr);
                    }
                }) as Kernel
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
        let name = "4x4 bank-hammer drop+delay";
        rows.push(match System::run_with(&sys, &[], kernels, &mut NullSink, &mut injector) {
            Ok(r) => (
                name.to_owned(),
                r.fault.total(),
                r.fabric_reroutes,
                r.retransmits(),
                r.nacks_sent(),
                r.bridge_retries(),
                "ok".to_owned(),
            ),
            Err(e) => (name.to_owned(), 0, 0, 0, 0, 0, short(&e)),
        });
    }
    rows
}

/// Re-run the most-populated point of the largest tier with validation:
/// every interior cell of the final grid must match the sequential
/// reference bit-for-bit, so the 255-PE configuration is numerically
/// checked, not just timed (the seq-number attribution assumption of the
/// TIE receiver included).
fn validate_largest(tiers: &[Tier]) -> (String, usize) {
    let tier = tiers.last().expect("ladder is not empty");
    let pes = *tier.pe_counts.last().expect("tier has PE counts");
    let topology = Topology::new(tier.side, tier.side).expect("valid square torus");
    let sys = base_builder()
        .topology(topology)
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
    (sys.label(), pes)
}

fn main() {
    let mut smoke = false;
    let mut engine_threads = 1usize;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--engine-threads" => {
                engine_threads =
                    args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                        || {
                            eprintln!("--engine-threads needs a positive integer");
                            std::process::exit(2);
                        },
                    );
            }
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag {flag}; usage: scaling_json [--smoke] \
                     [--engine-threads N] [OUT_PATH]"
                );
                std::process::exit(2);
            }
            path => out_path = Some(path.to_owned()),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_scaling.json".to_owned());
    let tiers = if smoke { SMOKE } else { FULL };
    let threads = sweep_threads();
    let started = Instant::now();
    let reports = run_ladder(tiers, threads, engine_threads);
    let parallel = run_parallel_engine(tiers, smoke);
    let collectives = run_collectives(tiers);
    let hotspot_ops = if smoke { 6 } else { 16 };
    let bank_rows = run_memory_banks(tiers, hotspot_ops);
    let coherence_rounds = if smoke { 4 } else { 8 };
    let coherence_rows = run_coherence(tiers, coherence_rounds);
    let utilization = run_utilization(tiers, smoke);
    let resilience_rows = run_resilience(smoke);
    // Smoke mode skips the ~half-minute 255-PE validation pass; the
    // 63-rank validated run in the apps test suite covers CI.
    let validated = (!smoke).then(|| validate_largest(tiers));
    let total_wall = started.elapsed().as_secs_f64();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"scaling\",\n");
    json.push_str("  \"metric\": \"simulated_cycles_per_wall_second\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(
        "  \"engine\": \"System::run via explore::run_sweep (scoped workers over a \
         self-scheduling queue, one flat sweep over all tiers)\",\n",
    );
    json.push_str("  \"workload\": \"jacobi hybrid-full-mp, 1 warmup + 1 measured iteration\",\n");
    json.push_str(&format!("  \"host_threads\": {threads},\n"));
    json.push_str(&format!("  \"sweep_engine_threads\": {engine_threads},\n"));
    json.push_str(&format!("  \"total_wall_s\": {total_wall:.2},\n"));
    match &validated {
        Some((label, pes)) => json.push_str(&format!(
            "  \"validated_against_reference\": {{\"label\": \"{label}\", \"pes\": {pes}}},\n"
        )),
        None => json.push_str("  \"validated_against_reference\": null,\n"),
    }
    json.push_str("  \"topologies\": [\n");
    for (i, t) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"grid_n\": {}, \"rows\": [\n",
            t.topology, t.grid_n
        ));
        for (j, r) in t.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"label\": \"{}\", \"pes\": {}, \"host_threads\": {}, \
                 \"sim_cycles\": {}, \
                 \"cycles_per_iter\": {}, \"wall_s\": {:.3}, \"cycles_per_sec\": {:.0}, \
                 \"jacobi_speedup_vs_fewest_pes\": {:.2}}}{}\n",
                r.label,
                r.pes,
                r.host_threads,
                r.sim_cycles,
                r.cycles_per_iter,
                r.wall_s,
                r.cycles_per_sec,
                r.speedup,
                if j + 1 < t.rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!("    ]}}{}\n", if i + 1 < reports.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    // The NoC latency/deflection surface of the same Jacobi runs — the
    // FabricStats histogram finally reported instead of dropped. p50/p99
    // are bucket-granular upper estimates (Log2Histogram::percentile);
    // max is exact.
    json.push_str(
        "  \"noc\": {\"workload\": \"jacobi ladder rows above\", \"percentile_note\": \
         \"p50/p99 are log2-bucket upper estimates, max exact\", \"rows\": [\n",
    );
    let noc_rows: Vec<(&TierReport, &Row)> =
        reports.iter().flat_map(|t| t.rows.iter().map(move |r| (t, r))).collect();
    for (i, (t, r)) in noc_rows.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"label\": \"{}\", \"pes\": {}, \
             \"flit_latency_p50\": {}, \"flit_latency_p99\": {}, \"flit_latency_max\": {}, \
             \"deflections_per_delivered_flit\": {}}}{}\n",
            t.topology,
            r.label,
            r.pes,
            opt(r.lat_p50),
            opt(r.lat_p99),
            opt(r.lat_max),
            r.defl_per_flit.map_or_else(|| "null".to_owned(), |d| format!("{d:.4}")),
            if i + 1 < noc_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    // Single-run scaling of the tiled cycle engine. Multi-thread rows
    // are asserted bit-identical to the 1-thread baseline before they
    // are reported, so every speedup here is a determinism-preserving
    // speedup by construction.
    json.push_str(
        "  \"parallel_engine\": {\"workload\": \"jacobi hybrid-full-mp, single run, tiled \
         engine\", \"identity\": \"multi-thread RunResult asserted bit-identical to 1 \
         thread\", \"points\": [\n",
    );
    for (i, p) in parallel.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"grid_n\": {}, \"pes\": {}, \"sim_cycles\": {}, \
             \"rows\": [\n",
            p.topology, p.grid_n, p.pes, p.sim_cycles
        ));
        for (j, r) in p.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"threads\": {}, \"wall_s\": {:.3}, \"cycles_per_sec\": {:.0}, \
                 \"speedup_vs_1t\": {:.2}}}{}\n",
                r.threads,
                r.wall_s,
                r.cycles_per_sec,
                r.speedup_vs_1t,
                if j + 1 < p.rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!("    ]}}{}\n", if i + 1 < parallel.len() { "," } else { "" }));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"collectives\": {{\"iters_per_op\": {COLLECTIVE_ITERS}, \"rows\": [\n"
    ));
    for (i, c) in collectives.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"pes\": {}, \"op\": \"{}\", \"algo\": \"{}\", \
             \"cycles_per_op\": {}, \"speedup_vs_linear\": {:.2}}}{}\n",
            c.topology,
            c.pes,
            c.op,
            c.algo,
            c.cycles_per_op,
            c.speedup_vs_linear,
            if i + 1 < collectives.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"memory_banks\": {{\"workload\": \"hotspot uncached store+load, line-strided \
         shared walk\", \"ops_per_rank\": {hotspot_ops}, \"rows\": [\n"
    ));
    for (i, r) in bank_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"label\": \"{}\", \"pes\": {}, \"banks\": {}, \
             \"hotspot_cycles\": {}, \"speedup_vs_single_bank\": {:.2}}}{}\n",
            r.topology,
            r.label,
            r.pes,
            r.banks,
            r.hotspot_cycles,
            r.speedup_vs_single_bank,
            if i + 1 < bank_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    // The coherence-mode comparison: the same sharing workload under
    // software DII and under the MESI directory, simulated cycles plus
    // the directory's own traffic counters. Counts only — deterministic
    // and host-independent.
    json.push_str(&format!(
        "  \"coherence\": {{\"workload\": \"fine-grained sharing: lock-guarded RMW rotation \
         over line-interleaved counters\", \"rounds\": {coherence_rounds}, \"rows\": [\n"
    ));
    for (i, r) in coherence_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"label\": \"{}\", \"pes\": {}, \"banks\": {}, \
             \"mode\": \"{}\", \"sharing_cycles\": {}, \"protocol_messages\": {}, \
             \"invalidations\": {}, \"fetches\": {}, \"probe_writebacks\": {}, \
             \"directory_lines_peak\": {}}}{}\n",
            r.topology,
            r.label,
            r.pes,
            r.banks,
            r.mode,
            r.sharing_cycles,
            r.protocol_messages,
            r.invalidations,
            r.fetches,
            r.probe_writebacks,
            r.directory_lines_peak,
            if i + 1 < coherence_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    // The profiler's view of the same tiers: cycle attribution and NoC /
    // bank pressure from metered re-runs (sampling kept out of the timed
    // ladder above).
    json.push_str(
        "  \"utilization\": {\"workload\": \"jacobi hybrid-full-mp, most-populated point per \
         tier, metered re-run\", \"note\": \"breakdown fractions sum to 1.0 per row; link \
         busy is a [0,1] per-window utilization\", \"rows\": [\n",
    );
    json.push_str(&utilization_rows_json(&utilization));
    json.push_str("  ]},\n");
    // The fault-injection sweep: seeded faults against the standard
    // resilience configuration, Jacobi scenarios validated bit-exactly
    // after recovery.
    json.push_str(
        "  \"resilience\": {\"config\": \"ResilienceConfig::standard (retransmit + bridge \
         retry + watchdog)\", \"rows\": [\n",
    );
    for (i, (label, faults, reroutes, retransmits, nacks, bridge, outcome)) in
        resilience_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"scenario\": \"{label}\", \"faults_injected\": {faults}, \
             \"fabric_reroutes\": {reroutes}, \"empi_retransmits\": {retransmits}, \
             \"empi_nacks\": {nacks}, \"bridge_retries\": {bridge}, \
             \"outcome\": \"{outcome}\"}}{}\n",
            if i + 1 < resilience_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");

    for t in &reports {
        for r in &t.rows {
            println!(
                "{:<6} {:>22} {:>12} cycles  {:>12.0} c/s  speedup {:>6.2}x",
                t.topology, r.label, r.sim_cycles, r.cycles_per_sec, r.speedup
            );
        }
    }
    let latency_rows: Vec<medea_core::report::LatencyRow> = reports
        .iter()
        .flat_map(|t| t.rows.iter())
        .map(|r| (r.label.clone(), r.lat_p50, r.lat_p99, r.lat_max, r.defl_per_flit))
        .collect();
    for p in &parallel {
        for r in &p.rows {
            println!(
                "{:<6} {:>3} PEs  tiled engine {:>2} thread(s)  {:>12.0} c/s  vs 1t {:>6.2}x",
                p.topology, p.pes, r.threads, r.cycles_per_sec, r.speedup_vs_1t
            );
        }
    }
    println!("flit latency (cycles):");
    print!("{}", medea_core::report::format_latency_table(&latency_rows));
    for c in &collectives {
        println!(
            "{:<6} {:>4} PEs  {:<9} {:<18} {:>9} cycles/op  vs linear {:>6.2}x",
            c.topology,
            c.pes,
            c.op,
            c.algo.to_string(),
            c.cycles_per_op,
            c.speedup_vs_linear
        );
    }
    for r in &bank_rows {
        println!(
            "{:<6} {:>22} {:>2} bank(s)  {:>9} hotspot cycles  vs 1 bank {:>6.2}x",
            r.topology, r.label, r.banks, r.hotspot_cycles, r.speedup_vs_single_bank
        );
    }
    println!("cycle attribution (aggregate over all PEs of each metered point):");
    let breakdown_rows: Vec<(String, CycleBreakdown)> =
        utilization.iter().map(|r| (r.label.clone(), r.report.aggregate())).collect();
    print!("{}", format_breakdown_table(&breakdown_rows));
    for r in &utilization {
        if let Some((node, dir, u)) = r.report.peak_link_utilization() {
            println!(
                "{}: peak link utilization {:.0}% at node {node} dir {dir} \
                 ({} windows of {} cycles)",
                r.label,
                u * 100.0,
                r.report.windows.len(),
                r.report.interval
            );
        }
    }
    println!("resilience sweep (standard recovery config):");
    print!("{}", medea_core::report::format_resilience_table(&resilience_rows));
    if let Some((label, _)) = &validated {
        println!("validated {label} against the sequential reference");
    }
    // Sanity: every tier must show parallel speedup from its fewest- to
    // its most-populated point (the whole reason the torus scales out).
    for t in &reports {
        let last = t.rows.last().expect("tier has rows");
        assert!(
            last.speedup > 1.0,
            "{}: {} PEs must beat {} PEs, got {:.2}x",
            t.topology,
            last.pes,
            t.rows[0].pes,
            last.speedup
        );
    }
    // The O(ranks) → O(log ranks) acceptance gate: at the largest point,
    // the tree barrier must be ≥ 4x cheaper than linear on the full
    // 255-rank run; even the CI smoke scale must show a clear win.
    let largest = collectives
        .iter()
        .filter(|c| c.op == "barrier")
        .max_by_key(|c| c.pes)
        .expect("collectives measured");
    let tree_factor = collectives
        .iter()
        .filter(|c| {
            c.op == "barrier" && c.pes == largest.pes && c.algo == CollectiveAlgo::BinomialTree
        })
        .map(|c| c.speedup_vs_linear)
        .next()
        .expect("binomial row present");
    let required = if smoke { 1.5 } else { 4.0 };
    assert!(
        tree_factor >= required,
        "binomial barrier at {} PEs must be >= {required}x cheaper than linear, got {tree_factor:.2}x",
        largest.pes
    );
    // The distributed-memory acceptance gate: on the largest torus, the
    // 4-bank system must beat the single-bank baseline (the 255-PE
    // status quo on a full 16×16 run) under the memory-hot workload.
    let bank_best = bank_rows
        .iter()
        .filter(|r| r.banks == 4)
        .max_by(|a, b| a.pes.cmp(&b.pes))
        .expect("bank sweep measured");
    let bank_required = if smoke { 1.0 } else { 2.0 };
    assert!(
        bank_best.speedup_vs_single_bank >= bank_required,
        "{}: 4 banks must be >= {bank_required}x faster than the single-bank baseline on the \
         hotspot workload, got {:.2}x",
        bank_best.label,
        bank_best.speedup_vs_single_bank
    );
    // The parallel-engine acceptance gate: on a host with enough cores,
    // the largest point must reach ≥ 3x cycles/sec at 8 threads (full)
    // or ≥ 1.5x at 4 threads (smoke). Bit-identity was asserted during
    // the measurement itself, ungated.
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let (gate_threads, gate_factor) = if smoke { (4, 1.5) } else { (8, 3.0) };
    if cores >= gate_threads {
        let largest = parallel.last().expect("parallel engine measured");
        let gated = largest
            .rows
            .iter()
            .find(|r| r.threads == gate_threads)
            .expect("gated thread count measured");
        assert!(
            gated.speedup_vs_1t >= gate_factor,
            "{} {} PEs: tiled engine at {gate_threads} threads must be >= {gate_factor}x \
             vs 1 thread, got {:.2}x",
            largest.topology,
            largest.pes,
            gated.speedup_vs_1t
        );
    } else {
        println!(
            "parallel-engine speedup gate skipped: host has {cores} core(s), \
             gate needs {gate_threads}"
        );
    }
    // The utilization acceptance gate: every metered point must have
    // really profiled — a committed sample series and an exhaustive cycle
    // attribution (fractions sum to 1.0, every ticked cycle charged).
    for r in &utilization {
        let agg = r.report.aggregate();
        let sum: f64 = PeActivity::ALL.iter().map(|&a| agg.fraction(a)).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: breakdown fractions must sum to 1.0, got {sum}",
            r.label
        );
        assert!(
            r.report.windows.len() >= 2,
            "{}: the sampler must commit at least two windows",
            r.label
        );
        assert!(
            r.report.peak_link_utilization().is_some(),
            "{}: a jacobi run must light up at least one link",
            r.label
        );
    }
    // The resilience acceptance gate: every fault scenario must complete
    // ("ok" outcome, validated where applicable) and every scenario must
    // both inject real faults and exercise the matching recovery path.
    for (label, faults, reroutes, retransmits, _nacks, bridge, outcome) in &resilience_rows {
        assert_eq!(outcome, "ok", "{label}: faulted run must recover, got {outcome}");
        assert!(*faults > 0, "{label}: the schedule must actually inject faults");
        assert!(
            reroutes + retransmits + bridge > 0,
            "{label}: recovery counters must show the faults were absorbed"
        );
    }
    println!("wrote {out_path}");
}
