//! The six benchmark workloads: how each is built, run once ("a rep"),
//! run as a no-op for the set-up measurement, and checked.
//!
//! Jacobi and hotspot are the paper's deterministic inputs and ignore the
//! seed; the seed drives the benchmark's own generators (ping-pong
//! message lengths, uniform NoC traffic).

use crate::spans::Spans;
use medea_apps::hotspot::{self, HotspotConfig};
use medea_apps::jacobi::{self, JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_cache::CacheStats;
use medea_core::api::PeApi;
use medea_core::explore::Workload as _;
use medea_core::system::{Kernel, RunResult, System};
use medea_core::{MetricsConfig, PeActivity, SystemConfig, Topology};
use medea_mem::MpmmuStats;
use medea_metrics::{Meter, MetricsReport, Recorder};
use medea_noc::flit::Flit;
use medea_noc::network::Network;
use medea_noc::Fabric;
use medea_sim::ids::{NodeId, Rank};
use medea_sim::rng::SplitMix64;
use medea_sim::Cycle;
use medea_trace::NullSink;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// L1 size of every system workload: the `BENCH_scaling` ladder's.
pub const CACHE_BYTES: usize = 16 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JacobiMp,
    JacobiSm,
    Hotspot16x16,
    Pingpong,
    NocUniform,
    JacobiMpTiled,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::JacobiMp,
        Kind::JacobiSm,
        Kind::Hotspot16x16,
        Kind::Pingpong,
        Kind::NocUniform,
        Kind::JacobiMpTiled,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::JacobiMp => "jacobi_mp",
            Kind::JacobiSm => "jacobi_sm",
            Kind::Hotspot16x16 => "hotspot_16x16",
            Kind::Pingpong => "pingpong",
            Kind::NocUniform => "noc_uniform",
            Kind::JacobiMpTiled => "jacobi_mp_tiled",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Host threads of the cycle engine, and so the CPUs the workload's
    /// process is pinned to.
    pub fn host_threads(self) -> usize {
        if self == Kind::JacobiMpTiled {
            2
        } else {
            1
        }
    }
}

/// What one rep leaves behind: host times, and the simulated counters
/// the checks and the per-layer metrics read.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds of the whole call: prepare, run and teardown.
    pub wall_s: f64,
    /// Host seconds inside the cycle engine (`RunResult::wall`; for
    /// `noc_uniform`, the bench's own inject/tick/eject loop).
    pub engine_s: f64,
    pub counters: Counters,
}

/// Simulated counters of one rep, in the shape the per-layer metrics
/// need. Every field is a pure function of the configuration and seed.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub cycles: Cycle,
    pub nodes: usize,
    pub requests: u64,
    pub packets_sent: u64,
    pub packets_received: u64,
    pub retries: u64,
    /// Share of all PE cycles in each [`PeActivity`] (metered reps only).
    pub attr: Option<[f64; PeActivity::COUNT]>,
    pub flits_delivered: u64,
    /// Σ in-network latency over delivered flits: the flit-cycles the
    /// fabric carried.
    pub flit_cycles: u64,
    pub deflections: u64,
    pub latency_p50: u64,
    pub latency_p99: u64,
    pub latency_max: u64,
    /// Busiest directed link's busy share in its busiest window (metered
    /// reps only).
    pub peak_link_busy: Option<f64>,
    /// Deepest bank request FIFO seen at a window boundary (metered reps
    /// only).
    pub req_fifo_peak: Option<u64>,
    /// Flits accepted per node per cycle (measured window for
    /// `noc_uniform`, whole run otherwise).
    pub accepted: f64,
    /// Refused injection attempts / attempts (`noc_uniform` only; the
    /// engine does not count refusals).
    pub refusal_frac: Option<f64>,
    pub mem: MpmmuStats,
    pub bank_txns: Vec<u64>,
    pub mpmmu_cache: CacheStats,
    pub l1: CacheStats,
}

/// Identity of a rep's simulated behaviour: equal fingerprints mean the
/// same cycles, fabric traffic and memory transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(Vec<u64>);

pub fn mem_txns(m: &MpmmuStats) -> u64 {
    m.single_reads.get()
        + m.block_reads.get()
        + m.single_writes.get()
        + m.block_writes.get()
        + m.locks_granted.get()
        + m.lock_nacks.get()
        + m.unlocks.get()
}

impl Counters {
    pub fn fingerprint(&self) -> Fingerprint {
        let m = &self.mem;
        Fingerprint(vec![
            self.cycles,
            self.flits_delivered,
            self.flit_cycles,
            self.deflections,
            m.single_reads.get(),
            m.block_reads.get(),
            m.single_writes.get(),
            m.block_writes.get(),
            m.locks_granted.get(),
            m.lock_nacks.get(),
            m.unlocks.get(),
        ])
    }

    fn from_run(r: &RunResult, nodes: usize) -> Counters {
        let sum = |f: &dyn Fn(&medea_core::system::PeSummary) -> u64| r.pe.iter().map(f).sum();
        let mut l1 = CacheStats::default();
        for pe in &r.pe {
            l1.merge(&pe.cache);
        }
        let lat = &r.fabric_latency;
        let mut c = Counters {
            cycles: r.cycles,
            nodes,
            requests: sum(&|p| p.engine.requests.get()),
            packets_sent: sum(&|p| p.engine.packets_sent.get()),
            packets_received: sum(&|p| p.engine.packets_received.get()),
            retries: sum(&|p| p.bridge.lock_retries.get() + p.bridge.retries.get()),
            flits_delivered: r.fabric_delivered,
            flit_cycles: lat.summary().sum(),
            deflections: r.fabric_deflections,
            latency_p50: lat.percentile(0.5).unwrap_or(0),
            latency_p99: lat.percentile(0.99).unwrap_or(0),
            latency_max: lat.summary().max().unwrap_or(0),
            accepted: r.fabric_delivered as f64 / (r.cycles.max(1) as f64 * nodes as f64),
            mem: r.mpmmu,
            bank_txns: r.banks.iter().map(|b| mem_txns(&b.mpmmu)).collect(),
            mpmmu_cache: r.mpmmu_cache,
            l1,
            ..Counters::default()
        };
        if let Some(m) = &r.metrics {
            c.absorb_metrics(m);
        }
        c
    }

    fn absorb_metrics(&mut self, m: &MetricsReport) {
        let agg = m.aggregate();
        if agg.total() > 0 {
            self.attr = Some(PeActivity::ALL.map(|a| agg.fraction(a)));
        }
        self.peak_link_busy = Some(m.peak_link_utilization().map_or(0.0, |(_, _, u)| u));
        self.req_fifo_peak = Some(
            m.windows
                .iter()
                .flat_map(|w| w.bank_req.iter())
                .map(|&d| u64::from(d))
                .max()
                .unwrap_or(0),
        );
    }
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub smoke: bool,
    pub seed: u64,
}

struct JacobiSize {
    side: u8,
    pes: usize,
    n: usize,
}

impl Workload {
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn jacobi_size(&self) -> JacobiSize {
        match (self.kind, self.smoke) {
            (Kind::JacobiSm, false) => JacobiSize { side: 8, pes: 31, n: 65 },
            (_, false) => JacobiSize { side: 8, pes: 63, n: 65 },
            (_, true) => JacobiSize { side: 4, pes: 15, n: 17 },
        }
    }

    fn jacobi_config(&self) -> JacobiConfig {
        let variant = match self.kind {
            Kind::JacobiSm => JacobiVariant::PureSharedMemory,
            _ => JacobiVariant::HybridFullMp,
        };
        JacobiConfig::new(self.jacobi_size().n, variant).with_warmup_iters(1).with_measured_iters(1)
    }

    fn hotspot_config(&self) -> HotspotConfig {
        HotspotConfig { ops_per_rank: if self.smoke { 8 } else { 24 } }
    }

    fn pingpong_rounds(&self) -> usize {
        if self.smoke {
            2_000
        } else {
            50_000
        }
    }

    /// `(torus side, warm-up cycles, measured cycles)` of `noc_uniform`.
    fn noc_shape(&self) -> (u8, Cycle, Cycle) {
        if self.smoke {
            (8, 200, 2_000)
        } else {
            (16, 1_000, 20_000)
        }
    }

    /// Offered load of `noc_uniform`, flits per node per cycle.
    pub const NOC_LOAD: f64 = 0.2;

    /// The torus the workload runs on.
    pub fn topology(&self) -> Topology {
        let side = match self.kind {
            Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled => self.jacobi_size().side,
            Kind::Hotspot16x16 => {
                if self.smoke {
                    8
                } else {
                    16
                }
            }
            Kind::Pingpong => 4,
            Kind::NocUniform => self.noc_shape().0,
        };
        Topology::new(side, side).expect("benchmark tori are valid")
    }

    /// The simulated system; `None` for the fabric-only `noc_uniform`.
    /// `metrics` turns on the sampling meter at that interval.
    fn system(&self, metrics: Option<Cycle>, host_threads: usize) -> Option<SystemConfig> {
        let topo = self.topology();
        let builder = SystemConfig::builder()
            .topology(topo)
            .cache_bytes(CACHE_BYTES)
            .cycle_limit(400_000_000)
            .shared_bytes(4 * 1024 * 1024)
            .host_threads(host_threads);
        let builder = match self.kind {
            Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled => {
                builder.compute_pes(self.jacobi_size().pes)
            }
            Kind::Hotspot16x16 => builder.compute_pes(topo.nodes() - 4).memory_banks(4),
            Kind::Pingpong => builder.compute_pes(2),
            Kind::NocUniform => return None,
        };
        let builder = match metrics {
            Some(k) => builder.metrics(MetricsConfig::every(k)),
            None => builder,
        };
        Some(builder.build().expect("benchmark configurations are valid"))
    }

    /// One set-up measurement: the workload's prepare step plus a run of
    /// the same system and preload with kernels that return at once —
    /// config build, bank preload, kernel-thread spawn and join. For
    /// `noc_uniform`: traffic generation plus fabric construction.
    pub fn setup_once(&self) -> Duration {
        let t = Instant::now();
        match self.system(None, self.kind.host_threads()) {
            Some(cfg) => {
                let preload = match self.kind {
                    Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled => {
                        JacobiWorkload { jcfg: self.jacobi_config() }.prepare(&cfg).preload
                    }
                    Kind::Pingpong => {
                        drop(self.pingpong_lengths());
                        Vec::new()
                    }
                    _ => Vec::new(),
                };
                let noop: Vec<Kernel> =
                    (0..cfg.compute_pes()).map(|_| Box::new(|_: PeApi| {}) as Kernel).collect();
                let r = System::run(&cfg, &preload, noop).expect("a no-op run completes");
                std::hint::black_box(r.cycles);
            }
            None => {
                let (schedule, net) = self.noc_prepare();
                std::hint::black_box((schedule.len(), net.in_flight()));
            }
        }
        t.elapsed()
    }

    /// Run the workload once. `metrics` meters the run at that sampling
    /// interval; `validate` also checks Jacobi's grid against the
    /// sequential reference. `host_threads` overrides the engine's
    /// threads (the tiled workload's sequential reference).
    ///
    /// # Errors
    ///
    /// A [`medea_core::RunError`], a kernel panic, or a failed output
    /// check, as text.
    pub fn rep(
        &self,
        spans: &mut Spans,
        metrics: Option<Cycle>,
        validate: bool,
        host_threads: usize,
    ) -> Result<Rep, String> {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            self.rep_inner(spans, metrics, validate, host_threads)
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            Err(format!("panicked: {msg}"))
        });
        let (engine_s, counters) = out?;
        Ok(Rep { wall_s: t.elapsed().as_secs_f64(), engine_s, counters })
    }

    fn rep_inner(
        &self,
        spans: &mut Spans,
        metrics: Option<Cycle>,
        validate: bool,
        host_threads: usize,
    ) -> Result<(f64, Counters), String> {
        let name = self.name();
        let Some(cfg) = self.system(metrics, host_threads) else {
            let (schedule, net) = spans.record("noc.prepare", name, |_| self.noc_prepare());
            return spans.record("noc.drive", name, |_| self.noc_drive(&schedule, net, metrics));
        };
        let nodes = cfg.topology().nodes();
        let run = match self.kind {
            Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled if validate => {
                let jcfg = self.jacobi_config().with_validation();
                let outcome = spans
                    .record("apps.jacobi::run", name, |_| jacobi::run(&cfg, &jcfg))
                    .map_err(|e| e.to_string())?;
                jacobi::validate_against_reference(&jcfg, &outcome)?;
                outcome.run
            }
            Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled => {
                let p = spans.record("apps.prepare", name, |_| {
                    JacobiWorkload { jcfg: self.jacobi_config() }.prepare(&cfg)
                });
                let run = spans
                    .record("core.System::run", name, |_| System::run(&cfg, &p.preload, p.kernels))
                    .map_err(|e| e.to_string())?;
                if p.measured.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                    return Err("jacobi measured no iteration".into());
                }
                run
            }
            Kind::Hotspot16x16 => {
                let hcfg = self.hotspot_config();
                let run = spans
                    .record("apps.hotspot::run", name, |_| hotspot::run(&cfg, &hcfg))
                    .map_err(|e| e.to_string())?
                    .run;
                let expect = (cfg.compute_pes() * hcfg.ops_per_rank) as u64;
                let (reads, writes) = (run.mpmmu.single_reads.get(), run.mpmmu.single_writes.get());
                if reads != expect || writes != expect {
                    return Err(format!(
                        "hotspot: {reads} single reads and {writes} single writes, expected {expect} each"
                    ));
                }
                run
            }
            Kind::Pingpong => {
                let kernels = spans.record("apps.prepare", name, |_| self.pingpong_kernels());
                spans
                    .record("core.System::run", name, |_| System::run(&cfg, &[], kernels))
                    .map_err(|e| e.to_string())?
            }
            Kind::NocUniform => unreachable!("noc_uniform has no system"),
        };
        Ok((run.wall.as_secs_f64(), Counters::from_run(&run, nodes)))
    }

    /// Message lengths (1–4 words) of every ping-pong round.
    fn pingpong_lengths(&self) -> Vec<u8> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.pingpong_rounds()).map(|_| 1 + rng.next_below(4) as u8).collect()
    }

    /// Rank 0 sends round `i`'s message over the raw TIE path, rank 1
    /// checks it and echoes it, rank 0 checks the echo. Payloads are
    /// padded to the burst granularity, so a 3-word message arrives as 4.
    fn pingpong_kernels(&self) -> Vec<Kernel> {
        let lengths = Arc::new(self.pingpong_lengths());
        let word = |i: usize, k: usize| (i as u32) << 4 | k as u32;
        let padded = |len: usize| len.next_power_of_two();
        let expect = move |i: usize, len: usize, got: &[u32]| {
            assert_eq!(got.len(), padded(len), "round {i}: padded length");
            for (k, &w) in got[..len].iter().enumerate() {
                assert_eq!(w, word(i, k), "round {i}: word {k}");
            }
        };
        let l0 = Arc::clone(&lengths);
        let ping: Kernel = Box::new(move |api: PeApi| {
            let mut msg = Vec::with_capacity(4);
            for (i, &len) in l0.iter().enumerate() {
                msg.clear();
                msg.extend((0..len as usize).map(|k| word(i, k)));
                api.send_to_rank(Rank::new(1), &msg);
                expect(i, len as usize, &api.recv_from_rank(Rank::new(1)));
            }
        });
        let pong: Kernel = Box::new(move |api: PeApi| {
            for (i, &len) in lengths.iter().enumerate() {
                let got = api.recv_from_rank(Rank::new(0));
                expect(i, len as usize, &got);
                api.send_to_rank(Rank::new(0), &got);
            }
        });
        vec![ping, pong]
    }

    /// `noc_uniform`'s traffic: per cycle and node, a flit with
    /// probability [`Self::NOC_LOAD`] to a uniform other node, as
    /// `(cycle, src, dest)`.
    fn noc_prepare(&self) -> (Vec<(u32, u16, u16)>, Network) {
        let topo = self.topology();
        let (_, warmup, measure) = self.noc_shape();
        (uniform_schedule(topo, Self::NOC_LOAD, warmup + measure, self.seed), Network::new(topo))
    }

    fn noc_drive(
        &self,
        schedule: &[(u32, u16, u16)],
        mut net: Network,
        metrics: Option<Cycle>,
    ) -> Result<(f64, Counters), String> {
        let topo = self.topology();
        let (_, warmup, measure) = self.noc_shape();
        let mut meter = metrics
            .map(|k| Recorder::new(MetricsConfig::every(k), topo.width(), topo.height(), 0, 0));
        let t = Instant::now();
        let d = drive_fabric(&mut net, topo, schedule, warmup..warmup + measure, meter.as_mut())?;
        let engine_s = t.elapsed().as_secs_f64();
        let stats = net.stats();
        if stats.injected != stats.delivered || stats.injected != schedule.len() as u64 {
            return Err(format!(
                "noc: {} generated, {} injected, {} delivered after draining",
                schedule.len(),
                stats.injected,
                stats.delivered
            ));
        }
        let accepted = d.measured_delivered as f64 / (measure as f64 * topo.nodes() as f64);
        if accepted < 0.95 * Self::NOC_LOAD {
            return Err(format!("noc: accepted {accepted:.4} < 0.95 x offered {}", Self::NOC_LOAD));
        }
        let lat = &stats.latency;
        let mut c = Counters {
            cycles: d.cycles,
            nodes: topo.nodes(),
            flits_delivered: stats.delivered,
            flit_cycles: lat.summary().sum(),
            deflections: stats.deflections,
            latency_p50: lat.percentile(0.5).unwrap_or(0),
            latency_p99: lat.percentile(0.99).unwrap_or(0),
            latency_max: lat.summary().max().unwrap_or(0),
            accepted,
            refusal_frac: Some(d.refused as f64 / d.attempts.max(1) as f64),
            ..Counters::default()
        };
        if let Some(mut m) = meter {
            m.finish(d.cycles);
            c.absorb_metrics(&m.into_report());
        }
        Ok((engine_s, c))
    }
}

/// Uniform random traffic at `load` flits per node per cycle over
/// `cycles` cycles: `(cycle, src, dest)`, sorted by cycle.
pub fn uniform_schedule(
    topo: Topology,
    load: f64,
    cycles: Cycle,
    seed: u64,
) -> Vec<(u32, u16, u16)> {
    let nodes = topo.nodes() as u64;
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for now in 0..cycles {
        for src in 0..nodes {
            if rng.chance(load) {
                let mut dest = rng.next_below(nodes - 1);
                if dest >= src {
                    dest += 1;
                }
                out.push((now as u32, src as u16, dest as u16));
            }
        }
    }
    out
}

/// What [`drive_fabric`] observed.
pub struct Driven {
    /// Cycles until the fabric drained.
    pub cycles: Cycle,
    /// Flits delivered within the measured window.
    pub measured_delivered: u64,
    pub attempts: u64,
    pub refused: u64,
}

/// Inject `schedule` into `net` through per-node source queues, ticking
/// and ejecting as the cycle engine does, until every flit is delivered.
/// Deliveries during cycles in `window` are counted as measured.
///
/// # Errors
///
/// If the fabric does not drain within 100k cycles of the schedule's end.
pub fn drive_fabric(
    net: &mut Network,
    topo: Topology,
    schedule: &[(u32, u16, u16)],
    window: std::ops::Range<Cycle>,
    mut meter: Option<&mut Recorder>,
) -> Result<Driven, String> {
    let nodes = topo.nodes();
    let mut queues: Vec<VecDeque<Flit>> = vec![VecDeque::new(); nodes];
    let mut queued = 0usize;
    let mut next = 0usize;
    let mut d = Driven { cycles: 0, measured_delivered: 0, attempts: 0, refused: 0 };
    let last = schedule.last().map_or(0, |s| Cycle::from(s.0));
    let mut now: Cycle = 0;
    while next < schedule.len() || queued > 0 || net.in_flight() > 0 {
        if now > last + 100_000 {
            return Err(format!("fabric did not drain: {} flits in flight", net.in_flight()));
        }
        while let Some(&(at, src, dest)) = schedule.get(next) {
            if Cycle::from(at) > now {
                break;
            }
            let dest = topo.coord_of(NodeId::new(dest));
            queues[src as usize].push_back(Flit::message(dest, src as u8, 0, 0, at));
            queued += 1;
            next += 1;
        }
        if queued > 0 {
            for (src, q) in queues.iter_mut().enumerate() {
                if let Some(flit) = q.pop_front() {
                    d.attempts += 1;
                    match net.try_inject(NodeId::new(src as u16), flit, now) {
                        Ok(()) => queued -= 1,
                        Err(back) => {
                            d.refused += 1;
                            q.push_front(back);
                        }
                    }
                }
            }
        }
        match meter.as_deref_mut() {
            Some(m) => {
                while m.next_sample() <= now {
                    m.commit_window();
                }
                net.tick_metered(now, &mut NullSink, m);
            }
            None => net.tick(now),
        }
        if net.in_flight() > 0 {
            for node in 0..nodes {
                while net.eject(NodeId::new(node as u16)).is_some() {
                    if window.contains(&now) {
                        d.measured_delivered += 1;
                    }
                }
            }
        }
        now += 1;
    }
    d.cycles = now;
    Ok(d)
}
