//! The metric catalogue (names, units, direction, regression bounds) and
//! the per-layer metrics computed from one traced run. `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps them equal.

use crate::drivers::Costs;
use crate::workloads::{mem_txns, Counters};
use medea_core::PeActivity;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The host-time bounds are wide because the shared 2-vCPU host the
/// benchmark was calibrated on runs 10-40% slower for tens of seconds at
/// a time; see `README.md`.
pub const END_TO_END: [EndToEnd; 5] = [
    // Simulated cycles per engine second (`RunResult.cycles / wall`).
    EndToEnd { name: "sim_cps", unit: "cycles/s", better: Better::Higher, bound: 0.25 },
    // Host seconds per rep for the whole call: prepare, run, teardown.
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Median of the no-op runs: config build, preload, thread spawn/join.
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // The workload process's VmHWM after a fixed sequence of runs.
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    // The modelled machine's time. Exact for a given seed; the bound only
    // absorbs the seeded workloads' seed-to-seed variation.
    EndToEnd { name: "sim_cycles", unit: "cycles", better: Better::Lower, bound: 0.02 },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics of the traced run, `(name, unit)`, in report order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.engine_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.accounted_frac", "ratio"),
    ("core.tiled_speedup", "ratio"),
    ("sim.handoff_ns", "ns"),
    ("sim.handoff_ns_cross_core", "ns"),
    ("sim.rendezvous_share", "ratio"),
    ("pe.requests", "count"),
    ("pe.ns_per_request", "ns"),
    ("pe.packets_sent", "count"),
    ("pe.packets_received", "count"),
    ("pe.attr.compute", "ratio"),
    ("pe.attr.mem", "ratio"),
    ("pe.attr.lock_wait", "ratio"),
    ("pe.attr.send", "ratio"),
    ("pe.attr.recv_wait", "ratio"),
    ("pe.attr.collective_wait", "ratio"),
    ("pe.attr.done", "ratio"),
    ("pe.retries", "count"),
    ("noc.flits_delivered", "count"),
    ("noc.flit_cycles", "count"),
    ("noc.deflections_per_flit", "ratio"),
    ("noc.latency_p50", "cycles"),
    ("noc.latency_p99", "cycles"),
    ("noc.latency_max", "cycles"),
    ("noc.peak_link_busy", "ratio"),
    ("noc.ns_per_flit_cycle", "ns"),
    ("noc.codec_ns", "ns"),
    ("noc.share", "ratio"),
    ("noc.accepted_throughput", "flits/node/cycle"),
    ("noc.refusal_frac", "ratio"),
    ("mem.txns", "count"),
    ("mem.read_frac", "ratio"),
    ("mem.lock_grants", "count"),
    ("mem.lock_nack_ratio", "ratio"),
    ("mem.busy_frac", "ratio"),
    ("mem.hot_bank_share", "ratio"),
    ("mem.req_fifo_peak", "count"),
    ("mem.cache_hit_rate", "ratio"),
    ("mem.ns_per_txn", "ns"),
    ("mem.share", "ratio"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_miss_rate", "ratio"),
    ("cache.ns_per_access", "ns"),
    ("cache.share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// What the per-layer computation reads from one traced workload run.
pub struct Traced<'a> {
    /// Engine seconds of the untraced rep (the drivers' costs are
    /// untraced too).
    pub engine_s: f64,
    /// Engine seconds of the metered rep.
    pub metered_engine_s: f64,
    /// Engine seconds of the sequential engine on the same workload, for
    /// the tiled workload.
    pub sequential_engine_s: Option<f64>,
    /// Counters of the metered rep (identical to the untraced rep's).
    pub counters: &'a Counters,
    pub costs: Costs,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every [`PER_LAYER`] metric's value, in catalogue order. Layers a
/// workload does not use report 0 counts and 0 shares.
pub fn per_layer(t: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let c = t.counters;
    let k = &t.costs;
    let engine_ns = t.engine_s * 1e9;
    let m = &c.mem;
    let txns = mem_txns(m) as f64;
    let reads = (m.single_reads.get() + m.block_reads.get()) as f64;
    let locks = (m.locks_granted.get() + m.lock_nacks.get()) as f64;
    let l1_accesses = (c.l1.load_hits.get()
        + c.l1.load_misses.get()
        + c.l1.store_hits.get()
        + c.l1.store_misses.get()) as f64;
    let banks = c.bank_txns.len() as f64;
    let hot_bank = c.bank_txns.iter().copied().max().unwrap_or(0) as f64;
    let requests = c.requests as f64;
    let events = c.flits_delivered as f64 + requests + txns;

    let rendezvous_share = ratio(requests * k.handoff_ns, engine_ns);
    let noc_share = ratio(c.flit_cycles as f64 * k.ns_per_flit_cycle, engine_ns);
    let mem_share = ratio(txns * k.mem_ns_per_txn, engine_ns);
    let cache_share = ratio(l1_accesses * k.cache_ns_per_access, engine_ns);
    let attr = c.attr.unwrap_or_default();
    let share = |a: PeActivity| attr[a.index()];

    let values = [
        t.engine_s,
        ratio(engine_ns, events),
        rendezvous_share + noc_share + mem_share + cache_share,
        t.sequential_engine_s.map_or(1.0, |seq| ratio(seq, t.engine_s)),
        k.handoff_ns,
        k.handoff_ns_cross_core,
        rendezvous_share,
        requests,
        ratio(engine_ns, requests),
        c.packets_sent as f64,
        c.packets_received as f64,
        share(PeActivity::Compute),
        share(PeActivity::Mem),
        share(PeActivity::LockWait),
        share(PeActivity::Send),
        share(PeActivity::RecvWait),
        share(PeActivity::CollectiveWait),
        share(PeActivity::Done),
        c.retries as f64,
        c.flits_delivered as f64,
        c.flit_cycles as f64,
        ratio(c.deflections as f64, c.flits_delivered as f64),
        c.latency_p50 as f64,
        c.latency_p99 as f64,
        c.latency_max as f64,
        c.peak_link_busy.unwrap_or(0.0),
        k.ns_per_flit_cycle,
        k.codec_ns,
        noc_share,
        c.accepted,
        c.refusal_frac.unwrap_or(k.refusal_frac),
        txns,
        ratio(reads, txns),
        m.locks_granted.get() as f64,
        ratio(m.lock_nacks.get() as f64, locks),
        ratio(m.busy_cycles.get() as f64, c.cycles as f64 * banks),
        ratio(hot_bank, txns),
        c.req_fifo_peak.unwrap_or(0) as f64,
        c.mpmmu_cache.miss_rate().map_or(0.0, |miss| 1.0 - miss),
        k.mem_ns_per_txn,
        mem_share,
        l1_accesses,
        c.l1.miss_rate().unwrap_or(0.0),
        k.cache_ns_per_access,
        cache_share,
        ratio(t.metered_engine_s, t.engine_s),
    ];
    PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` names exactly this catalogue, with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = spec.get("end_to_end").map(Json::as_arr).unwrap_or_default();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = spec.get("per_layer").map(Json::as_arr).unwrap_or_default();
        let listed: Vec<(&str, &str)> = layers
            .iter()
            .map(|j| {
                (
                    j.get("name").and_then(Json::as_str).unwrap_or_default(),
                    j.get("unit").and_then(Json::as_str).unwrap_or_default(),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
        let workloads: Vec<&str> = spec
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let kinds: Vec<&str> = crate::workloads::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);
    }
}
