//! Component drivers: each layer's public functions timed outside the
//! cycle engine, with inputs shaped like one workload's traced counts.
//! Multiplying a driver's ns/op by the workload's op count gives an
//! outside-in estimate of that layer's share of engine time.

use crate::host;
use crate::spans::Spans;
use crate::workloads::{drive_fabric, uniform_schedule, Counters};
use medea_cache::{CacheConfig, CachePolicy, SetAssocCache, StoreOutcome, LINE_BYTES};
use medea_mem::{Mpmmu, MpmmuConfig};
use medea_noc::codec::FlitCodec;
use medea_noc::coord::{Coord, Topology};
use medea_noc::flit::{burst_code, Flit, PacketKind, SubKind};
use medea_noc::network::Network;
use medea_sim::coroutine::{Fetched, KernelHost};
use medea_sim::ids::NodeId;
use medea_sim::rng::SplitMix64;
use medea_sim::Cycle;
use std::time::{Duration, Instant};

/// Per-operation host costs measured by the drivers, in ns.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// One `KernelHost` fetch/reply round trip, engine and kernel thread
    /// on the same CPU.
    pub handoff_ns: f64,
    /// The same round trip with the kernel thread on another CPU.
    pub handoff_ns_cross_core: f64,
    /// `try_inject`/`tick`/`eject` cost per flit-cycle at the workload's
    /// offered load on its torus.
    pub ns_per_flit_cycle: f64,
    /// Refused injections / attempts in that same driver run.
    pub refusal_frac: f64,
    /// One `FlitCodec` encode plus decode.
    pub codec_ns: f64,
    /// One MPMMU transaction through `handle_incoming`/`tick`/
    /// `pop_outgoing`, in the workload's read/write/lock mix.
    pub mem_ns_per_txn: f64,
    /// One L1 `load_word`/`store_word`, with `fill_line` on a miss, at the
    /// workload's miss rate.
    pub cache_ns_per_access: f64,
}

/// Run every driver for a workload with `counters` on `topo`. Each driver
/// repeats batches for `budget` (at least three) and reports the median
/// batch's ns/op; every batch is a span.
///
/// # Errors
///
/// A driver whose component misbehaved (a codec round trip that does not
/// match, a bank transaction that never completes).
pub fn measure(
    spans: &mut Spans,
    workload: &str,
    topo: Topology,
    counters: &Counters,
    budget: Duration,
    cpus: &[usize],
    seed: u64,
) -> Result<Costs, String> {
    let engine_cpu = cpus.first().copied();
    let other_cpu = cpus.get(1).copied().or(engine_cpu);
    let handoff_ns = timed(spans, "sim.handoff", workload, budget, |_| {
        Ok(handoff(engine_cpu, engine_cpu, 5_000))
    })?;
    let handoff_ns_cross_core = timed(spans, "sim.handoff_cross_core", workload, budget, |_| {
        Ok(handoff(engine_cpu, other_cpu, 5_000))
    })?;

    let load = (counters.flits_delivered as f64
        / (counters.cycles.max(1) as f64 * topo.nodes() as f64))
        .clamp(1e-4, 1.0);
    let mut refusals = Vec::new();
    let ns_per_flit_cycle = timed(spans, "noc.driver", workload, budget, |batch| {
        let (ops, t, refusal) = noc_batch(topo, load, seed ^ batch)?;
        refusals.push(refusal);
        Ok((ops, t))
    })?;
    let codec_flits = codec_inputs(topo, seed, 4096);
    let codec_ns =
        timed(spans, "noc.codec", workload, budget, |_| codec_batch(topo, &codec_flits, 64))?;

    let mix = MemMix::of(counters);
    let mut bank = MemBench::new(counters.nodes.max(2));
    let mem_ns_per_txn = timed(spans, "mem.driver", workload, budget, |batch| {
        bank.batch(&mix, seed ^ batch, 20_000)
    })?;

    let accesses = cache_inputs(counters, seed, 50_000);
    let cache_ns_per_access =
        timed(spans, "cache.driver", workload, budget, |_| Ok(cache_batch(&accesses, 10)))?;

    Ok(Costs {
        handoff_ns,
        handoff_ns_cross_core,
        ns_per_flit_cycle,
        refusal_frac: crate::stats::median(&refusals),
        codec_ns,
        mem_ns_per_txn,
        cache_ns_per_access,
    })
}

/// Repeat `batch` (given its index; returning ops done and time taken)
/// until `budget` is spent, at least three times; median ns per op.
fn timed(
    spans: &mut Spans,
    name: &str,
    workload: &str,
    budget: Duration,
    mut batch: impl FnMut(u64) -> Result<(u64, Duration), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || start.elapsed() < budget {
        let i = per_op.len() as u64;
        let (ops, t) = spans.record(name, workload, |_| batch(i))?;
        per_op.push(t.as_secs_f64() * 1e9 / ops.max(1) as f64);
    }
    Ok(crate::stats::median(&per_op))
}

/// `iters` fetch/reply round trips with the engine side on `engine_cpu`
/// and the kernel thread on `kernel_cpu`.
fn handoff(engine_cpu: Option<usize>, kernel_cpu: Option<usize>, iters: u64) -> (u64, Duration) {
    let pin = |cpu: Option<usize>| {
        if let Some(c) = cpu {
            // Unpinned timing is still a measurement; the report records
            // the affinity the workload process actually got.
            let _ = host::pin_current_thread(&[c]);
        }
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            pin(engine_cpu);
            let mut kernel: KernelHost<u64, u64> = KernelHost::spawn("handoff", move |port| {
                pin(kernel_cpu);
                for i in 0..=iters {
                    if port.call(i).is_err() {
                        return;
                    }
                }
            });
            // The first request includes thread start-up: answer it untimed.
            if let Fetched::Request(v) = kernel.fetch() {
                kernel.reply(v + 1);
            }
            let t = Instant::now();
            let mut n = 0;
            while let Fetched::Request(v) = kernel.fetch() {
                kernel.reply(v + 1);
                n += 1;
            }
            let elapsed = t.elapsed();
            kernel.join();
            (n, elapsed)
        })
        .join()
        .expect("handoff driver thread")
    })
}

/// Uniform traffic at `load` on a fresh fabric, sized to ~20k flits;
/// returns (flit-cycles carried, time, refusal fraction).
fn noc_batch(topo: Topology, load: f64, seed: u64) -> Result<(u64, Duration, f64), String> {
    let cycles = (20_000.0 / (load * topo.nodes() as f64)).clamp(500.0, 20_000.0) as Cycle;
    let schedule = uniform_schedule(topo, load, cycles, seed);
    let mut net = Network::new(topo);
    let t = Instant::now();
    let d = drive_fabric(&mut net, topo, &schedule, 0..cycles, None)?;
    let elapsed = t.elapsed();
    use medea_noc::Fabric as _;
    let flit_cycles = net.stats().latency.summary().sum();
    Ok((flit_cycles, elapsed, d.refused as f64 / d.attempts.max(1) as f64))
}

/// Message and request flits with source ids valid on `topo`.
fn codec_inputs(topo: Topology, seed: u64, n: usize) -> Vec<Flit> {
    let mut rng = SplitMix64::new(seed);
    let nodes = topo.nodes() as u64;
    (0..n)
        .map(|_| {
            let dest = topo.coord_of(NodeId::new(rng.next_below(nodes) as u16));
            let src = rng.next_below(nodes) as u8;
            let data = rng.next_u64() as u32;
            if rng.chance(0.5) {
                Flit::message(dest, src, rng.next_below(4) as u8, burst_code(4), data)
            } else {
                Flit::request(dest, PacketKind::SingleRead, src, data & !3)
            }
        })
        .collect()
}

/// `passes` encode+decode round trips over `flits`.
fn codec_batch(topo: Topology, flits: &[Flit], passes: usize) -> Result<(u64, Duration), String> {
    let codec = FlitCodec::new(topo);
    let t = Instant::now();
    let mut acc = 0u64;
    for f in (0..passes).flat_map(|_| flits) {
        let word = codec.encode(std::hint::black_box(f));
        let back = codec.decode(word).map_err(|e| format!("codec: {e}"))?;
        acc ^= back.payload() as u64;
        if codec.encode(&back) != word {
            return Err(format!("codec: {f:?} does not round-trip"));
        }
    }
    let elapsed = t.elapsed();
    std::hint::black_box(acc);
    Ok(((passes * flits.len()) as u64, elapsed))
}

#[derive(Debug, Clone, Copy)]
enum Txn {
    SingleRead,
    BlockRead,
    SingleWrite,
    BlockWrite,
    /// Lock then unlock by the same node: two transactions.
    LockPair,
    /// Lock attempt on a word another node holds: Nack'd.
    LockNack,
}

/// Transaction weights in the workload's proportions (all reads when it
/// has no memory traffic), plus its MPMMU-cache hit rate.
struct MemMix {
    weights: [(Txn, u64); 6],
    hit_rate: f64,
}

impl MemMix {
    fn of(c: &Counters) -> MemMix {
        let m = &c.mem;
        let mut weights = [
            (Txn::SingleRead, m.single_reads.get()),
            (Txn::BlockRead, m.block_reads.get()),
            (Txn::SingleWrite, m.single_writes.get()),
            (Txn::BlockWrite, m.block_writes.get()),
            (Txn::LockPair, m.locks_granted.get()),
            (Txn::LockNack, m.lock_nacks.get()),
        ];
        if weights.iter().all(|w| w.1 == 0) {
            weights[0].1 = 1;
        }
        MemMix { weights, hit_rate: 1.0 - c.mpmmu_cache.miss_rate().unwrap_or(0.0) }
    }

    fn pick(&self, rng: &mut SplitMix64) -> Txn {
        let total: u64 = self.weights.iter().map(|w| w.1).sum();
        let mut x = rng.next_below(total);
        for &(t, w) in &self.weights {
            if x < w {
                return t;
            }
            x -= w;
        }
        unreachable!("x < total")
    }
}

/// One MPMMU bank driven directly, as `crates/mem/tests/properties.rs`
/// drives it.
struct MemBench {
    bank: Mpmmu,
    now: Cycle,
}

/// The word node 1 keeps locked so that other nodes' attempts are Nack'd;
/// above every address a batch draws.
const HELD_LOCK: u32 = (1 << 20) - 16;

impl MemBench {
    fn new(procs: usize) -> MemBench {
        let cfg = MpmmuConfig::new(procs, 1 << 20);
        let mut b =
            MemBench { bank: Mpmmu::new(Topology::paper_4x4(), NodeId::new(0), cfg), now: 0 };
        b.txn(PacketKind::Lock, 1, HELD_LOCK, &[]).expect("the held lock is granted");
        b
    }

    /// `n` transactions drawn from `mix`; returns (transactions, time).
    fn batch(&mut self, mix: &MemMix, seed: u64, n: usize) -> Result<(u64, Duration), String> {
        let mut rng = SplitMix64::new(seed);
        let plan: Vec<(Txn, u32)> = (0..n)
            .map(|_| {
                // Hits come from a 4 kB hot region the bank cache holds.
                let span = if rng.chance(mix.hit_rate) { 4 << 10 } else { 1 << 19 };
                (mix.pick(&mut rng), rng.next_below(span / 16) as u32 * 16)
            })
            .collect();
        let t = Instant::now();
        let mut txns = 0;
        for (i, &(kind, addr)) in plan.iter().enumerate() {
            let src = 2 + (i % 8) as u8;
            txns += match kind {
                Txn::SingleRead => self.txn(PacketKind::SingleRead, src, addr, &[]).map(|_| 1),
                Txn::BlockRead => self.txn(PacketKind::BlockRead, src, addr, &[]).map(|_| 1),
                Txn::SingleWrite => self.txn(PacketKind::SingleWrite, src, addr, &[7]).map(|_| 1),
                Txn::BlockWrite => {
                    self.txn(PacketKind::BlockWrite, src, addr, &[1, 2, 3, 4]).map(|_| 1)
                }
                Txn::LockPair => {
                    self.txn(PacketKind::Lock, src, addr, &[])?;
                    self.txn(PacketKind::Unlock, src, addr, &[]).map(|_| 2)
                }
                Txn::LockNack => match self.txn(PacketKind::Lock, src, HELD_LOCK, &[]) {
                    Err(e) if e == "nack" => Ok(1),
                    Err(e) => Err(e),
                    Ok(()) => Err("mem: a held lock was granted twice".into()),
                },
            }?;
        }
        Ok((txns, t.elapsed()))
    }

    /// One transaction from `src`, streaming `data` after the write grant.
    /// `Err("nack")` when the bank refuses a lock.
    fn txn(&mut self, kind: PacketKind, src: u8, addr: u32, data: &[u32]) -> Result<(), String> {
        let home = Coord::new(0, 0);
        self.bank
            .handle_incoming(Flit::request(home, kind, src, addr))
            .map_err(|_| "mem: request FIFO full")?;
        let want_data = match kind {
            PacketKind::SingleRead => 1,
            PacketKind::BlockRead => 4,
            _ => 0,
        };
        let (mut got, mut granted) = (0, false);
        for _ in 0..10_000 {
            self.bank.tick(self.now);
            self.now += 1;
            while let Some(f) = self.bank.pop_outgoing() {
                match f.sub() {
                    SubKind::Data => {
                        got += 1;
                        if got == want_data {
                            return Ok(());
                        }
                    }
                    SubKind::Nack => return Err("nack".into()),
                    SubKind::Ack if !data.is_empty() && !granted => {
                        granted = true;
                        let burst = if data.len() > 1 { burst_code(data.len()) } else { 0 };
                        for (i, &w) in data.iter().enumerate() {
                            let d = Flit::new(home, kind, SubKind::Data, i as u8, burst, src, w);
                            self.bank.handle_incoming(d).map_err(|_| "mem: data FIFO full")?;
                        }
                    }
                    SubKind::Ack => return Ok(()),
                    SubKind::Request => return Err("mem: bank emitted a request".into()),
                }
            }
        }
        Err(format!("mem: {kind:?} at {addr:#x} did not complete"))
    }
}

/// An L1 access stream at the workload's load/store mix and miss rate
/// (a common default when it made no L1 accesses): misses stream through
/// fresh lines, hits reuse a set of lines a quarter of the cache's size.
fn cache_inputs(c: &Counters, seed: u64, n: usize) -> Vec<(u32, bool)> {
    let l1 = &c.l1;
    let loads = l1.load_hits.get() + l1.load_misses.get();
    let stores = l1.store_hits.get() + l1.store_misses.get();
    let (store_frac, miss_rate) = if loads + stores == 0 {
        (0.3, 0.05)
    } else {
        (stores as f64 / (loads + stores) as f64, l1.miss_rate().unwrap_or(0.0))
    };
    let hot_lines = (crate::workloads::CACHE_BYTES / 16 / 4) as u64;
    let mut rng = SplitMix64::new(seed);
    let mut fresh = 0u32;
    (0..n)
        .map(|_| {
            let addr = if rng.chance(miss_rate) {
                fresh += 1;
                (1 << 24) + fresh * 16
            } else {
                rng.next_below(hot_lines * 4) as u32 * 4
            };
            (addr, rng.chance(store_frac))
        })
        .collect()
}

/// `passes` over `accesses` on a fresh cache. The miss stream's lines are
/// long evicted when a pass repeats them, so every pass keeps the mix.
fn cache_batch(accesses: &[(u32, bool)], passes: usize) -> (u64, Duration) {
    let cfg = CacheConfig::new(crate::workloads::CACHE_BYTES, CachePolicy::WriteBack)
        .expect("16 kB write-back is a valid geometry");
    let mut cache = SetAssocCache::new(cfg);
    let t = Instant::now();
    for &(addr, store) in (0..passes).flat_map(|_| accesses) {
        let line = addr & !(LINE_BYTES as u32 - 1);
        if store {
            if cache.store_word(addr, addr) == StoreOutcome::NeedsAllocate {
                std::hint::black_box(cache.evict_for(line));
                cache.fill_line(line, [0; 4]);
                cache.store_word(addr, addr);
            }
        } else if cache.load_word(addr).is_none() {
            std::hint::black_box(cache.evict_for(line));
            cache.fill_line(line, [0; 4]);
            std::hint::black_box(cache.load_word(addr));
        }
    }
    ((passes * accesses.len()) as u64, t.elapsed())
}
