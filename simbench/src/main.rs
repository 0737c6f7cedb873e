//! The repository benchmark: end-to-end simulator metrics over six pinned
//! workloads, and an outside-in per-layer trace. See `README.md`.

mod drivers;
mod host;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{Better, Traced, END_TO_END};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Kind, Rep, Workload};

const USAGE: &str = "\
usage: simbench [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       simbench traced [same options]          (run --trace 1)
       simbench compare A.json B.json
       simbench run-one NAME [options]         (one workload; used by run)
workloads: jacobi_mp jacobi_sm hotspot_16x16 pingpong noc_uniform jacobi_mp_tiled";

/// No-op runs behind `setup_s`.
const SETUP_RUNS: usize = 21;
/// Measured reps a run makes even when one rep outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// `peak_rss_mb` is read after this many measured reps, so it does not
/// depend on how many reps fit in the run.
const RSS_AFTER_REPS: usize = 2;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Opts {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            kinds: Vec::new(),
            seed: 1,
            seconds: f64::NAN,
            trace: false,
            smoke: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.kinds
                        .push(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
                }
                "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !o.seconds.is_finite() || o.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--smoke" => o.smoke = true,
                "--out" => o.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if o.kinds.is_empty() {
            o.kinds = Kind::ALL.to_vec();
        }
        if o.seconds.is_nan() {
            o.seconds = if o.smoke { 0.5 } else { 10.0 };
        }
        Ok(o)
    }

    /// The flags a `run-one` child needs to repeat this run.
    fn child_args(&self) -> Vec<String> {
        let mut a = vec![
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            a.push("--smoke".into());
        }
        a
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("run-one") => {
            let kind = args.get(1).and_then(|n| Kind::parse(n)).ok_or("run-one needs a workload");
            kind.map_err(String::from).and_then(|k| {
                let o = Opts::parse(&args[2..])?;
                Ok(child(Workload { kind: k, smoke: o.smoke, seed: o.seed }, &o))
            })
        }
        Some("traced") => Opts::parse(&args[1..]).and_then(|o| parent(Opts { trace: true, ..o })),
        Some("run") => Opts::parse(&args[1..]).and_then(parent),
        _ => Opts::parse(&args).and_then(parent),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---- child: one workload in its own pinned process ----

/// Measure one workload and print its report as one JSON line. Runs in
/// its own process so its peak RSS is its own.
fn child(w: Workload, o: &Opts) -> ExitCode {
    let allowed = host::allowed_cpus();
    let affinity = host::pin_first(w.kind.host_threads());
    let report = if o.trace { traced(w, o, &allowed) } else { timed(w, o) };
    let report = report
        .with("workload", w.name())
        .with("seed", w.seed)
        .with("smoke", w.smoke)
        .with("affinity", affinity)
        .with("allowed_cpus", allowed);
    println!("{report}");
    ExitCode::SUCCESS
}

/// Reps, their failures, and the rule every rep must meet: the same
/// simulated behaviour as the reference (the first good rep, or for the
/// tiled workload the sequential engine's).
struct Checked {
    attempted: u64,
    failures: Vec<String>,
    reference: Option<workloads::Fingerprint>,
}

impl Checked {
    fn new() -> Checked {
        Checked { attempted: 0, failures: Vec::new(), reference: None }
    }

    /// Count a rep whose simulated behaviour is not compared (a
    /// validating run ships the grid back, which costs cycles).
    fn ran(&mut self, what: &str, rep: Result<Rep, String>) {
        self.attempted += 1;
        if let Err(e) = rep {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn take(&mut self, what: &str, rep: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let rep = rep.and_then(|r| {
            let fp = r.counters.fingerprint();
            match &self.reference {
                Some(want) if *want != fp => {
                    Err(format!("simulated counters {fp:?} differ from the reference {want:?}"))
                }
                Some(_) => Ok(r),
                None => {
                    self.reference = Some(fp);
                    Ok(r)
                }
            }
        });
        rep.map_err(|e| self.failures.push(format!("{what}: {e}"))).ok()
    }

    fn into_json(self) -> Json {
        Json::obj()
            .with("attempted", self.attempted)
            .with("failed", self.failures.len())
            .with("failures", self.failures)
    }
}

/// The tiled workload on the sequential engine, pinned to one CPU as the
/// sequential workloads are (the tiled workload's process holds two).
fn sequential_rep(w: Workload, spans: &mut Spans) -> Result<Rep, String> {
    let cpus = host::allowed_cpus();
    let _ = host::pin_current_thread(&cpus[..cpus.len().min(1)]);
    let rep = w.rep(spans, None, false, 1);
    let _ = host::pin_current_thread(&cpus);
    rep
}

/// The end-to-end run: set-up measurement, one discarded warm-up rep,
/// then closed-loop reps (the next starts when the previous returns) for
/// `--seconds`.
fn timed(w: Workload, o: &Opts) -> Json {
    let threads = w.kind.host_threads();
    let mut spans = Spans::new();
    let setup: Vec<f64> = (0..SETUP_RUNS).map(|_| w.setup_once().as_secs_f64()).collect();
    let mut checked = Checked::new();
    if threads > 1 {
        checked.take("sequential reference", sequential_rep(w, &mut spans));
    }
    checked.take("warm-up", w.rep(&mut spans, None, false, threads));

    let mut reps: Vec<Rep> = Vec::new();
    let mut rss = None;
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut measured = 0;
    while measured < MIN_REPS || start.elapsed() + last <= budget {
        let t = Instant::now();
        let rep = w.rep(&mut spans, None, false, threads);
        last = t.elapsed();
        measured += 1;
        reps.extend(checked.take(&format!("rep {measured}"), rep));
        if measured == RSS_AFTER_REPS {
            rss = Some(host::peak_rss_mb());
        }
    }
    let rss = rss.unwrap_or_else(host::peak_rss_mb);

    let samples = [
        ("sim_cps", reps.iter().map(|r| r.counters.cycles as f64 / r.engine_s).collect()),
        ("wall_s", reps.iter().map(|r| r.wall_s).collect()),
        ("setup_s", setup),
        ("peak_rss_mb", vec![rss]),
        ("sim_cycles", reps.iter().map(|r| r.counters.cycles as f64).collect::<Vec<f64>>()),
    ];
    let mut metrics = Json::obj();
    let mut raw = Json::obj();
    for (name, xs) in samples {
        let def = metrics::end_to_end(name).expect("catalogued metric");
        let (q1, q3) = stats::quartiles(&xs);
        metrics.set(
            name,
            Json::obj()
                .with("value", stats::median(&xs))
                .with("unit", def.unit)
                .with("q1", q1)
                .with("q3", q3)
                .with("n", xs.len()),
        );
        raw.set(name, xs);
    }
    checked.into_json().with("metrics", metrics).with("samples", raw).with(
        "tail",
        format!(
            "{} measured reps: no percentile above the median has ten samples beyond it, \
             so timings are reported as median and quartiles only",
            reps.len()
        ),
    )
}

/// The traced run: a warm-up rep (for Jacobi, validated against the
/// sequential reference), two untraced/metered pairs, the sequential
/// engine (tiled workload) and the component drivers; every call into a
/// layer is a span.
fn traced(w: Workload, o: &Opts, allowed: &[usize]) -> Json {
    let name = w.name();
    let threads = w.kind.host_threads();
    let validate = matches!(w.kind, Kind::JacobiMp | Kind::JacobiSm | Kind::JacobiMpTiled);
    let budget = Duration::from_secs_f64((o.seconds / 40.0).clamp(0.02, 0.5));
    let mut spans = Spans::new();
    let mut checked = Checked::new();
    let layers = spans.record("workload", name, |s| {
        checked.ran("warm-up", s.record("rep.warmup", name, |s| w.rep(s, None, validate, threads)));
        let (mut plain, mut metered) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let rep = s.record("rep.untraced", name, |s| w.rep(s, None, false, threads));
            plain.push(checked.take("untraced", rep)?);
            let interval = (plain[0].counters.cycles / 200).max(64);
            let rep = s.record("rep.metered", name, |s| w.rep(s, Some(interval), false, threads));
            metered.push(checked.take("metered", rep)?);
        }
        let engine_s =
            |reps: &[Rep]| stats::median(&reps.iter().map(|r| r.engine_s).collect::<Vec<_>>());
        let sequential = if threads > 1 {
            let seq = s.record("rep.sequential", name, |s| sequential_rep(w, s));
            Some(checked.take("sequential", seq)?.engine_s)
        } else {
            None
        };
        let counters = &metered[0].counters;
        let costs = drivers::measure(s, name, w.topology(), counters, budget, allowed, w.seed)
            .map_err(|e| checked.failures.push(e))
            .ok()?;
        Some(metrics::per_layer(&Traced {
            engine_s: engine_s(&plain),
            metered_engine_s: engine_s(&metered),
            sequential_engine_s: sequential,
            counters,
            costs,
        }))
    });
    let mut metrics = Json::obj();
    for (metric, value, unit) in layers.unwrap_or_default() {
        metrics.set(metric, Json::obj().with("value", value).with("unit", unit));
    }
    let mut self_us = Json::obj();
    for (span, us) in spans.self_time_by_name() {
        self_us.set(&span, us);
    }
    checked
        .into_json()
        .with("metrics", metrics)
        .with("self_time_us", self_us)
        .with("spans", spans.to_json())
}

// ---- parent: one child per workload, then the reports ----

fn parent(o: Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let t0 = Instant::now();
    let mut reports = Vec::new();
    let mut span_groups = Vec::new();
    for &kind in &o.kinds {
        let offset_us = t0.elapsed().as_secs_f64() * 1e6;
        let out = Command::new(&exe)
            .arg("run-one")
            .arg(kind.name())
            .args(o.child_args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {} run: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = stdout
            .lines()
            .last()
            .filter(|_| out.status.success())
            .and_then(|l| Json::parse(l).ok())
            .ok_or_else(|| format!("the {} run failed ({})", kind.name(), out.status))?;
        span_groups.push((offset_us, Spans::from_json(report.get("spans").unwrap_or(&Json::Null))));
        print_report(&report, o.trace);
        reports.push(report);
    }

    let last = summary(&reports, o.kinds.len() == 1);
    let set = Json::obj()
        .with("schema", "medea-simbench/1")
        .with("mode", if o.trace { "traced" } else { "run" })
        .with("provenance", provenance(&o))
        .with("workloads", reports);
    if o.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join("spans.json");
        std::fs::write(&path, spans::chrome_trace(&span_groups).to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("simbench: spans written to {}", path.display());
    }
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{set}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{set}");
    println!("{last}");
    Ok(ExitCode::SUCCESS)
}

fn provenance(o: &Opts) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj()
        .with("nproc", host::nproc())
        .with("allowed_cpus", host::allowed_cpus())
        .with("rustc", host::rustc_version())
        .with("git_head", host::git_head(&repo))
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("smoke", o.smoke)
}

/// The last line of output: `{"correct", "attempted", "failed",
/// "metrics"}`. Metric names carry a `workload.` prefix when the run
/// covered several workloads.
fn summary(reports: &[Json], single: bool) -> Json {
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let attempted: u64 = reports.iter().map(|r| num(r, "attempted")).sum();
    let failed: u64 = reports.iter().map(|r| num(r, "failed")).sum();
    let mut metrics = Json::obj();
    for r in reports {
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or_default();
        for (name, m) in r.get("metrics").map(Json::fields).unwrap_or_default() {
            let key = if single { name.clone() } else { format!("{workload}.{name}") };
            let value = m.get("value").cloned().unwrap_or(Json::Null);
            let unit = m.get("unit").cloned().unwrap_or(Json::Null);
            metrics.set(&key, Json::obj().with("value", value).with("unit", unit));
        }
    }
    Json::obj()
        .with("correct", failed == 0 && attempted > 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics)
}

fn print_report(r: &Json, traced: bool) {
    let s = |k: &str| r.get(k).map(|v| v.to_string()).unwrap_or_default();
    println!(
        "== {} seed={} affinity={} attempted={} failed={}",
        r.get("workload").and_then(Json::as_str).unwrap_or("?"),
        s("seed"),
        s("affinity"),
        s("attempted"),
        s("failed")
    );
    for f in r.get("failures").map(Json::as_arr).unwrap_or_default() {
        println!("   FAILED {}", f.as_str().unwrap_or_default());
    }
    for (name, m) in r.get("metrics").map(Json::fields).unwrap_or_default() {
        let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
        if traced {
            println!("   {name:<28} {:>16.6} {unit}", f("value"));
        } else {
            println!(
                "   {name:<12} {:>16.6} {unit:<8} q1 {:.6}  q3 {:.6}  n={}",
                f("value"),
                f("q1"),
                f("q3"),
                f("n")
            );
        }
    }
    if let Some(note) = r.get("tail").and_then(Json::as_str) {
        println!("   ({note})");
    }
}

// ---- compare ----

/// Print, for every workload × end-to-end metric in both result sets,
/// each side's median and quartiles and a verdict against the metric's
/// bound: `better` or `worse` when B's median moved by more than the
/// bound, `unresolved` when the spread exceeds the bound and neither
/// side's reps all beat the other's, `same` otherwise.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        Json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let workloads = |s: &Json| s.get("workloads").map(Json::as_arr).unwrap_or_default().to_vec();
    println!(
        "{:<16} {:<12} {:>40} {:>40} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for wa in workloads(&a) {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or_default();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for m in &END_TO_END {
            let samples = |w: &Json| -> Vec<f64> {
                w.get("samples")
                    .and_then(|s| s.get(m.name))
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (xa, xb) = (samples(&wa), samples(&wb));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let fmt = |xs: &[f64]| {
                let (q1, q3) = stats::quartiles(xs);
                format!("{:.6} [{:.6}, {:.6}]", stats::median(xs), q1, q3)
            };
            let (verdict, change) = verdict(m, &xa, &xb);
            println!(
                "{name:<16} {:<12} {:>40} {:>40} {:>+8.2}%  {verdict}",
                m.name,
                fmt(&xa),
                fmt(&xb),
                change * 100.0
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Verdict of B against A for metric `m`, and B's relative change (signed
/// so that positive is better).
fn verdict(m: &metrics::EndToEnd, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let sign = if m.better == Better::Higher { 1.0 } else { -1.0 };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = sign * (mb - ma) / ma.abs();
    let better_all =
        |x: &[f64], y: &[f64]| x.iter().all(|&u| y.iter().all(|&v| sign * (u - v) > 0.0));
    let dominated = better_all(b, a) || better_all(a, b);
    let spread = stats::rel_spread(a).max(stats::rel_spread(b));
    let verdict = if spread > m.bound && !dominated {
        "unresolved"
    } else if change < -m.bound {
        "worse"
    } else if change > m.bound {
        "better"
    } else {
        "same"
    };
    (verdict, change)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at its smoke size, one rep each: the simulated
    /// cycles are pinned, so any change to simulated behaviour (or to the
    /// benchmark's inputs) shows here first.
    #[test]
    fn smoke_sizes_pin_sim_cycles() {
        let pins = [
            (Kind::JacobiMp, 30_181),
            (Kind::JacobiSm, 92_404),
            (Kind::Hotspot16x16, 7_629),
            (Kind::Pingpong, 29_800),
            (Kind::NocUniform, 2_210),
            (Kind::JacobiMpTiled, 30_181),
        ];
        let mut spans = Spans::new();
        for (kind, cycles) in pins {
            let w = Workload { kind, smoke: true, seed: 1 };
            let rep = w
                .rep(&mut spans, None, false, kind.host_threads())
                .expect("smoke rep passes its checks");
            assert_eq!(rep.counters.cycles, cycles, "{}", kind.name());
        }
    }

    #[test]
    fn the_seed_moves_only_the_seeded_workloads() {
        let mut spans = Spans::new();
        for kind in [Kind::Pingpong, Kind::NocUniform, Kind::Hotspot16x16] {
            let mut fp = |seed| {
                Workload { kind, smoke: true, seed }
                    .rep(&mut spans, None, false, 1)
                    .expect("smoke rep")
                    .counters
                    .fingerprint()
            };
            let (one, two) = (fp(1), fp(2));
            let seeded = kind != Kind::Hotspot16x16;
            assert_eq!(one != two, seeded, "{}", kind.name());
        }
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let report = Json::obj()
            .with("workload", "pingpong")
            .with("attempted", 4u64)
            .with("failed", 0u64)
            .with(
                "metrics",
                Json::obj().with(
                    "wall_s",
                    Json::obj().with("value", 1.5).with("unit", "s").with("n", 3u64),
                ),
            );
        let line = summary(&[report], true);
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).expect("metric kept");
        assert_eq!(wall.fields().len(), 2, "only value and unit");
        medea_trace::json::validate(&line.to_string()).expect("valid JSON");
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let m = metrics::end_to_end("wall_s").expect("wall_s");
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(m, &a, &[1.00, 1.01, 0.99, 1.00, 1.01]).0, "same");
        assert_eq!(verdict(m, &a, &[1.30, 1.31, 1.29, 1.32, 1.30]).0, "worse");
        assert_eq!(verdict(m, &a, &[0.90, 0.91, 0.89, 0.90, 0.92]).0, "same");
        assert_eq!(verdict(m, &a, &[0.70, 0.71, 0.69, 0.70, 0.72]).0, "better");
        assert_eq!(verdict(m, &a, &[0.5, 1.5, 1.0, 2.0, 0.7]).0, "unresolved");
    }
}
