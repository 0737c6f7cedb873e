//! The benchmark's own spans: one around every call it makes into a
//! layer (`apps.prepare`, `core.System::run`, each component-driver
//! batch). Spans are kept in memory and written once, at exit, as a
//! Chrome trace (`chrome://tracing`, Perfetto).

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub workload: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: a span opened inside another's
/// closure becomes its child.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span called `name`.
    pub fn record<T>(&mut self, name: &str, workload: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            workload: workload.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Total self time (µs) per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (span, t) in self.spans.iter().zip(self_times(&self.spans)) {
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some(slot) => slot.1 += t,
                None => out.push((span.name.clone(), t)),
            }
        }
        out
    }

    /// The spans as a JSON array (the child → parent hand-off format).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name.as_str())
                        .with("workload", s.workload.as_str())
                        .with("start_us", s.start_us)
                        .with("end_us", s.end_us)
                        .with("parent", s.parent)
                })
                .collect(),
        )
    }

    /// Read spans back from [`Spans::to_json`] output.
    pub fn from_json(v: &Json) -> Vec<Span> {
        v.as_arr()
            .iter()
            .map(|s| Span {
                name: s.get("name").and_then(Json::as_str).unwrap_or_default().to_string(),
                workload: s.get("workload").and_then(Json::as_str).unwrap_or_default().to_string(),
                start_us: s.get("start_us").and_then(Json::as_f64).unwrap_or(0.0),
                end_us: s.get("end_us").and_then(Json::as_f64).unwrap_or(0.0),
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children's union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    (0..spans.len())
        .map(|i| {
            let children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start_us, s.end_us))
                .collect();
            self_time((spans[i].start_us, spans[i].end_us), &children)
        })
        .collect()
}

/// `parent`'s duration minus the union of `children` within it.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(parent.0), b.min(parent.1)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.1 - parent.0 - covered
}

/// Render spans from several workloads as one Chrome trace: one process
/// per workload (`pid`), complete events (`ph: "X"`) with the parent and
/// self time in `args`. `groups` pairs each workload's spans with its
/// start offset (µs) on the common timeline.
pub fn chrome_trace(groups: &[(f64, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (pid, (offset, spans)) in groups.iter().enumerate() {
        if let Some(first) = spans.first() {
            events.push(
                Json::obj()
                    .with("name", "process_name")
                    .with("ph", "M")
                    .with("pid", pid)
                    .with("args", Json::obj().with("name", first.workload.as_str())),
            );
        }
        for (span, self_us) in spans.iter().zip(self_times(spans)) {
            let parent = span.parent.map(|p| spans[p].name.clone());
            events.push(
                Json::obj()
                    .with("name", span.name.as_str())
                    .with("ph", "X")
                    .with("pid", pid)
                    .with("tid", 0u64)
                    .with("ts", offset + span.start_us)
                    .with("dur", span.end_us - span.start_us)
                    .with(
                        "args",
                        Json::obj()
                            .with("workload", span.workload.as_str())
                            .with("parent", parent)
                            .with("self_us", self_us),
                    ),
            );
        }
    }
    Json::obj().with("displayTimeUnit", "ms").with("traceEvents", Json::Arr(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children are clipped to the parent.
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        assert_eq!(self_time((0.0, 4.0), &[(0.0, 4.0)]), 0.0);
    }

    #[test]
    fn nested_spans_link_parents_and_export_valid_chrome_json() {
        let mut s = Spans::new();
        s.record("rep", "w", |s| {
            s.record("apps.prepare", "w", |_| std::hint::black_box(1 + 1));
            s.record("core.System::run", "w", |_| ());
        });
        let spans = Spans::from_json(&s.to_json());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_times(&spans);
        let children =
            (spans[1].end_us - spans[1].start_us) + (spans[2].end_us - spans[2].start_us);
        let rep = spans[0].end_us - spans[0].start_us;
        assert!((selfs[0] - (rep - children)).abs() < 1e-6);

        let back = Spans::from_json(&Json::parse(&s.to_json().to_string()).unwrap());
        assert_eq!(back, spans, "spans survive the child -> parent hand-off");
        let text = chrome_trace(&[(0.0, spans)]).to_string();
        medea_trace::json::validate(&text).expect("valid Chrome trace JSON");
        assert!(text.contains("\"ph\":\"X\""));
    }
}
