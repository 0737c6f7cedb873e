//! Full-system integration tests for the medea-trace subsystem: a mixed
//! workload (messages + cached/uncached shared memory + locks +
//! collectives) traced end-to-end must light up all four event classes,
//! export to syntactically valid Chrome-trace JSON and CSV, and yield
//! sensible analytics — while leaving every architectural observable of
//! the run untouched.

use medea::apps::workloads::trace_mix_kernels;
use medea::core::system::{RunResult, System, Task};
use medea::core::{NullInjector, SystemConfig};
use medea::trace::{
    chrome, csv, json, EventClass, KernelOp, RingSink, TimedEvent, TraceAnalysis, TraceEvent,
};

fn traced_cfg(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

/// The shared every-layer workload (`apps::workloads::trace_mix_kernels`,
/// the same kernels the CI `trace_json --workload mixed` artifact runs),
/// with 3 lock rounds per rank.
fn mixed_kernels(ranks: usize) -> Vec<Task> {
    trace_mix_kernels(ranks, 3)
}

fn run_traced_mixed(pes: usize, capacity: usize) -> (RunResult, RingSink) {
    let mut sink = RingSink::new(capacity);
    let result =
        System::run_with(&traced_cfg(pes), &[], mixed_kernels(pes), &mut sink, &mut NullInjector)
            .expect("run");
    (result, sink)
}

#[test]
fn mixed_workload_emits_all_four_event_classes() {
    let (result, sink) = run_traced_mixed(4, 1 << 20);
    assert_eq!(sink.dropped(), 0, "capacity must hold the whole mixed run");
    let events = sink.to_vec();
    for class in [EventClass::NOC, EventClass::CACHE, EventClass::MEM, EventClass::KERNEL] {
        let n = events.iter().filter(|t| t.event.class().intersects(class)).count();
        assert!(n > 0, "class {class:?} captured no events");
    }
    // Spot-check the cross-layer stories the classes tell.
    assert!(
        events.iter().any(|t| matches!(t.event, TraceEvent::LockContended { .. })),
        "four ranks hammering one lock must contend"
    );
    assert!(
        events
            .iter()
            .any(|t| matches!(t.event, TraceEvent::SpanBegin { op: KernelOp::Allreduce, .. })),
        "eMPI collective spans must be marked"
    );
    assert!(
        events.iter().any(|t| matches!(t.event, TraceEvent::FlitDelivered { .. })),
        "NoC deliveries must be traced"
    );
    // Timestamps are bounded by the run and non-decreasing per capture
    // order is not guaranteed across nodes, but bounds are.
    assert!(events.iter().all(|t| t.at <= result.cycles));
}

#[test]
fn traced_run_matches_untraced_run_bit_for_bit() {
    let (traced, _sink) = run_traced_mixed(4, 1 << 20);
    let untraced = System::run(&traced_cfg(4), &[], mixed_kernels(4)).expect("untraced run");
    assert_eq!(traced.divergence(&untraced), None);
}

#[test]
fn chrome_export_is_valid_and_has_per_node_tracks() {
    let (_, sink) = run_traced_mixed(4, 1 << 20);
    let events = sink.to_vec();
    let doc = chrome::to_chrome_json(&events, |node| format!("node {node}"));
    json::validate(&doc).expect("chrome export must parse");
    // One metadata record per distinct node: 4 PEs + the MPMMU at node 0.
    let tracks = doc.matches("\"thread_name\"").count();
    assert!(tracks >= 5, "expected >=5 node tracks, got {tracks}");
    // Spans arrive as B/E pairs.
    assert!(doc.contains("\"ph\":\"B\"") && doc.contains("\"ph\":\"E\""));
    // The link-occupancy counter series exists.
    assert!(doc.contains("links-busy"));
}

#[test]
fn csv_export_covers_all_classes() {
    let (_, sink) = run_traced_mixed(3, 1 << 20);
    let csv_doc = csv::to_csv(&sink.to_vec());
    let mut lines = csv_doc.lines();
    assert_eq!(lines.next(), Some("cycle,class,event,node,kind,src,addr,value"));
    for needle in [",noc,", ",cache,", ",mem,", ",kernel,"] {
        assert!(csv_doc.contains(needle), "csv missing {needle}");
    }
}

#[test]
fn analysis_reports_contention_and_spans() {
    let (result, sink) = run_traced_mixed(4, 1 << 20);
    let a = TraceAnalysis::from_events(&sink.to_vec());
    assert_eq!(a.lock_acquires, result.mpmmu.locks_granted.get());
    assert!(a.contended_acquires > 0, "lock contention must be visible");
    assert!(a.lock_contention_cycles > 0);
    assert!(a.delivered > 0 && a.injected >= a.delivered);
    assert!(a.peak_link_load().is_some());
    let barrier = a.spans.iter().find(|(op, _, _)| *op == KernelOp::Barrier);
    assert_eq!(barrier.map(|(_, count, _)| *count), Some(4), "one barrier span per rank");
}

#[test]
fn class_filtered_sink_captures_only_selected_classes() {
    let mut sink = RingSink::with_classes(1 << 20, EventClass::MEM);
    System::run_with(&traced_cfg(3), &[], mixed_kernels(3), &mut sink, &mut NullInjector)
        .expect("run");
    let events = sink.to_vec();
    assert!(!events.is_empty());
    assert!(events.iter().all(|t| t.event.class().intersects(EventClass::MEM)));
}

#[test]
fn ring_truncation_keeps_newest_events_and_counts_drops() {
    let (result, full) = run_traced_mixed(3, 1 << 20);
    let total = full.len();
    let cap = total / 4;
    let (_, small) = run_traced_mixed(3, cap);
    assert_eq!(small.len(), cap);
    assert_eq!(small.dropped() as usize, total - cap);
    // The survivors are the *newest* events: their first timestamp is at
    // or after the full capture's timestamp at the same cut.
    let full_events: Vec<TimedEvent> = full.to_vec();
    let first_kept = small.to_vec()[0].at;
    assert_eq!(first_kept, full_events[total - cap].at);
    assert!(small.to_vec().last().unwrap().at <= result.cycles);
}
