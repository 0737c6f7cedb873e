//! One table model for every bench report.
//!
//! A [`Table`] is named and holds rows of scalar [`Cell`]s under a fixed
//! column list. It renders two ways: as aligned console text (missing
//! values shown as `-`) and as one section of a `BENCH_*.json` document.
//! A [`Report`] gathers the sections of one harness run and writes them
//! under one envelope, schema [`SCHEMA`]:
//!
//! ```text
//! {"schema", "benchmark", "mode", "host": {"cpus"}, "total_wall_s",
//!  "sections": {<name>: {"note", "rows": [{<column>: <scalar>, ...}]}}}
//! ```
//!
//! Every row is a flat object with its section's column set, so two
//! reports diff mechanically. The rest of the module turns library
//! results ([`RunResult`], [`MetricsReport`](medea_core::MetricsReport),
//! [`TraceAnalysis`], [`DesignPoint`]) into cells and tables.

use crate::UtilizationRow;
use medea_core::area::DesignPoint;
use medea_core::system::{RunError, RunResult};
use medea_core::{CycleBreakdown, PeActivity};
use medea_trace::TraceAnalysis;
use std::fmt::{self, Write as _};
use std::time::Instant;

/// The schema tag every `BENCH_*.json` document starts with.
pub const SCHEMA: &str = "medea-bench/1";

/// One scalar value of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// A missing value: `null` in JSON, `-` in text.
    Null,
}

impl Cell {
    /// `x` with `places` decimals; a non-finite `x` is missing.
    pub fn fixed(x: f64, places: usize) -> Cell {
        if x.is_finite() {
            Cell::Fixed(x, places)
        } else {
            Cell::Null
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Fixed(x, places) => format!("{x:.places$}"),
            Cell::Str(s) => s.clone(),
            Cell::Null => "-".to_owned(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Str(s) => json_string(s),
            Cell::Null => "null".to_owned(),
            number => number.text(),
        }
    }
}

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(n: $t) -> Cell {
                Cell::Int(n as u64)
            }
        }
    )*};
}
int_cells!(u64, usize, u32, u16, u8);

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Null, Into::into)
    }
}

/// A row of cells from values convertible into [`Cell`]:
/// `cells![label, pes, Cell::fixed(speedup, 2)]`.
#[macro_export]
macro_rules! cells {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::report::Cell::from($v)),*]
    };
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    medea_trace::json::escape(s, &mut out);
    out.push('"');
    out
}

/// A named table of scalar cells: one console table, one JSON section.
#[derive(Debug)]
pub struct Table {
    name: String,
    note: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table; `note` says what the rows measure.
    pub fn new(name: &str, note: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_owned(),
            note: note.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the column count.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch in table {}", self.name);
        self.rows.push(row);
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The aligned text rendering: a header, a rule, then one
    /// right-aligned line per row.
    fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::text).collect()).collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut out = String::new();
        for line in [&self.columns, &rule].into_iter().chain(&rows) {
            for (i, (cell, width)) in line.iter().zip(&widths).enumerate() {
                let sep = if i > 0 { "  " } else { "" };
                let _ = write!(out, "{sep}{cell:>width$}");
            }
            out.push('\n');
        }
        out
    }

    /// The JSON section: `{"note": ..., "rows": [...]}`, one row a line.
    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(k, v)| format!("{}: {}", json_string(k), v.json()))
                    .collect();
                format!("\n      {{{}}}", fields.join(", "))
            })
            .collect();
        let tail = if rows.is_empty() { "" } else { "\n    " };
        format!("{{\"note\": {}, \"rows\": [{}{tail}]}}", json_string(&self.note), rows.join(","))
    }
}

impl fmt::Display for Table {
    /// `== name: note ==` over the aligned text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.note.as_str() {
            "" => writeln!(f, "== {} ==", self.name)?,
            note => writeln!(f, "== {}: {note} ==", self.name)?,
        }
        f.write_str(&self.to_text())
    }
}

/// The sections of one harness run and the envelope they are written in.
#[derive(Debug)]
pub struct Report {
    benchmark: String,
    mode: String,
    started: Instant,
    sections: Vec<Table>,
}

impl Report {
    /// An empty report; `total_wall_s` counts from here.
    pub fn new(benchmark: &str, mode: &str) -> Report {
        Report {
            benchmark: benchmark.to_owned(),
            mode: mode.to_owned(),
            started: Instant::now(),
            sections: Vec::new(),
        }
    }

    /// Add a section and print it to the console.
    ///
    /// # Panics
    ///
    /// Panics if a section of the same name is already present.
    pub fn add(&mut self, table: Table) {
        assert!(
            self.sections.iter().all(|s| s.name != table.name),
            "duplicate section {}",
            table.name
        );
        println!("{table}");
        self.sections.push(table);
    }

    /// The whole document, with `total_wall_s` as given.
    pub fn to_json(&self, total_wall_s: f64) -> String {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| format!("\n    {}: {}", json_string(&s.name), s.to_json()))
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"benchmark\": {},\n  \"mode\": {},\n  \"host\": {{\"cpus\": \
             {cpus}}},\n  \"total_wall_s\": {total_wall_s:.2},\n  \"sections\": {{{}\n  }}\n}}\n",
            json_string(SCHEMA),
            json_string(&self.benchmark),
            json_string(&self.mode),
            sections.join(",")
        )
    }

    /// Validate the document and write it to `path`.
    ///
    /// # Panics
    ///
    /// Panics if the document is not valid JSON or cannot be written.
    pub fn write(&self, path: &str) {
        let doc = self.to_json(self.started.elapsed().as_secs_f64());
        medea_trace::json::validate(&doc).expect("a bench report must be valid JSON");
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// The standard columns of one run, filled by [`run_cells`].
pub const RUN_COLUMNS: [&str; 7] = [
    "sim_cycles",
    "wall_s",
    "cycles_per_sec",
    "flit_latency_p50",
    "flit_latency_p99",
    "flit_latency_max",
    "deflections_per_delivered_flit",
];

/// A run's standard columns: simulated cycles, host wall time and
/// simulation rate, the flit latency p50/p99 (log2-bucket upper
/// estimates) and max (exact), and deflections per delivered flit.
pub fn run_cells(r: &RunResult) -> Vec<Cell> {
    cells![
        r.cycles,
        Cell::fixed(r.wall.as_secs_f64(), 3),
        Cell::fixed(r.sim_rate(), 0),
        r.flit_latency_p50(),
        r.flit_latency_p99(),
        r.fabric_max_latency,
        r.deflections_per_delivered().map(|d| Cell::fixed(d, 4)),
    ]
}

/// The columns of [`recovery_cells`].
pub const RECOVERY_COLUMNS: [&str; 6] = [
    "faults_injected",
    "fabric_reroutes",
    "empi_retransmits",
    "empi_nacks",
    "bridge_retries",
    "outcome",
];

/// A faulted run's injected faults, the recovery counters each layer
/// reports and its outcome: `ok`, or the kind of [`RunError`] with every
/// counter zero.
pub fn recovery_cells(run: &Result<RunResult, RunError>) -> Vec<Cell> {
    match run {
        Ok(r) => cells![
            r.fault.total(),
            r.fabric_reroutes,
            r.retransmits(),
            r.nacks_sent(),
            r.bridge_retries(),
            "ok"
        ],
        Err(e) => {
            let outcome = match e {
                RunError::CycleLimit { .. } => "cycle-limit".to_owned(),
                RunError::Watchdog { .. } => "watchdog".to_owned(),
                RunError::Deadlock { .. } => "deadlock".to_owned(),
                other => other.to_string(),
            };
            cells![0u64, 0u64, 0u64, 0u64, 0u64, outcome]
        }
    }
}

/// The columns of [`breakdown_cells`]: attributed cycles, the dominant
/// activity, then the fraction of the cycles each activity took.
pub fn breakdown_columns() -> Vec<&'static str> {
    let mut columns = vec!["attributed_cycles", "dominant"];
    columns.extend(PeActivity::ALL.iter().map(|a| a.name()));
    columns
}

/// A cycle-attribution breakdown as [`breakdown_columns`]. Fractions are
/// over the breakdown's own total, so every row sums to 1.
pub fn breakdown_cells(b: &CycleBreakdown) -> Vec<Cell> {
    let mut row = cells![b.total(), b.dominant().map(|(a, _)| a.name())];
    row.extend(PeActivity::ALL.iter().map(|&a| Cell::fixed(b.fraction(a), 6)));
    row
}

/// Routers and banks listed per metered run in the hottest-* sections.
const HOTTEST: usize = 4;

/// The `utilization`, `hottest_routers` and `hottest_banks` sections of
/// metered runs. Per run: the sampling shape, the aggregate cycle
/// breakdown and the busiest single link of any window; then its four
/// busiest routers (busy link-cycles) and banks (pressure).
pub fn utilization_tables(note: &str, rows: &[UtilizationRow]) -> [Table; 3] {
    let mut columns = vec![
        "topology",
        "label",
        "pes",
        "sim_cycles",
        "sample_interval",
        "windows",
        "windows_dropped",
    ];
    columns.extend(breakdown_columns());
    columns.extend(["peak_link_node", "peak_link_dir", "peak_link_busy"]);
    let mut utilization = Table::new("utilization", note, &columns);
    let mut routers = Table::new(
        "hottest_routers",
        "busiest routers of each utilization row, by busy link-cycles",
        &["topology", "label", "router", "busy_link_cycles"],
    );
    let mut banks = Table::new(
        "hottest_banks",
        "busiest banks of each utilization row, by request pressure",
        &["topology", "label", "bank", "pressure"],
    );
    for row in rows {
        let r = &row.report;
        let (topology, label) = (row.topology.as_str(), row.label.as_str());
        let mut cells =
            cells![topology, label, row.pes, r.end, r.interval, r.windows.len(), r.windows_dropped];
        cells.extend(breakdown_cells(&r.aggregate()));
        let peak = r.peak_link_utilization();
        cells.extend(cells![
            peak.map(|(node, _, _)| node),
            peak.map(|(_, dir, _)| dir),
            peak.map(|(_, _, busy)| Cell::fixed(busy, 4)),
        ]);
        utilization.push(cells);
        for (node, busy) in r.hottest_routers(HOTTEST) {
            routers.push(cells![topology, label, node, busy]);
        }
        for (bank, pressure) in r.hottest_banks(HOTTEST) {
            banks.push(cells![topology, label, bank, pressure]);
        }
    }
    [utilization, routers, banks]
}

/// The trace analytics as tables: the `top` most-deflecting routers, lock
/// contention per bank and completed kernel spans per operation.
pub fn trace_tables(analysis: &TraceAnalysis, top: usize) -> [Table; 3] {
    let mut deflections =
        Table::new("deflections", "most-deflecting routers", &["router", "deflections"]);
    for (node, n) in analysis.top_deflecting_routers(top) {
        deflections.push(cells![node, n]);
    }
    let mut locks = Table::new(
        "lock_contention",
        "per bank",
        &["bank", "contended_acquires", "contention_cycles"],
    );
    for &(bank, n, cycles) in &analysis.lock_contention_by_bank {
        locks.push(cells![bank, n, cycles]);
    }
    let mut spans =
        Table::new("spans", "completed kernel spans", &["op", "completed", "total_cycles"]);
    for (op, n, cycles) in &analysis.spans {
        spans.push(cells![op.to_string(), *n, *cycles]);
    }
    [deflections, locks, spans]
}

/// Design points as a table: label, chip area (mm²) and speedup.
pub fn design_point_table(name: &str, note: &str, points: &[DesignPoint]) -> Table {
    let mut table = Table::new(name, note, &["label", "area_mm2", "speedup"]);
    for p in points {
        table.push(cells![p.label.as_str(), Cell::fixed(p.area_mm2, 3), Cell::fixed(p.speedup, 3)]);
    }
    table
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use medea_core::api::PeApi;
    use medea_core::system::{Kernel, System};
    use medea_core::{MetricsReport, SampleWindow, SystemConfig};
    use medea_trace::{KernelOp, TimedEvent, TraceEvent};

    /// One PE that computes and never touches the NoC.
    fn compute_only() -> Vec<Kernel> {
        vec![Box::new(|api: PeApi| api.compute(10))]
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new("t", "", &["cores", "cycles"]);
        t.push(cells![2u64, 123_456u64]);
        t.push(cells![15u64, 99u64]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("cores"));
        assert!(lines[1].starts_with("-----"));
        assert!(lines[2].trim_start().starts_with('2'));
        // Right-aligned numbers share the last column edge.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.to_string(), format!("== t ==\n{text}"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_rows_panic() {
        Table::new("t", "", &["a", "b"]).push(cells![1u64]);
    }

    #[test]
    fn latency_table_renders_missing_as_dash() {
        // A compute-only run delivers no flit: every latency is missing.
        let cfg = SystemConfig::builder().compute_pes(1).build().unwrap();
        let quiet = System::run(&cfg, &[], compute_only()).unwrap();
        let mut t = Table::new("noc", "", &[&["config"][..], &RUN_COLUMNS].concat());
        t.push([cells!["quiet"], run_cells(&quiet)].concat());
        t.push(cells![
            "4x4",
            7u64,
            Cell::fixed(0.5, 3),
            14u64,
            3u64,
            63u64,
            187u64,
            Cell::fixed(1.234_5, 4)
        ]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("flit_latency_p50") && lines[0].contains("deflections_per"));
        assert!(lines[2].trim_end().ends_with('-'), "missing values render as dashes: {text}");
        assert!(lines[3].contains("187") && lines[3].contains("1.2345"), "{text}");
        assert!(t.to_json().contains("\"flit_latency_max\": null"), "{}", t.to_json());
    }

    #[test]
    fn json_rows_are_flat_objects_of_scalars() {
        let mut t = Table::new("s", "a \"quoted\" note", &["label", "n", "x", "missing"]);
        t.push(cells!["8P_16k$_WB@8x8", 3u64, Cell::fixed(0.126, 2), Option::<u64>::None]);
        t.push(cells!["inf", 0u64, Cell::fixed(f64::INFINITY, 2), Cell::Null]);
        let json = t.to_json();
        medea_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(json.contains("\"note\": \"a \\\"quoted\\\" note\""), "{json}");
        assert!(
            json.contains(
                "{\"label\": \"8P_16k$_WB@8x8\", \"n\": 3, \"x\": 0.13, \"missing\": null}"
            ),
            "{json}"
        );
        assert!(json.contains("\"x\": null"), "non-finite floats are missing: {json}");
        let empty = Table::new("e", "", &["a"]).to_json();
        assert_eq!(empty, "{\"note\": \"\", \"rows\": []}");
    }

    #[test]
    fn report_envelope_is_valid_and_ordered() {
        let mut report = Report::new("unit", "smoke");
        let mut a = Table::new("first", "", &["k"]);
        a.push(cells![1u64]);
        report.add(a);
        report.add(Table::new("second", "", &["k"]));
        let doc = report.to_json(1.5);
        medea_trace::json::validate(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert!(doc.starts_with("{\n  \"schema\": \"medea-bench/1\",\n  \"benchmark\": \"unit\""));
        for key in ["\"mode\": \"smoke\"", "\"host\": {\"cpus\": ", "\"total_wall_s\": 1.50"] {
            assert!(doc.contains(key), "{key}: {doc}");
        }
        assert!(doc.find("\"first\"").unwrap() < doc.find("\"second\"").unwrap(), "{doc}");
    }

    #[test]
    #[should_panic(expected = "duplicate section")]
    fn duplicate_sections_panic() {
        let mut report = Report::new("unit", "smoke");
        report.add(Table::new("s", "", &["k"]));
        report.add(Table::new("s", "", &["k"]));
    }

    #[test]
    fn resilience_table_renders_counters_and_outcome() {
        let cfg = SystemConfig::builder().compute_pes(1).build().unwrap();
        let ok = System::run(&cfg, &[], compute_only());
        let err = System::run(&cfg, &[], Vec::<Kernel>::new());
        let mut t = Table::new("resilience", "", &[&["scenario"][..], &RECOVERY_COLUMNS].concat());
        t.push([cells!["clean"], recovery_cells(&ok)].concat());
        t.push([cells!["no kernels"], recovery_cells(&err)].concat());
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("empi_retransmits") && lines[0].contains("outcome"));
        assert!(lines[2].trim_end().ends_with("ok"), "{text}");
        assert!(!lines[3].trim_end().ends_with("ok"), "errors name their kind: {text}");
    }

    #[test]
    fn labeled_series_format() {
        let point = DesignPoint { label: "2P_8k$".into(), area_mm2: 1.5, speedup: 2.0 };
        let s = design_point_table("fig7", "frontier", &[point]).to_string();
        assert!(s.starts_with("== fig7: frontier =="), "{s}");
        assert!(s.contains("2P_8k$") && s.contains("1.500") && s.contains("2.000"), "{s}");
    }

    #[test]
    fn breakdown_table_percentages_per_row() {
        let mut b = CycleBreakdown::default();
        b.record(PeActivity::Compute, 62);
        b.record(PeActivity::RecvWait, 38);
        let mut t = Table::new("pe_breakdown", "", &[&["pe"][..], &breakdown_columns()].concat());
        t.push([cells!["rank 0"], breakdown_cells(&b)].concat());
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("compute") && lines[0].contains("recv-wait"), "{text}");
        assert!(
            lines[2].contains("100")
                && lines[2].contains("compute")
                && lines[2].contains("0.620000")
                && lines[2].contains("0.380000"),
            "{text}"
        );
    }

    /// A 2x2 metered report of one PE (60% compute, 40% recv-wait):
    /// node 2's dir-1 link busy 7 of 10 cycles, bank 0 under 2 requests.
    pub(crate) fn tiny_report() -> MetricsReport {
        let mut b = CycleBreakdown::default();
        b.record(PeActivity::Compute, 60);
        b.record(PeActivity::RecvWait, 40);
        let mut link_busy = vec![0u32; 16];
        link_busy[4 * 2 + 1] = 7;
        MetricsReport {
            interval: 10,
            end: 10,
            width: 2,
            height: 2,
            pes: 1,
            banks: 1,
            breakdown: vec![b],
            windows: vec![SampleWindow {
                start: 0,
                end: 10,
                link_busy,
                pe_activity: vec![0],
                pe_arb: vec![0],
                pe_rx: vec![0],
                bank_req: vec![2],
                bank_data: vec![0],
                bank_out: vec![0],
                bank_lock_nacks: vec![0],
                bank_coh_msgs: vec![0],
            }],
            windows_dropped: 0,
        }
    }

    #[test]
    fn hot_spot_tables_render() {
        let row = UtilizationRow {
            topology: "2x2".into(),
            label: "1P".into(),
            pes: 1,
            report: tiny_report(),
        };
        let [_, routers, banks] = utilization_tables("", &[row]);
        assert_eq!(routers.rows(), &[cells!["2x2", "1P", 2u16, 7u64]]);
        assert!(routers.to_text().contains("busy_link_cycles"));
        assert_eq!(banks.rows(), &[cells!["2x2", "1P", 0usize, 2u64]]);
        assert!(banks.to_text().contains("pressure"));
    }

    #[test]
    fn deflection_and_lock_tables_render() {
        let ev = |at, event| TimedEvent { at, event };
        let events = [
            ev(1, TraceEvent::FlitDeflected { node: 5 }),
            ev(2, TraceEvent::FlitDeflected { node: 5 }),
            ev(3, TraceEvent::FlitDeflected { node: 1 }),
            ev(4, TraceEvent::SpanBegin { node: 1, op: KernelOp::Barrier }),
            ev(9, TraceEvent::SpanEnd { node: 1, op: KernelOp::Barrier }),
        ];
        let [deflections, locks, spans] = trace_tables(&TraceAnalysis::from_events(&events), 8);
        let text = deflections.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("deflections"));
        assert!(lines[2].trim_start().starts_with('5'), "descending order preserved: {text}");
        assert!(locks.rows().is_empty() && locks.to_text().contains("contention_cycles"));
        assert_eq!(spans.rows().len(), 1, "{spans}");
    }
}
