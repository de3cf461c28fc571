//! One cell: construct, run and export a simulation, timed from outside
//! around the public calls, then checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ddp_core::{Consistency, RunStats, Simulation};
use ddp_harness::{
    record_to_json, timeline_end_to_json, timeline_window_to_json, trace_end_to_json,
    trace_event_to_json, RunRecord, Trial,
};

use crate::calib::{kernel_s, REFERENCE_S};
use crate::workloads::Workload;

/// Exact simulated counts over the measured window, copied out of
/// `RunStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub reads: u64,
    pub writes: u64,
    pub messages: u64,
    pub network_bytes: u64,
    pub persists: u64,
    pub txns_started: u64,
    pub txns_conflicted: u64,
    pub txns_committed: u64,
    pub lsm_seals: u64,
    pub compaction_bytes: u64,
    pub measured_ns: u64,
}

impl Counts {
    fn of(stats: &RunStats) -> Counts {
        Counts {
            reads: stats.reads_completed,
            writes: stats.writes_completed,
            messages: stats.messages_sent,
            network_bytes: stats.network_bytes,
            persists: stats.persists_issued,
            txns_started: stats.txns_started,
            txns_conflicted: stats.txns_conflicted,
            txns_committed: stats.txns_committed,
            lsm_seals: stats.lsm_seals,
            compaction_bytes: stats.compaction_bytes,
            measured_ns: stats.measured_time.as_nanos(),
        }
    }

    pub fn measured(&self) -> u64 {
        self.reads + self.writes
    }
}

/// What one cell produced and what it cost in host time. Every time is in
/// seconds at the reference host speed (see [`crate::calib`]).
#[derive(Debug)]
pub struct CellRun {
    /// The cell's record as the harness serializes it.
    pub record_json: String,
    /// Mean calibration-kernel time measured around the cell.
    pub kernel_s: f64,
    /// Host seconds in `Simulation::new`.
    pub setup_s: f64,
    /// Host seconds in `Simulation::run`.
    pub run_s: f64,
    /// Host seconds building and serializing the record.
    pub record_s: f64,
    /// Host seconds serializing the trace rows.
    pub trace_s: f64,
    /// Host seconds serializing the timeline rows.
    pub timeline_s: f64,
    /// Simulated requests completed (warm-up plus measured).
    pub requests: u64,
    /// Bytes of every serialized row (record, trace, timeline).
    pub export_bytes: u64,
    /// Trace events serialized.
    pub trace_events: u64,
    /// Timeline windows serialized.
    pub timeline_windows: u64,
    /// Measured-window counts, for the ledger.
    pub counts: Counts,
    /// Why the cell failed its checks, if it did.
    pub failure: Option<String>,
}

impl CellRun {
    /// Host seconds the cell spent in the simulator's public calls.
    pub fn host_s(&self) -> f64 {
        self.setup_s + self.run_s + self.record_s + self.trace_s + self.timeline_s
    }
}

/// Runs one cell; a panic becomes a failed cell instead of ending the run.
pub fn run_cell_guarded(workload: Workload, trial: &Trial) -> CellRun {
    match catch_unwind(AssertUnwindSafe(|| run_cell(workload, trial))) {
        Ok(cell) => cell,
        Err(_) => CellRun {
            record_json: String::new(),
            kernel_s: REFERENCE_S,
            setup_s: 0.0,
            run_s: 0.0,
            record_s: 0.0,
            trace_s: 0.0,
            timeline_s: 0.0,
            requests: 0,
            export_bytes: 0,
            trace_events: 0,
            timeline_windows: 0,
            counts: Counts::default(),
            failure: Some("panicked".to_string()),
        },
    }
}

fn run_cell(workload: Workload, trial: &Trial) -> CellRun {
    let before = kernel_s();
    let t0 = Instant::now();
    let mut sim = Simulation::new(trial.cfg.clone());
    let t1 = Instant::now();
    sim.run();
    let t2 = Instant::now();
    let record = RunRecord::from_simulation(trial.index, trial.label.clone(), &mut sim);
    let record_json = record_to_json(&record);
    let t3 = Instant::now();

    // Rows are serialized into memory and counted, never written.
    let mut export_bytes = record_json.len() as u64;
    let mut trace_events = 0;
    let mut dropped = 0;
    if let Some(dump) = sim.take_trace() {
        for event in &dump.events {
            export_bytes += trace_event_to_json(trial.index, event).len() as u64;
        }
        export_bytes += trace_end_to_json(trial.index, &trial.label, &dump).len() as u64;
        trace_events = dump.events.len() as u64;
        dropped = dump.dropped;
    }
    let t4 = Instant::now();
    let mut timeline_windows = 0;
    let mut clipped = 0;
    if let Some(dump) = sim.take_timeline() {
        for (i, window) in dump.windows.iter().enumerate() {
            export_bytes += timeline_window_to_json(trial.index, i, window).len() as u64;
        }
        export_bytes += timeline_end_to_json(trial.index, &trial.label, &dump).len() as u64;
        timeline_windows = dump.windows.len() as u64;
        clipped = dump.clipped;
    }
    let t5 = Instant::now();
    let kernel = (before + kernel_s()) / 2.0;
    let at_reference =
        |from: Instant, to: Instant| (to - from).as_secs_f64() * REFERENCE_S / kernel;

    let counts = Counts::of(sim.cluster().stats());
    let failure = check(
        workload,
        trial,
        &counts,
        record.summary.throughput,
        dropped,
        clipped,
    );
    CellRun {
        record_json,
        kernel_s: kernel,
        setup_s: at_reference(t0, t1),
        run_s: at_reference(t1, t2),
        record_s: at_reference(t2, t3),
        trace_s: at_reference(t3, t4),
        timeline_s: at_reference(t4, t5),
        requests: trial.cfg.warmup_requests + counts.measured(),
        export_bytes,
        trace_events,
        timeline_windows,
        counts,
        failure,
    }
}

/// The per-cell checks: full run length, no lost trace rows, and the
/// mechanism each workload claims to exercise.
fn check(
    workload: Workload,
    trial: &Trial,
    counts: &Counts,
    throughput: f64,
    trace_dropped: u64,
    timeline_clipped: u64,
) -> Option<String> {
    let cfg = &trial.cfg;
    let measured = counts.measured();
    let txn = cfg.model.consistency == Consistency::Transactional;
    if measured < cfg.measured_requests {
        return Some(format!(
            "completed {measured} of {} measured requests",
            cfg.measured_requests
        ));
    }
    if !(throughput.is_finite() && throughput > 0.0) {
        return Some(format!("throughput {throughput}"));
    }
    if trace_dropped > 0 || timeline_clipped > 0 {
        return Some(format!(
            "trace ring overflowed ({trace_dropped} events dropped, \
             {timeline_clipped} timeline events clipped)"
        ));
    }
    match workload {
        Workload::Grid25Quick if txn && counts.txns_conflicted == 0 => {
            Some("Transactional cell saw no conflicts".to_string())
        }
        Workload::LongRead if txn || counts.txns_started > 0 || counts.txns_committed > 0 => {
            Some("completed a Transactional request".to_string())
        }
        Workload::LsmWTraced if counts.lsm_seals == 0 => {
            Some("LSM cell sealed no memtable".to_string())
        }
        _ => None,
    }
}
