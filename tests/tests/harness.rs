//! Integration tests of the sweep harness: determinism under parallelism,
//! JSON-lines correctness, and thread-safety of the simulation stack.

use ddp_core::{ClusterConfig, DdpModel, RunSummary, Simulation};
use ddp_harness::{
    escape_json, record_to_json, run_sweep, unescape_json, ModelGrid, RunRecord, Sweep,
};

// Compile-time witnesses that everything the executor moves across worker
// threads is `Send`. If a non-Send field (Rc, raw pointer, thread-local
// handle) ever lands in the simulation stack, the workspace stops
// compiling here with a readable error instead of deep inside
// `std::thread::scope`.
const _: () = {
    ddp_harness::assert_send::<Simulation>();
    ddp_harness::assert_send::<ClusterConfig>();
    ddp_harness::assert_send::<RunSummary>();
    ddp_harness::assert_send::<ddp_harness::RunRecord>();
};

fn records(sweep: Sweep, threads: usize) -> Vec<RunRecord> {
    run_sweep("harness", sweep, threads)
        .into_iter()
        .map(|t| t.record)
        .collect()
}

fn tiny_grid() -> Sweep {
    Sweep::grid25(|m| {
        let mut cfg = ClusterConfig::micro21(m).quick();
        cfg.warmup_requests = 30;
        cfg.measured_requests = 400;
        cfg
    })
}

#[test]
fn parallel_and_sequential_sweeps_are_bit_identical() {
    let sequential = records(tiny_grid(), 1);
    let parallel = records(tiny_grid(), 4);
    assert_eq!(sequential.len(), DdpModel::COUNT);
    // Records are PartialEq over every field (floats included): the streams
    // must match bit for bit, not approximately.
    assert_eq!(sequential, parallel);
    // And so must the serialized JSON-lines stream, byte for byte.
    let seq_json: Vec<String> = sequential.iter().map(record_to_json).collect();
    let par_json: Vec<String> = parallel.iter().map(record_to_json).collect();
    assert_eq!(seq_json, par_json);
}

#[test]
fn records_are_addressable_by_grid_index() {
    let records = records(tiny_grid(), 4);
    let grid = ModelGrid::new(&records);
    for model in DdpModel::all() {
        let r = grid.model(model);
        assert_eq!(r.model, model);
        assert_eq!(r.index, model.grid_index());
        assert_eq!(
            grid.get(model.consistency, model.persistency).index,
            r.index
        );
        assert!(r.summary.throughput > 0.0, "{model} produced no work");
        assert!(r.summary.run_ns() > 0, "{model} recorded no run length");
    }
    assert_eq!(grid.baseline().model, DdpModel::baseline());
}

#[test]
fn json_escaping_round_trips_hostile_labels() {
    let hostile = "quote:\" backslash:\\ newline:\n tab:\t nul:\0 bell:\u{07} unicode:\u{1F600}";
    let escaped = escape_json(hostile);
    // The escaped form must be a clean single-line JSON string body.
    assert!(!escaped.contains('\n') && !escaped.contains('\0'));
    assert_eq!(unescape_json(&escaped).as_deref(), Some(hostile));

    // Exhaustive over the control range the RFC requires escaping.
    for code in 0u32..0x20 {
        let s = char::from_u32(code).unwrap().to_string();
        assert_eq!(
            unescape_json(&escape_json(&s)).as_deref(),
            Some(s.as_str()),
            "control char U+{code:04X} failed to round-trip"
        );
    }
}

#[test]
fn record_json_is_one_parseable_line_per_record() {
    let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
    cfg.warmup_requests = 30;
    cfg.measured_requests = 300;
    let records = records(
        Sweep::new().trial("hostile \"label\" with \\ and \n inside", cfg),
        1,
    );
    let line = record_to_json(&records[0]);
    assert!(!line.contains('\n'), "a JSON-lines row must be one line");
    assert!(line.starts_with('{') && line.ends_with('}'));
    for key in [
        "\"index\":0",
        "\"label\":",
        "\"consistency\":\"Linearizable\"",
        "\"persistency\":\"Synchronous\"",
        "\"throughput\":",
        "\"retransmits\":0",
        "\"crashes\":[]",
        "\"measured_ns\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    // The hostile label survives an escape/unescape round trip.
    let start = line.find("\"label\":\"").unwrap() + "\"label\":\"".len();
    let end = line[start..].find("\",\"consistency\"").unwrap() + start;
    assert_eq!(
        unescape_json(&line[start..end]).as_deref(),
        Some("hostile \"label\" with \\ and \n inside")
    );
}
