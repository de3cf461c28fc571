//! The export schemas checked against the structs they export.
//!
//! `RunSummary` declares its fields, their derivation and its column list
//! in one table, and `TimelineWindow::columns` sits next to its struct.
//! These tests do not trust either list: they read each struct's
//! top-level field names from its compiler-derived `Debug` output and
//! require the exported columns to cover them — every `RunSummary` field
//! a record column in declaration order, every `TimelineWindow` field a
//! timeline column.

use ddp_core::{ClusterConfig, DdpModel, Simulation, TraceConfig};
use ddp_harness::{record_fields, RunRecord};
use ddp_sim::Duration;

/// The top-level field names of a `{:?}`-formatted struct, in order:
/// every `name:` at brace depth one, skipping nested values.
fn debug_field_names(debug: &str) -> Vec<String> {
    let body = &debug[debug.find('{').expect("a braced struct") + 1..];
    let mut names = Vec::new();
    let mut depth = 0usize;
    let mut piece = String::new();
    for ch in body.chars() {
        match ch {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => {
                let name = piece.split(':').next().unwrap_or("").trim();
                if !name.is_empty() {
                    names.push(name.to_string());
                }
                piece.clear();
                continue;
            }
            _ => {}
        }
        if depth == 0 {
            piece.push(ch);
        }
    }
    names
}

fn small_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
    cfg.warmup_requests = 20;
    cfg.measured_requests = 200;
    cfg
}

#[test]
fn record_columns_are_the_summary_fields_in_order() {
    // A crash makes the event-trace fields non-empty, so the parse must
    // step over their nested `Debug` form.
    let cfg = small_cfg().with_crash(2, Duration::from_micros(2), Duration::from_micros(5));
    let mut sim = Simulation::new(cfg);
    sim.run();
    let record = RunRecord::from_simulation(0, "schema".into(), &mut sim);
    assert_eq!(record.summary.crashes.len(), 1, "the crash must fire");
    let columns: Vec<&str> = record_fields(&record).iter().map(|(n, _)| *n).collect();
    assert_eq!(
        &columns[..4],
        &["index", "label", "consistency", "persistency"]
    );
    let fields = debug_field_names(&format!("{:?}", record.summary));
    assert!(fields.len() > 50, "parsed too few fields: {fields:?}");
    assert_eq!(columns[4..], fields[..]);
}

#[test]
fn every_timeline_window_field_is_a_column() {
    let cfg =
        small_cfg().with_trace(TraceConfig::default().with_timeline(Duration::from_micros(20)));
    let mut sim = Simulation::new(cfg);
    sim.run();
    let dump = sim.take_timeline().expect("timeline was enabled");
    let window = &dump.windows[0];
    let columns: Vec<&str> = window.columns().iter().map(|(n, _)| *n).collect();
    for field in debug_field_names(&format!("{window:?}")) {
        // The private VP→DP lag histogram is exported through the
        // `lag_*` accessor columns.
        if field == "lag" {
            assert!(columns.iter().any(|c| c.starts_with("lag_")));
            continue;
        }
        assert!(
            columns.contains(&field.as_str()),
            "TimelineWindow.{field} is not a timeline column"
        );
    }
}
