//! JSON-lines serialization of timeline dumps (`--timeline PATH`).
//!
//! One `timeline_window` line per `(trial, window)`, plus one closing
//! `timeline_end` line per trial. The window columns are
//! [`TimelineWindow::columns`], declared next to the struct they export.
//! Windows are written in trial-then-window order and contain only
//! simulation output, so the stream is byte-identical at any
//! `--threads N`.

use ddp_core::{FieldValue, TimelineDump, TimelineWindow};

use crate::fields::Column;
use crate::json::to_json;

/// One timeline window's row: the identity columns, then
/// [`TimelineWindow::columns`]. `trial` is the grid index of the run and
/// `window` the window's position in the dump.
pub(crate) fn timeline_window_row(
    trial: usize,
    window: usize,
    w: &TimelineWindow,
) -> impl Iterator<Item = Column<'static>> {
    use FieldValue::{Str, U64};
    [
        ("trial", U64(trial as u64)),
        ("kind", Str("timeline_window".into())),
        ("window", U64(window as u64)),
    ]
    .into_iter()
    .chain(w.columns().into_iter().map(|(name, v)| (name, U64(v))))
}

/// The closing row of one trial's timeline stream: window geometry and
/// how many events were folded into the final window by the cap.
pub(crate) fn timeline_end_row<'a>(
    trial: usize,
    label: &'a str,
    dump: &TimelineDump,
) -> [Column<'a>; 8] {
    use FieldValue::{Str, U64};
    [
        ("trial", U64(trial as u64)),
        ("kind", Str("timeline_end".into())),
        ("label", Str(label.into())),
        ("window_ns", U64(dump.window_ns)),
        ("origin_ns", U64(dump.origin_ns)),
        ("end_ns", U64(dump.end_ns)),
        ("windows", U64(dump.windows.len() as u64)),
        ("clipped", U64(dump.clipped)),
    ]
}

/// Serializes one timeline window as a single JSON object (one line of
/// the `--timeline` stream).
#[must_use]
pub fn timeline_window_to_json(trial: usize, window: usize, w: &TimelineWindow) -> String {
    to_json(timeline_window_row(trial, window, w))
}

/// Serializes the closing `timeline_end` line of one trial's timeline
/// stream.
#[must_use]
pub fn timeline_end_to_json(trial: usize, label: &str, dump: &TimelineDump) -> String {
    to_json(timeline_end_row(trial, label, dump))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::{ClusterConfig, DdpModel, Simulation, TraceConfig};
    use ddp_sim::Duration;

    fn dump() -> TimelineDump {
        let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        cfg.warmup_requests = 20;
        cfg.measured_requests = 150;
        cfg.trace = TraceConfig::default().with_timeline(Duration::from_micros(50));
        let mut sim = Simulation::new(cfg);
        sim.run();
        sim.take_timeline().expect("timeline enabled")
    }

    #[test]
    fn field_names_are_unique_and_cover_every_window_column() {
        let dump = dump();
        assert!(!dump.windows.is_empty(), "a run must fill windows");
        let fields = dump.windows[0].columns();
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate column name");
    }

    #[test]
    fn window_lines_carry_identity_and_columns() {
        let dump = dump();
        let line = timeline_window_to_json(3, 1, &dump.windows[0]);
        assert!(line.starts_with("{\"trial\":3,\"kind\":\"timeline_window\",\"window\":1,"));
        for (name, _) in dump.windows[0].columns() {
            assert!(line.contains(&format!("\"{name}\":")), "{name} missing");
        }
    }

    #[test]
    fn end_lines_report_the_geometry() {
        let dump = dump();
        let line = timeline_end_to_json(0, "<Lin,Sync>", &dump);
        assert!(line.contains("\"kind\":\"timeline_end\""), "{line}");
        assert!(line.contains("\"window_ns\":50000"), "{line}");
        assert!(
            line.contains(&format!("\"windows\":{}", dump.windows.len())),
            "{line}"
        );
    }

    #[test]
    fn fleet_lines_prepend_the_shard_and_change_nothing_else() {
        let shard = |s: u64| std::iter::once(("shard", FieldValue::U64(s)));
        let dump = dump();
        let base = timeline_window_to_json(2, 0, &dump.windows[0]);
        let sharded = to_json(shard(3).chain(timeline_window_row(2, 0, &dump.windows[0])));
        assert_eq!(sharded, format!("{{\"shard\":3,{}", &base[1..]));

        let base = timeline_end_to_json(0, "<Lin,Sync>", &dump);
        let end = to_json(shard(1).chain(timeline_end_row(0, "<Lin,Sync>", &dump)));
        assert_eq!(end, format!("{{\"shard\":1,{}", &base[1..]));
        assert!(end.contains("\"kind\":\"timeline_end\""), "{end}");
    }
}
