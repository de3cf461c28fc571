//! JSON-lines serialization of timeline dumps (`--timeline PATH`).
//!
//! One `timeline_window` line per `(trial, window)`, plus one closing
//! `timeline_end` line per trial. The window columns are
//! [`TimelineWindow::columns`], declared next to the struct they export.
//! Windows are written in trial-then-window order and contain only
//! simulation output, so the stream is byte-identical at any
//! `--threads N`.

use ddp_core::{TimelineDump, TimelineWindow};

use crate::json::JsonObject;

/// Serializes one timeline window as a single JSON object (one line of
/// the `--timeline` stream). `trial` is the grid index of the run and
/// `window` the window's position in the dump.
#[must_use]
pub fn timeline_window_to_json(trial: usize, window: usize, w: &TimelineWindow) -> String {
    let mut o = JsonObject::new();
    o.u64("trial", trial as u64);
    o.str("kind", "timeline_window");
    o.u64("window", window as u64);
    for (name, value) in w.columns() {
        o.u64(name, value);
    }
    o.finish()
}

/// The closing line of one trial's timeline stream: window geometry and
/// how many events were folded into the final window by the cap.
#[must_use]
pub fn timeline_end_to_json(trial: usize, label: &str, dump: &TimelineDump) -> String {
    let mut o = JsonObject::new();
    o.u64("trial", trial as u64);
    o.str("kind", "timeline_end");
    o.str("label", label);
    o.u64("window_ns", dump.window_ns);
    o.u64("origin_ns", dump.origin_ns);
    o.u64("end_ns", dump.end_ns);
    o.u64("windows", dump.windows.len() as u64);
    o.u64("clipped", dump.clipped);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::shard_line;
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
        let dump = dump();
        let base = timeline_window_to_json(2, 0, &dump.windows[0]);
        let sharded = shard_line(3, &base);
        assert_eq!(sharded, format!("{{\"shard\":3,{}", &base[1..]));

        let end = shard_line(1, &timeline_end_to_json(0, "<Lin,Sync>", &dump));
        assert!(end.starts_with("{\"shard\":1,\"trial\":0,"), "{end}");
        assert!(end.contains("\"kind\":\"timeline_end\""), "{end}");
    }
}
