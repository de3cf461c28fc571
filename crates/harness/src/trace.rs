//! JSON-lines serialization of trace event streams (`--trace PATH`).
//!
//! One line per [`TraceRecord`], with the payload words named by the
//! kind's [`payload`](ddp_core::TraceEventKind::payload) schema (`key`,
//! `version`, `lag_ns`, …) instead of the raw `a`/`b`/`c`/`d` slots, and
//! one closing `trace_end` line per trial carrying the event and drop
//! counts. Records contain only simulation output and trials are
//! written in grid order, so the stream is byte-identical at any
//! `--threads N`.

use ddp_core::{Slot, StallCause, TraceDump, TraceRecord};

use crate::json::JsonObject;

/// Serializes one trace event as a single JSON object (one line of the
/// `--trace` stream). `trial` is the grid index of the run the event
/// belongs to.
#[must_use]
pub fn trace_event_to_json(trial: usize, r: &TraceRecord) -> String {
    let mut o = JsonObject::new();
    o.u64("trial", trial as u64);
    o.str("kind", r.kind.name());
    o.u64("seq", r.seq);
    o.u64("at_ns", r.at_ns);
    o.u64("node", u64::from(r.node));
    for &(field, slot) in r.kind.payload() {
        match slot {
            Slot::Cause => o.str(field, StallCause(r.word(slot)).name()),
            _ => o.u64(field, r.word(slot)),
        }
    }
    o.finish()
}

/// The closing line of one trial's trace stream: how many events survived
/// the ring and how many were overwritten (`dropped` > 0 means the ring
/// capacity was smaller than the run's event count).
#[must_use]
pub fn trace_end_to_json(trial: usize, label: &str, dump: &TraceDump) -> String {
    let mut o = JsonObject::new();
    o.u64("trial", trial as u64);
    o.str("kind", "trace_end");
    o.str("label", label);
    o.u64("events", dump.events.len() as u64);
    o.u64("dropped", dump.dropped);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::shard_line;
    use ddp_core::TraceEventKind;

    fn rec(kind: TraceEventKind) -> TraceRecord {
        TraceRecord {
            seq: 7,
            at_ns: 1_000,
            a: 42,
            b: 3,
            c: 250,
            d: 1,
            kind,
            node: 2,
        }
    }

    #[test]
    fn payload_words_are_named_per_kind() {
        let dp = trace_event_to_json(0, &rec(TraceEventKind::WriteDp));
        assert!(dp.contains("\"kind\":\"write_dp\""), "{dp}");
        assert!(
            dp.contains("\"key\":42") && dp.contains("\"lag_ns\":250"),
            "{dp}"
        );

        let stall = trace_event_to_json(1, &rec(TraceEventKind::StallBegin));
        assert!(
            stall.contains("\"cause\":\"persist\"") && stall.contains("\"blocking_version\":3"),
            "{stall}"
        );

        let sample = trace_event_to_json(2, &rec(TraceEventKind::Sample));
        assert!(
            sample.contains("\"inflight_ops\":42") && sample.contains("\"retransmits\":1"),
            "{sample}"
        );

        let adm = trace_event_to_json(3, &rec(TraceEventKind::AdmissionSample));
        assert!(
            adm.contains("\"kind\":\"admission_sample\"")
                && adm.contains("\"queued_arrivals\":42")
                && adm.contains("\"rejections\":1"),
            "{adm}"
        );

        let nvm = trace_event_to_json(4, &rec(TraceEventKind::NvmQueueSample));
        assert!(
            nvm.contains("\"kind\":\"nvm_queue_sample\"")
                && nvm.contains("\"bank_queued\":42")
                && nvm.contains("\"nvm_inflight\":3"),
            "{nvm}"
        );

        let cb = trace_event_to_json(5, &rec(TraceEventKind::CompactionBegin));
        assert!(
            cb.contains("\"kind\":\"compaction_begin\"")
                && cb.contains("\"work\":42")
                && cb.contains("\"entries\":3")
                && cb.contains("\"bytes\":250"),
            "{cb}"
        );

        let ce = trace_event_to_json(6, &rec(TraceEventKind::CompactionEnd));
        assert!(
            ce.contains("\"kind\":\"compaction_end\"")
                && ce.contains("\"work\":42")
                && ce.contains("\"bytes\":250"),
            "{ce}"
        );
    }

    #[test]
    fn fleet_lines_prepend_the_shard_and_change_nothing_else() {
        let base = trace_event_to_json(2, &rec(TraceEventKind::WriteDp));
        let sharded = shard_line(3, &base);
        assert_eq!(sharded, format!("{{\"shard\":3,{}", &base[1..]));

        let dump = TraceDump {
            events: Vec::new(),
            dropped: 0,
        };
        let end = shard_line(1, &trace_end_to_json(0, "<Lin,Sync>", &dump));
        assert!(end.starts_with("{\"shard\":1,\"trial\":0,"), "{end}");
        assert!(end.contains("\"kind\":\"trace_end\""), "{end}");
    }

    #[test]
    fn trace_end_reports_counts() {
        let dump = TraceDump {
            events: vec![rec(TraceEventKind::WriteVp)],
            dropped: 9,
        };
        let line = trace_end_to_json(4, "<Lin,Sync>", &dump);
        assert!(line.contains("\"kind\":\"trace_end\""), "{line}");
        assert!(
            line.contains("\"events\":1") && line.contains("\"dropped\":9"),
            "{line}"
        );
    }
}
