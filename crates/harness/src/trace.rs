//! JSON-lines serialization of trace event streams (`--trace PATH`).
//!
//! One line per [`TraceRecord`], with the payload words named by the
//! kind's [`payload`](ddp_core::TraceEventKind::payload) schema (`key`,
//! `version`, `lag_ns`, …) instead of the raw `a`/`b`/`c`/`d` slots, and
//! one closing `trace_end` line per trial carrying the event and drop
//! counts. Records contain only simulation output and trials are
//! written in grid order, so the stream is byte-identical at any
//! `--threads N`.

use ddp_core::{FieldValue, Slot, StallCause, TraceDump, TraceRecord};

use crate::fields::Column;
use crate::json::to_json;

/// One trace event's row: the identity columns, then the kind's named
/// payload words. `trial` is the grid index of the run the event belongs
/// to.
pub(crate) fn trace_event_row(
    trial: usize,
    r: &TraceRecord,
) -> impl Iterator<Item = Column<'static>> {
    use FieldValue::{Str, U64};
    let r = *r;
    let payload = r.kind.payload().iter().map(move |&(field, slot)| {
        let value = match slot {
            Slot::Cause => Str(StallCause(r.word(slot)).name().into()),
            _ => U64(r.word(slot)),
        };
        (field, value)
    });
    [
        ("trial", U64(trial as u64)),
        ("kind", Str(r.kind.name().into())),
        ("seq", U64(r.seq)),
        ("at_ns", U64(r.at_ns)),
        ("node", U64(u64::from(r.node))),
    ]
    .into_iter()
    .chain(payload)
}

/// The closing row of one trial's trace stream: how many events survived
/// the ring and how many were overwritten (`dropped` > 0 means the ring
/// capacity was smaller than the run's event count).
pub(crate) fn trace_end_row<'a>(trial: usize, label: &'a str, dump: &TraceDump) -> [Column<'a>; 5] {
    use FieldValue::{Str, U64};
    [
        ("trial", U64(trial as u64)),
        ("kind", Str("trace_end".into())),
        ("label", Str(label.into())),
        ("events", U64(dump.events.len() as u64)),
        ("dropped", U64(dump.dropped)),
    ]
}

/// Serializes one trace event as a single JSON object (one line of the
/// `--trace` stream).
#[must_use]
pub fn trace_event_to_json(trial: usize, r: &TraceRecord) -> String {
    to_json(trace_event_row(trial, r))
}

/// Serializes the closing `trace_end` line of one trial's trace stream.
#[must_use]
pub fn trace_end_to_json(trial: usize, label: &str, dump: &TraceDump) -> String {
    to_json(trace_end_row(trial, label, dump))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let shard = |s: u64| std::iter::once(("shard", FieldValue::U64(s)));
        let event = rec(TraceEventKind::WriteDp);
        let base = trace_event_to_json(2, &event);
        let sharded = to_json(shard(3).chain(trace_event_row(2, &event)));
        assert_eq!(sharded, format!("{{\"shard\":3,{}", &base[1..]));

        let dump = TraceDump {
            events: Vec::new(),
            dropped: 0,
        };
        let base = trace_end_to_json(0, "<Lin,Sync>", &dump);
        let end = to_json(shard(1).chain(trace_end_row(0, "<Lin,Sync>", &dump)));
        assert_eq!(end, format!("{{\"shard\":1,{}", &base[1..]));
        assert!(end.starts_with("{\"shard\":1,\"trial\":0,"), "{end}");
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
