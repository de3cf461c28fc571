//! The shared run-record field schema.
//!
//! `--json` and `--csv` must never drift apart, so neither serializer
//! owns a field list: both walk the one produced by [`record_fields`] —
//! the four identity columns, then [`RunSummary::fields`], which the
//! `RunSummary` table in `ddp-core` generates from the same rows that
//! declare and derive each metric. A metric added there is a column of
//! both formats, in the same position, by construction.
//!
//! [`RunSummary::fields`]: ddp_core::RunSummary::fields

use ddp_core::FieldValue;

use crate::record::RunRecord;

/// One named column of an output row. Every `--json`, `--csv`, `--trace`
/// and `--timeline` line is a sequence of these, serialized by the one
/// JSON row writer or the one CSV row writer.
pub type Column<'a> = (&'static str, FieldValue<'a>);

/// The ordered `(name, value)` field list of one run record — the single
/// schema both the JSON-lines and CSV writers serialize.
#[must_use]
pub fn record_fields(r: &RunRecord) -> Vec<Column<'_>> {
    use FieldValue::{Str, U64};
    let mut fields = vec![
        ("index", U64(r.index as u64)),
        ("label", Str(r.label.as_str().into())),
        ("consistency", Str(r.model.consistency.to_string().into())),
        ("persistency", Str(r.model.persistency.to_string().into())),
    ];
    fields.extend(r.summary.fields());
    fields
}

/// A record's `--json` row: [`record_fields`], then a sharded record's
/// breakdown columns (see [`crate::fleet`]).
pub(crate) fn record_row(r: &RunRecord) -> impl Iterator<Item = Column<'_>> {
    record_fields(r)
        .into_iter()
        .chain(r.shards.iter().flat_map(crate::fleet::breakdown_fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::{ClusterConfig, DdpModel, Simulation};

    fn record() -> RunRecord {
        let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        cfg.warmup_requests = 20;
        cfg.measured_requests = 150;
        let mut sim = Simulation::new(cfg);
        sim.run();
        RunRecord::from_simulation(0, "t".into(), &mut sim)
    }

    #[test]
    fn field_names_are_unique_and_stable_at_the_front() {
        let r = record();
        let fields = record_fields(&r);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        // The leading identity fields anchor downstream tooling.
        assert_eq!(
            &names[..4],
            &["index", "label", "consistency", "persistency"]
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field name");
    }
}
