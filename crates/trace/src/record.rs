//! The trace event vocabulary: one fixed-size, `Copy` record per event.
//!
//! Records are plain data — no heap, no strings — so pushing one onto the
//! ring is a handful of stores. The payload words `a`/`b`/`c`/`d` mean
//! different things per [`TraceEventKind`]; the `trace_events!` table
//! below is the one place that says what: each row gives a kind's stable
//! discriminant, its stream name and its named payload fields in output
//! order, each bound to the [`Slot`] it reads. Serializers walk
//! [`TraceEventKind::payload`] instead of keeping their own copy.

/// Which payload word of a [`TraceRecord`] a named field reads, and how
/// it renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Word `a`, as an unsigned integer.
    A,
    /// Word `b`, as an unsigned integer.
    B,
    /// Word `c`, as an unsigned integer.
    C,
    /// Word `d`, as an unsigned integer.
    D,
    /// Word `c`, as [`StallCause`] bits rendered by [`StallCause::name`].
    Cause,
}

/// Declares the trace vocabulary once: each row is a kind's doc, its
/// discriminant, its stream name and its payload schema. Emits the
/// `#[repr(u8)]` enum plus `ALL`, `name()` and `payload()`; rustc rejects
/// a duplicate discriminant (E0081), so the numbers need no other check.
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $disc:literal, $name:literal { $($field:literal: $slot:ident),* $(,)? },
    )*) => {
        /// What happened. Discriminants are stable so dumps are comparable
        /// across builds.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum TraceEventKind {
            $($(#[$doc])* $kind = $disc,)*
        }

        impl TraceEventKind {
            /// Every kind, in discriminant order.
            pub const ALL: &'static [TraceEventKind] = &[$(TraceEventKind::$kind,)*];

            /// Stable lower-snake name used in serialized trace streams.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(TraceEventKind::$kind => $name,)*
                }
            }

            /// The kind's named payload fields in output order, each with
            /// the slot it reads.
            #[must_use]
            pub fn payload(self) -> &'static [(&'static str, Slot)] {
                match self {
                    $(TraceEventKind::$kind => &[$(($field, Slot::$slot)),*],)*
                }
            }
        }
    };
}

trace_events! {
    /// A coordinator began a write round.
    WriteIssue = 0, "write_issue" { "key": A, "version": B },
    /// The write reached its Visibility Point: applied in the
    /// coordinator's volatile store, readable by the protocol (the
    /// timestamp is the apply instant).
    WriteVp = 1, "write_vp" { "key": A, "version": B },
    /// A follower applied the value from an INV or UPD.
    ReplicaApply = 2, "replica_apply" { "key": A, "version": B },
    /// A persist was submitted to a node's NVM device (`version` is 0 for
    /// transaction-log persists; `queue_wait_ns` is the bank queue wait).
    PersistIssue = 3, "persist_issue" { "key": A, "version": B, "queue_wait_ns": C },
    /// A persist completed at a node.
    PersistComplete = 4, "persist_complete" { "key": A, "version": B },
    /// The write reached its Durability Point: the *first* persist of
    /// this version completed anywhere in the cluster (`lag_ns` is the
    /// VP→DP lag).
    WriteDp = 5, "write_dp" { "key": A, "version": B, "lag_ns": C },
    /// A client read began executing at its coordinator.
    ReadIssue = 6, "read_issue" { "key": A },
    /// A client read completed (`version` is the version it returned).
    ReadComplete = 7, "read_complete" { "key": A, "version": B, "latency_ns": C },
    /// A client write completed.
    WriteComplete = 8, "write_complete" { "key": A, "version": B, "latency_ns": C },
    /// A read stalled behind `blocking_version` for `cause`.
    StallBegin = 9, "stall_begin" { "key": A, "blocking_version": B, "cause": Cause },
    /// A stalled read resumed.
    StallEnd = 10, "stall_end" { "key": A, "stall_ns": C },
    /// A fixed-interval gauge sample (`retransmits` is cumulative).
    Sample = 11, "sample" {
        "inflight_ops": A, "buffered_writes": B, "nvm_inflight": C, "retransmits": D,
    },
    /// A fixed-interval admission sample, emitted only on open-loop runs
    /// (`queued_arrivals` across all nodes, `shed_total` so far, `retries`
    /// and `rejections` in the measured window).
    AdmissionSample = 12, "admission_sample" {
        "queued_arrivals": A, "shed_total": B, "retries": C, "rejections": D,
    },
    /// A fixed-interval NVM bank-queue sample (requests queued behind busy
    /// NVM banks and persists in flight, across all nodes).
    NvmQueueSample = 13, "nvm_queue_sample" { "bank_queued": A, "nvm_inflight": B },
    /// An LSM background compaction (memtable seal or level merge) began
    /// writing to NVM (`work` is 0 for a seal, `level + 1` for a merge out
    /// of `level`; `bytes` are NVM bytes).
    CompactionBegin = 14, "compaction_begin" { "work": A, "entries": B, "bytes": C },
    /// An LSM background compaction finished its NVM writes (`work` as in
    /// [`CompactionBegin`]).
    ///
    /// [`CompactionBegin`]: TraceEventKind::CompactionBegin
    CompactionEnd = 15, "compaction_end" { "work": A, "bytes": C },
}

/// Why a read stalled, as a bitmask (a read can be blocked by both a
/// transient consistency state and an unpersisted write at once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallCause(pub u64);

impl StallCause {
    /// Blocked by a transient (invalidated, not yet validated) key.
    pub const CONSISTENCY: StallCause = StallCause(1);
    /// Blocked by a visible but not-yet-durable write.
    pub const PERSIST: StallCause = StallCause(2);

    /// True if the consistency bit is set.
    #[must_use]
    pub fn consistency(self) -> bool {
        self.0 & Self::CONSISTENCY.0 != 0
    }

    /// True if the persist bit is set.
    #[must_use]
    pub fn persist(self) -> bool {
        self.0 & Self::PERSIST.0 != 0
    }

    /// Stable name for serialized streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match (self.consistency(), self.persist()) {
            (true, true) => "consistency+persist",
            (true, false) => "consistency",
            (false, true) => "persist",
            (false, false) => "none",
        }
    }
}

impl std::ops::BitOr for StallCause {
    type Output = StallCause;
    fn bitor(self, rhs: StallCause) -> StallCause {
        StallCause(self.0 | rhs.0)
    }
}

/// One trace event. `Copy` and allocation-free: recording on the hot path
/// is a bounds-checked store into a preallocated ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Engine dispatch sequence number of the event being handled when
    /// this record was made — a deterministic total-order anchor that is
    /// identical across executor thread counts.
    pub seq: u64,
    /// Simulated nanoseconds the record describes (for [`WriteVp`] this
    /// is the apply instant, which may be slightly after the dispatch
    /// that scheduled it).
    ///
    /// [`WriteVp`]: TraceEventKind::WriteVp
    pub at_ns: u64,
    /// First payload word (usually the key).
    pub a: u64,
    /// Second payload word (usually the version).
    pub b: u64,
    /// Third payload word (lag, latency, stall cause — per kind).
    pub c: u64,
    /// Fourth payload word (only the gauge samples use it).
    pub d: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Node the event happened at (coordinator for client-side events).
    pub node: u8,
}

impl TraceRecord {
    /// The payload word `slot` reads ([`Slot::Cause`] reads `c`).
    #[must_use]
    pub fn word(&self, slot: Slot) -> u64 {
        match slot {
            Slot::A => self.a,
            Slot::B => self.b,
            Slot::C | Slot::Cause => self.c,
            Slot::D => self.d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable_and_unique() {
        let mut names: Vec<&str> = TraceEventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceEventKind::ALL.len());
    }

    #[test]
    fn discriminants_and_names_are_pinned() {
        // Trace consumers persist these numbers and names: changing one is
        // a stream-format change, not a refactor.
        let pinned: Vec<(u8, &str)> = TraceEventKind::ALL
            .iter()
            .map(|&k| (k as u8, k.name()))
            .collect();
        assert_eq!(
            pinned,
            [
                (0, "write_issue"),
                (1, "write_vp"),
                (2, "replica_apply"),
                (3, "persist_issue"),
                (4, "persist_complete"),
                (5, "write_dp"),
                (6, "read_issue"),
                (7, "read_complete"),
                (8, "write_complete"),
                (9, "stall_begin"),
                (10, "stall_end"),
                (11, "sample"),
                (12, "admission_sample"),
                (13, "nvm_queue_sample"),
                (14, "compaction_begin"),
                (15, "compaction_end"),
            ]
        );
    }

    #[test]
    fn payload_names_are_unique_and_clear_of_the_envelope() {
        const ENVELOPE: [&str; 6] = ["trial", "kind", "seq", "at_ns", "node", "shard"];
        for &kind in TraceEventKind::ALL {
            let mut names: Vec<&str> = kind.payload().iter().map(|&(n, _)| n).collect();
            assert!(
                names.iter().all(|n| !ENVELOPE.contains(n)),
                "{kind:?} payload collides with the envelope: {names:?}"
            );
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                kind.payload().len(),
                "{kind:?} repeats a field"
            );
        }
    }

    #[test]
    fn stall_cause_bits_compose() {
        let both = StallCause::CONSISTENCY | StallCause::PERSIST;
        assert!(both.consistency() && both.persist());
        assert_eq!(both.name(), "consistency+persist");
        assert_eq!(StallCause::CONSISTENCY.name(), "consistency");
        assert_eq!(StallCause::PERSIST.name(), "persist");
        assert_eq!(StallCause(0).name(), "none");
    }

    #[test]
    fn record_is_compact() {
        // The ring preallocates capacity × this size; keep it cache-friendly.
        assert!(std::mem::size_of::<TraceRecord>() <= 56);
    }
}
