//! The DDP model space: data consistency × memory persistency.
//!
//! A Distributed Data Persistency (DDP) model is the binding of a memory
//! persistency model with a data consistency model (paper §4). The
//! consistency model fixes each update's *Visibility Point* (when replicas
//! may serve it); the persistency model fixes its *Durability Point* (when
//! it survives volatile failure). Table 2 of the paper defines both; the
//! `visibility_point`/`durability_point` methods reproduce that table.

use std::fmt;

/// The data consistency models evaluated in the paper, strictest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Consistency {
    /// All writes to all variables seen by all processes in the same order,
    /// with reads and writes ordered by their timestamps.
    Linearizable,
    /// A write need only be visible at all replicas by the time any replica
    /// is *read*; writes complete early, reads may stall (new in the paper,
    /// inspired by Ganesan et al.'s read-enforced durability).
    ReadEnforced,
    /// Writes propagate to all replicas by the *end of the transaction*;
    /// a transaction sees only the effects of transactions completed before
    /// it.
    Transactional,
    /// Accesses are partially ordered by happens-before; a replica applies a
    /// write only after everything in the write's causal history.
    Causal,
    /// Writes propagate lazily; replicas eventually converge.
    Eventual,
}

/// The memory persistency models evaluated in the paper, strictest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Persistency {
    /// An update is persisted in the NVM of all replica nodes by the time
    /// the write completes — possibly before the volatile replicas see it.
    Strict,
    /// An update persists at its visibility point: whenever a volatile
    /// replica is updated, the same update is immediately made durable
    /// (the paper's adaptation of single-machine Strict persistency).
    Synchronous,
    /// All updated replicas persist before any of them is read; reads stall
    /// on unpersisted data (Ganesan et al.).
    ReadEnforced,
    /// Every write carries a scope id; all writes of a scope are durable by
    /// the time the scope's `Persist` call returns (generalizes
    /// epoch/strand persistency).
    Scope,
    /// Persists happen lazily, in no particular order.
    Eventual,
}

impl Consistency {
    /// All five consistency models, strictest first (the paper's order).
    pub const ALL: [Consistency; 5] = [
        Consistency::Linearizable,
        Consistency::ReadEnforced,
        Consistency::Transactional,
        Consistency::Causal,
        Consistency::Eventual,
    ];

    /// Table 2: the visibility point of an update under this model.
    #[must_use]
    pub fn visibility_point(self) -> &'static str {
        match self {
            Consistency::Linearizable => "wrt all nodes: when the update takes place",
            Consistency::ReadEnforced => "wrt all nodes: before the update is read",
            Consistency::Transactional => "wrt all nodes: at the transaction end",
            Consistency::Causal => {
                "wrt a node: after the VPs wrt the same node of all the updates \
                 in the happens-before history"
            }
            Consistency::Eventual => "wrt a node: sometime in the future",
        }
    }

    /// True for the models that run the INV/ACK/VAL broadcast rounds
    /// (Causal and Eventual instead send one-way UPDs; paper §5.1).
    #[must_use]
    pub fn uses_inv_ack_val(self) -> bool {
        !matches!(self, Consistency::Causal | Consistency::Eventual)
    }

    /// True if the model groups requests into transactions.
    #[must_use]
    pub fn is_transactional(self) -> bool {
        matches!(self, Consistency::Transactional)
    }

    /// Position of this model in [`Consistency::ALL`] (the paper's order,
    /// strictest first).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Consistency::Linearizable => 0,
            Consistency::ReadEnforced => 1,
            Consistency::Transactional => 2,
            Consistency::Causal => 3,
            Consistency::Eventual => 4,
        }
    }
}

impl Persistency {
    /// All five persistency models, strictest first (the paper's order).
    pub const ALL: [Persistency; 5] = [
        Persistency::Strict,
        Persistency::Synchronous,
        Persistency::ReadEnforced,
        Persistency::Scope,
        Persistency::Eventual,
    ];

    /// Table 2: the durability point of an update under this model.
    #[must_use]
    pub fn durability_point(self) -> &'static str {
        match self {
            Persistency::Strict => "when the update takes place",
            Persistency::Synchronous => "at the visibility point of the update",
            Persistency::ReadEnforced => "before the update is read",
            Persistency::Scope => "before or at the scope end",
            Persistency::Eventual => "sometime in the future",
        }
    }

    /// Short column label for figure tables (at most six characters).
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            Persistency::Strict => "Strict",
            Persistency::Synchronous => "Sync",
            Persistency::ReadEnforced => "RdEnf",
            Persistency::Scope => "Scope",
            Persistency::Eventual => "Evntl",
        }
    }

    /// True if a replica must persist an update before acknowledging it
    /// (the ACK then certifies durability as well as visibility).
    #[must_use]
    pub fn persist_before_ack(self) -> bool {
        matches!(self, Persistency::Strict | Persistency::Synchronous)
    }

    /// True if persists are decoupled from ACKs and tracked with the
    /// ACK_p/VAL_p message pair.
    #[must_use]
    pub fn uses_split_acks(self) -> bool {
        matches!(self, Persistency::ReadEnforced | Persistency::Scope)
    }

    /// True if writes are annotated with scopes.
    #[must_use]
    pub fn is_scoped(self) -> bool {
        matches!(self, Persistency::Scope)
    }

    /// Position of this model in [`Persistency::ALL`] (the paper's order,
    /// strictest first).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Persistency::Strict => 0,
            Persistency::Synchronous => 1,
            Persistency::ReadEnforced => 2,
            Persistency::Scope => 3,
            Persistency::Eventual => 4,
        }
    }
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Consistency::Linearizable => "Linearizable",
            Consistency::ReadEnforced => "Read-Enforced",
            Consistency::Transactional => "Transactional",
            Consistency::Causal => "Causal",
            Consistency::Eventual => "Eventual",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Persistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Persistency::Strict => "Strict",
            Persistency::Synchronous => "Synchronous",
            Persistency::ReadEnforced => "Read-Enforced",
            Persistency::Scope => "Scope",
            Persistency::Eventual => "Eventual",
        };
        f.write_str(s)
    }
}

/// A Distributed Data Persistency model: `<consistency, persistency>`.
///
/// # Examples
///
/// ```
/// use ddp_core::{Consistency, DdpModel, Persistency};
///
/// let m = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
/// assert_eq!(m.to_string(), "<Causal, Synchronous>");
/// assert_eq!(DdpModel::all().len(), 25);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DdpModel {
    /// The data consistency half of the binding.
    pub consistency: Consistency,
    /// The memory persistency half of the binding.
    pub persistency: Persistency,
}

impl DdpModel {
    /// Binds a consistency model with a persistency model.
    #[must_use]
    pub fn new(consistency: Consistency, persistency: Persistency) -> Self {
        DdpModel {
            consistency,
            persistency,
        }
    }

    /// All 25 pair-wise combinations, consistency-major in the paper's
    /// order.
    #[must_use]
    pub fn all() -> Vec<DdpModel> {
        let mut v = Vec::with_capacity(25);
        for c in Consistency::ALL {
            for p in Persistency::ALL {
                v.push(DdpModel::new(c, p));
            }
        }
        v
    }

    /// The paper's baseline model, `<Linearizable, Synchronous>`, to which
    /// every Figure 6–9 bar is normalized.
    #[must_use]
    pub fn baseline() -> Self {
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous)
    }

    /// Number of DDP models: 5 consistency × 5 persistency.
    pub const COUNT: usize = Consistency::ALL.len() * Persistency::ALL.len();

    /// Row-major position of this model in the paper's 5×5 grid
    /// (consistency-major, the order of [`DdpModel::all`]). Gives sweep
    /// harnesses O(1) result lookup instead of a linear scan.
    ///
    /// # Examples
    ///
    /// ```
    /// use ddp_core::DdpModel;
    ///
    /// for (i, m) in DdpModel::all().into_iter().enumerate() {
    ///     assert_eq!(m.grid_index(), i);
    ///     assert_eq!(DdpModel::from_grid_index(i), m);
    /// }
    /// ```
    #[must_use]
    pub fn grid_index(self) -> usize {
        self.consistency.index() * Persistency::ALL.len() + self.persistency.index()
    }

    /// Inverse of [`DdpModel::grid_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= DdpModel::COUNT`.
    #[must_use]
    pub fn from_grid_index(index: usize) -> Self {
        assert!(index < Self::COUNT, "grid index {index} out of range");
        let width = Persistency::ALL.len();
        DdpModel::new(
            Consistency::ALL[index / width],
            Persistency::ALL[index % width],
        )
    }
}

impl fmt::Display for DdpModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.consistency, self.persistency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_models() {
        let all = DdpModel::all();
        assert_eq!(all.len(), 25);
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 25);
    }

    #[test]
    fn grid_index_round_trips_in_paper_order() {
        assert_eq!(DdpModel::COUNT, 25);
        for (i, m) in DdpModel::all().into_iter().enumerate() {
            assert_eq!(m.grid_index(), i, "{m} out of grid order");
            assert_eq!(DdpModel::from_grid_index(i), m);
        }
        assert_eq!(DdpModel::baseline().grid_index(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grid_index_rejects_out_of_range() {
        let _ = DdpModel::from_grid_index(25);
    }

    #[test]
    fn orders_are_strictest_first() {
        assert!(Consistency::Linearizable < Consistency::Eventual);
        assert!(Persistency::Strict < Persistency::Eventual);
    }

    #[test]
    fn table2_visibility_points_mention_the_defining_event() {
        assert!(Consistency::Linearizable
            .visibility_point()
            .contains("when the update takes place"));
        assert!(Consistency::ReadEnforced
            .visibility_point()
            .contains("before the update is read"));
        assert!(Consistency::Transactional
            .visibility_point()
            .contains("transaction end"));
        assert!(Consistency::Causal
            .visibility_point()
            .contains("happens-before"));
        assert!(Consistency::Eventual.visibility_point().contains("future"));
    }

    #[test]
    fn table2_durability_points_mention_the_defining_event() {
        assert!(Persistency::Strict
            .durability_point()
            .contains("when the update takes place"));
        assert!(Persistency::Synchronous
            .durability_point()
            .contains("visibility point"));
        assert!(Persistency::ReadEnforced
            .durability_point()
            .contains("before the update is read"));
        assert!(Persistency::Scope.durability_point().contains("scope end"));
        assert!(Persistency::Eventual.durability_point().contains("future"));
    }

    #[test]
    fn protocol_structure_predicates() {
        assert!(Consistency::Linearizable.uses_inv_ack_val());
        assert!(Consistency::ReadEnforced.uses_inv_ack_val());
        assert!(Consistency::Transactional.uses_inv_ack_val());
        assert!(!Consistency::Causal.uses_inv_ack_val());
        assert!(!Consistency::Eventual.uses_inv_ack_val());

        assert!(Persistency::Synchronous.persist_before_ack());
        assert!(Persistency::Strict.persist_before_ack());
        assert!(!Persistency::ReadEnforced.persist_before_ack());
        assert!(Persistency::ReadEnforced.uses_split_acks());
        assert!(Persistency::Scope.uses_split_acks());
        assert!(Persistency::Scope.is_scoped());
        assert!(!Persistency::Eventual.uses_split_acks());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            DdpModel::baseline().to_string(),
            "<Linearizable, Synchronous>"
        );
        assert_eq!(
            DdpModel::new(Consistency::ReadEnforced, Persistency::ReadEnforced).to_string(),
            "<Read-Enforced, Read-Enforced>"
        );
    }
}
