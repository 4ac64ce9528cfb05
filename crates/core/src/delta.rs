//! Structured write deltas: the unit of change a committed mutation
//! publishes alongside its epoch.
//!
//! A [`RelationDelta`] is the row-level difference between two states
//! of one relation — rows now stored (with their new truth, covering
//! both fresh inserts and truth overwrites) and rows no longer stored.
//! A [`Delta`] aggregates one write's effect across the whole catalog:
//! per-relation changes plus the names of any mutated domain graphs.
//! A write records *which* relations it touched ([`Delta::record_rows`]),
//! not the rows: at commit those are [`RelationDelta::diff`] of each
//! touched relation before and after the write.
//!
//! Deltas are what incremental view maintenance
//! ([`crate::differential`]) consumes: row changes flow through the
//! differential operators, while a [`RelationChange::Reset`] or a
//! domain edit signals that the cheap row-level path does not apply
//! and maintenance must fall back to full recomputation.

use std::collections::{BTreeMap, BTreeSet};

use crate::catalog::Catalog;
use crate::item::Item;
use crate::pmap::PMap;
use crate::relation::HRelation;
use crate::truth::Truth;

/// Row-level difference between two states of one relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Rows stored in the new state whose truth differs from the old
    /// state (fresh rows and truth overwrites alike), with the *new*
    /// truth.
    pub added: Vec<(Item, Truth)>,
    /// Rows stored in the old state but absent from the new state.
    pub removed: Vec<Item>,
}

impl RelationDelta {
    /// A delta with no changes.
    pub fn new() -> RelationDelta {
        RelationDelta::default()
    }

    /// Whether this delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of changed rows (added + removed).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// The items this delta touches (both directions) — the cone roots
    /// for hierarchy-aware localized maintenance.
    pub fn touched_items(&self) -> impl Iterator<Item = &Item> {
        self.added.iter().map(|(i, _)| i).chain(self.removed.iter())
    }

    /// The exact row delta between two relations over the same schema:
    /// `diff(old, new)` applied to `old` yields `new`. Fresh rows and
    /// truth overwrites go in `added` (with the new truth), dropped rows
    /// in `removed`, both in item order.
    ///
    /// It is one [`PMap::diff`] of the two tuple trees: a tree `new`
    /// shares with `old` — a write's copy of a published relation — is
    /// compared along the paths the write copied, two unrelated trees in
    /// one linear merge.
    pub fn diff(old: &HRelation, new: &HRelation) -> RelationDelta {
        let mut delta = RelationDelta::new();
        PMap::diff(
            old.tuple_map(),
            new.tuple_map(),
            |item, _, after| match after {
                Some(&truth) => delta.added.push((item.clone(), truth)),
                None => delta.removed.push(item.clone()),
            },
        );
        delta
    }

    /// Apply this delta to `relation` in place: removals first, then
    /// inserts (an insert overwrites any existing truth).
    pub fn apply_to(&self, relation: &mut HRelation) {
        for item in &self.removed {
            relation.remove(item);
        }
        for (item, truth) in &self.added {
            let _ = relation.insert(crate::tuple::Tuple::new(item.clone(), *truth));
        }
    }
}

/// How one relation changed in a committed write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationChange {
    /// Row-level changes the differential path can maintain through.
    Rows(RelationDelta),
    /// The relation changed wholesale (created, replaced in place by
    /// `CONSOLIDATE`/`EXPLICATE`, preemption mode switched, …): views
    /// over it must recompute from scratch.
    Reset,
}

impl RelationChange {
    /// The row delta, when this change is row-level.
    pub fn rows(&self) -> Option<&RelationDelta> {
        match self {
            RelationChange::Rows(d) => Some(d),
            RelationChange::Reset => None,
        }
    }
}

/// One committed write's structured effect on the catalog: what the
/// writer publishes alongside the new epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Per-relation changes, keyed by relation name.
    pub relations: BTreeMap<String, RelationChange>,
    /// Names of domain graphs this write mutated (class/instance
    /// creation, preference edges). Domain edits change subsumption
    /// itself, so they force view fallback rather than row maintenance.
    pub domains: BTreeSet<String>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Whether this write changed nothing views could observe.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty() && self.domains.is_empty()
    }

    /// Total row changes across all row-level relation changes.
    pub fn row_count(&self) -> usize {
        self.relations
            .values()
            .filter_map(RelationChange::rows)
            .map(RelationDelta::len)
            .sum()
    }

    /// Record that a write asserted or retracted rows of `relation`.
    /// The rows themselves are not recorded: at commit they are the
    /// [`RelationDelta::diff`] of the relation before and after the
    /// write. The name is copied into a key the first time a write
    /// touches the relation; a relation already reset stays reset.
    pub fn record_rows(&mut self, relation: &str) {
        if !self.relations.contains_key(relation) {
            self.relations.insert(
                relation.to_string(),
                RelationChange::Rows(RelationDelta::new()),
            );
        }
    }

    /// Record a wholesale change to one relation. Reset absorbs any
    /// row-level changes already recorded for the same relation.
    pub fn record_reset(&mut self, relation: &str) {
        self.relations
            .insert(relation.to_string(), RelationChange::Reset);
    }

    /// Record a mutation of one domain graph.
    pub fn record_domain(&mut self, domain: &str) {
        self.domains.insert(domain.to_string());
    }

    /// Fill in the row-level entries: each relation recorded as written
    /// gets the [`RelationDelta::diff`] of its tuples in `pre` and in
    /// `post` — the net effect, however many times the write touched an
    /// item, found by comparing the paths the write copied. A relation
    /// missing on either side resets.
    pub fn net_rows(&mut self, pre: &Catalog, post: &Catalog) {
        for (name, change) in &mut self.relations {
            if let RelationChange::Rows(rows) = change {
                match (pre.relation(name), post.relation(name)) {
                    (Ok(pre), Ok(post)) => *rows = RelationDelta::diff(pre, post),
                    _ => *change = RelationChange::Reset,
                }
            }
        }
    }

    /// Record the names `other` records, as this delta's write touching
    /// them too: a reset stays a reset, rows are left to
    /// [`net_rows`](Delta::net_rows).
    pub fn absorb(&mut self, other: Delta) {
        for (name, change) in other.relations {
            match change {
                RelationChange::Reset => {
                    self.relations.insert(name, RelationChange::Reset);
                }
                RelationChange::Rows(_) => {
                    self.relations
                        .entry(name)
                        .or_insert_with(|| RelationChange::Rows(RelationDelta::new()));
                }
            }
        }
        self.domains.extend(other.domains);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        g.add_instance("x", a).unwrap();
        g.add_instance("y", a).unwrap();
        Arc::new(Schema::single("D", Arc::new(g)))
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let s = schema();
        let mut old = HRelation::new(s.clone());
        old.assert_fact(&["A"], Truth::Positive).unwrap();
        old.assert_fact(&["x"], Truth::Negative).unwrap();
        let mut new = HRelation::new(s);
        new.assert_fact(&["A"], Truth::Positive).unwrap();
        new.assert_fact(&["y"], Truth::Positive).unwrap();
        // x removed, y added, A unchanged.
        let d = RelationDelta::diff(&old, &new);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        let mut patched = old.clone();
        d.apply_to(&mut patched);
        assert_eq!(
            patched.iter().collect::<Vec<_>>(),
            new.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn diff_captures_truth_overwrites() {
        let s = schema();
        let mut old = HRelation::new(s.clone());
        old.assert_fact(&["x"], Truth::Positive).unwrap();
        let mut new = HRelation::new(s);
        new.assert_fact(&["x"], Truth::Negative).unwrap();
        let d = RelationDelta::diff(&old, &new);
        assert_eq!(d.added.len(), 1, "overwrite reported as added");
        assert!(d.removed.is_empty());
        let mut patched = old;
        d.apply_to(&mut patched);
        assert_eq!(
            patched.iter().collect::<Vec<_>>(),
            new.iter().collect::<Vec<_>>()
        );
    }

    /// A write that edits one item more than once diffs to the change
    /// that is actually there: x retracted then re-asserted negative,
    /// y asserted then retracted, A re-asserted as stored.
    #[test]
    fn diff_keeps_only_net_changes() {
        let s = schema();
        let mut pre = HRelation::new(s);
        pre.assert_fact(&["x"], Truth::Positive).unwrap();
        pre.assert_fact(&["A"], Truth::Positive).unwrap();
        let item = |name: &str| pre.item(&[name]).unwrap();
        let mut post = pre.clone();
        post.remove(&item("x"));
        post.assert_item(item("x"), Truth::Negative).unwrap();
        post.assert_item(item("y"), Truth::Positive).unwrap();
        post.remove(&item("y"));
        post.assert_item(item("A"), Truth::Positive).unwrap();
        let d = RelationDelta::diff(&pre, &post);
        assert_eq!(d.added, [(item("x"), Truth::Negative)]);
        assert!(d.removed.is_empty());
        let mut patched = pre.clone();
        d.apply_to(&mut patched);
        assert_eq!(
            patched.iter().collect::<Vec<_>>(),
            post.iter().collect::<Vec<_>>()
        );
        // An assert-then-retract of one item nets to nothing.
        let mut undone = pre.clone();
        undone.assert_item(item("y"), Truth::Positive).unwrap();
        undone.remove(&item("y"));
        assert!(RelationDelta::diff(&pre, &undone).is_empty());
    }

    /// A touched relation is recorded with no rows until commit, and a
    /// reset absorbs it, before or after.
    #[test]
    fn reset_absorbs_touched_rows() {
        let mut delta = Delta::new();
        delta.record_rows("R");
        assert_eq!(
            delta.relations["R"],
            RelationChange::Rows(RelationDelta::new())
        );
        assert!(!delta.is_empty(), "a touched relation is a change");
        delta.record_reset("R");
        delta.record_rows("R");
        assert_eq!(delta.relations["R"], RelationChange::Reset);
        assert_eq!(delta.row_count(), 0);
        assert!(!delta.is_empty());
    }

    #[test]
    fn empty_and_counts() {
        let mut d = Delta::new();
        assert!(d.is_empty());
        d.record_domain("D");
        assert!(!d.is_empty());
        assert_eq!(d.row_count(), 0);
    }
}
