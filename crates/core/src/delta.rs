//! Structured write deltas: the unit of change a committed mutation
//! publishes alongside its epoch.
//!
//! A [`RelationDelta`] is the row-level difference between two states
//! of one relation — rows now stored (with their new truth, covering
//! both fresh inserts and truth overwrites) and rows no longer stored.
//! A [`Delta`] aggregates one write's effect across the whole catalog:
//! per-relation changes plus the names of any mutated domain graphs.
//!
//! Deltas are what incremental view maintenance
//! ([`crate::differential`]) consumes: row changes flow through the
//! differential operators, while a [`RelationChange::Reset`] or a
//! domain edit signals that the cheap row-level path does not apply
//! and maintenance must fall back to full recomputation.

use std::collections::{BTreeMap, BTreeSet};

use crate::item::Item;
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

    /// Compute the exact row delta between two relations over the same
    /// schema: `diff(old, new)` applied to `old` yields `new`.
    pub fn diff(old: &HRelation, new: &HRelation) -> RelationDelta {
        let mut delta = RelationDelta::new();
        for (item, truth) in new.iter() {
            if old.stored(item) != Some(truth) {
                delta.added.push((item.clone(), truth));
            }
        }
        for (item, _) in old.iter() {
            if new.stored(item).is_none() {
                delta.removed.push(item.clone());
            }
        }
        delta
    }

    /// Rewrite this delta as the *net* change to the items it touches
    /// between `pre` and `post`, the relation before and after the
    /// write that recorded it. Edits are recorded in two unordered
    /// lists, so a write that asserts and then retracts one item (or
    /// re-asserts what is stored) would otherwise apply as something it
    /// did not do; afterwards `apply_to(pre)` yields `post`, and every
    /// listed row is a real difference.
    pub fn normalise(&mut self, pre: &HRelation, post: &HRelation) {
        let mut touched: Vec<Item> = self
            .added
            .drain(..)
            .map(|(item, _)| item)
            .chain(self.removed.drain(..))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for item in touched {
            match (pre.stored(&item), post.stored(&item)) {
                (before, after) if before == after => {}
                (_, Some(truth)) => self.added.push((item, truth)),
                (_, None) => self.removed.push(item),
            }
        }
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

    /// The row delta of `relation`, created empty on its first row (the
    /// one time its name is copied into a key); `None` once the
    /// relation is reset.
    fn rows_mut(&mut self, relation: &str) -> Option<&mut RelationDelta> {
        if !self.relations.contains_key(relation) {
            self.relations.insert(
                relation.to_string(),
                RelationChange::Rows(RelationDelta::new()),
            );
        }
        match self.relations.get_mut(relation) {
            Some(RelationChange::Rows(d)) => Some(d),
            _ => None,
        }
    }

    /// Record one asserted (or truth-overwritten) row.
    pub fn record_added(&mut self, relation: &str, item: Item, truth: Truth) {
        if let Some(d) = self.rows_mut(relation) {
            d.added.push((item, truth));
        }
    }

    /// Record one retracted row.
    pub fn record_removed(&mut self, relation: &str, item: Item) {
        if let Some(d) = self.rows_mut(relation) {
            d.removed.push(item);
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

    /// Edits recorded in an order the two lists cannot express come out
    /// as the difference that is actually there.
    #[test]
    fn normalise_keeps_only_net_changes() {
        let s = schema();
        let mut pre = HRelation::new(s.clone());
        pre.assert_fact(&["x"], Truth::Positive).unwrap();
        let mut post = HRelation::new(s);
        post.assert_fact(&["x"], Truth::Negative).unwrap();
        let item = |name: &str| pre.item(&[name]).unwrap();
        // x retracted then re-asserted negative, y asserted then
        // retracted, A re-asserted as stored (absent before and after).
        let mut d = RelationDelta {
            added: vec![
                (item("x"), Truth::Negative),
                (item("y"), Truth::Positive),
                (item("A"), Truth::Positive),
            ],
            removed: vec![item("x"), item("y"), item("A")],
        };
        d.normalise(&pre, &post);
        assert_eq!(d.added, [(item("x"), Truth::Negative)]);
        assert!(d.removed.is_empty());
        let mut patched = pre.clone();
        d.apply_to(&mut patched);
        assert_eq!(
            patched.iter().collect::<Vec<_>>(),
            post.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_absorbs_row_changes() {
        let s = schema();
        let item = {
            let mut r = HRelation::new(s);
            r.assert_fact(&["x"], Truth::Positive).unwrap();
            let x = r.items().next().unwrap().clone();
            x
        };
        let mut delta = Delta::new();
        delta.record_added("R", item.clone(), Truth::Positive);
        delta.record_reset("R");
        delta.record_added("R", item, Truth::Negative);
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
