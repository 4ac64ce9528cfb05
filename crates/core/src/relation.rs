//! Hierarchical relations: sets of truth-valued tuples (§2).
//!
//! "Rather than store every individual tuple that satisfies the
//! predicate, we would like, in our model, to store only a few tuples,
//! each of which represents many ordered sets of attribute-value
//! mappings that satisfy the predicate."
//!
//! A [`HRelation`] stores tuples in a [`PMap<Item, Truth>`](PMap):
//! set semantics (duplicate elimination exactly as in flat relations,
//! §3.2) with deterministic iteration order. An item may carry only one
//! truth value at a time — asserting the opposite truth for the *same*
//! item is a contradiction, rejected by [`HRelation::assert_item`]
//! (use [`HRelation::insert`] to overwrite deliberately).
//!
//! The map is persistent, so `clone` copies no tuple — the clone and
//! the original share the whole tuple tree — and a single-tuple update
//! (§3.1's unit of change) on a relation a published snapshot still
//! shares copies one root-to-leaf path, not the relation. A write that
//! would store what is already stored touches nothing.

use std::sync::Arc;

use hrdm_hierarchy::{NodeId, SpillVec, ANCESTORS_INLINE};

use crate::binding::{bind, verdict, Binding, Verdict};
use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::pmap::PMap;
use crate::preemption::Preemption;
use crate::schema::Schema;
use crate::truth::Truth;
use crate::tuple::Tuple;

/// What one tuple-map probe costs, in stored tuples scanned with
/// `reaches`: [`HRelation::above`] walks `q`'s ancestors only while
/// ∏ |ancestors| × `PROBE_COST` < [`HRelation::len`]. A constant, not a
/// setting; DESIGN.md §6.3 has the measurement behind the value.
pub const PROBE_COST: usize = 8;

/// Stored tuples reaching a point that [`HRelation::candidates`] holds
/// in place before it moves to the heap.
const CANDIDATES_INLINE: usize = 16;

/// The stored tuples that reach a point, borrowed from the relation, in
/// item order: what [`HRelation::candidates`] returns.
pub(crate) type Candidates<'r> = SpillVec<(&'r Item, Truth), CANDIDATES_INLINE>;

/// A point's binding ancestors, one sorted run per component, back to
/// back in one list held in place while it fits.
struct Axes {
    nodes: SpillVec<NodeId, ANCESTORS_INLINE>,
    /// Where each component's run ends in `nodes`; in place up to the
    /// arity an `Item` holds in place.
    ends: SpillVec<usize, 4>,
}

impl Axes {
    /// Component `i`'s binding ancestors.
    fn axis(&self, i: usize) -> &[NodeId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.nodes[start..self.ends[i]]
    }
}

/// A hierarchical relation: a set of truth-valued tuples over a shared
/// schema, evaluated under a chosen [`Preemption`] semantics.
#[derive(Clone)]
pub struct HRelation {
    schema: Arc<Schema>,
    tuples: PMap<Item, Truth>,
    preemption: Preemption,
}

impl HRelation {
    /// An empty relation with the paper's default (off-path) semantics.
    pub fn new(schema: Arc<Schema>) -> HRelation {
        HRelation::with_preemption(schema, Preemption::OffPath)
    }

    /// An empty relation with explicit preemption semantics.
    pub fn with_preemption(schema: Arc<Schema>, preemption: Preemption) -> HRelation {
        HRelation {
            schema,
            tuples: PMap::new(),
            preemption,
        }
    }

    /// The shared schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The preemption semantics in force.
    #[inline]
    pub fn preemption(&self) -> Preemption {
        self.preemption
    }

    /// Switch preemption semantics (reinterprets the stored tuples; no
    /// data changes).
    pub fn set_preemption(&mut self, p: Preemption) {
        self.preemption = p;
    }

    /// Number of stored tuples (not the extension size!).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Resolve per-attribute node names into an item (see
    /// [`Schema::item`]).
    pub fn item<S: AsRef<str>>(&self, names: &[S]) -> Result<Item> {
        self.schema.item(names)
    }

    /// Insert or overwrite a tuple; returns the previous truth value of
    /// the item, if any.
    pub fn insert(&mut self, tuple: Tuple) -> Result<Option<Truth>> {
        self.schema.check_item(&tuple.item)?;
        Ok(self.tuples.insert(tuple.item, tuple.truth))
    }

    /// Insert a tuple, rejecting a contradictory re-assertion of the
    /// same item (idempotent for identical assertions, which leave the
    /// tuple tree untouched).
    pub fn assert_item(&mut self, item: Item, truth: Truth) -> Result<()> {
        self.schema.check_item(&item)?;
        match self.tuples.get(&item) {
            Some(&t) if t != truth => Err(CoreError::ContradictoryAssertion(item)),
            Some(_) => Ok(()),
            None => {
                self.tuples.insert(item, truth);
                Ok(())
            }
        }
    }

    /// Name-based convenience for [`HRelation::assert_item`].
    pub fn assert_fact(&mut self, names: &[&str], truth: Truth) -> Result<()> {
        let item = self.schema.item(names)?;
        self.assert_item(item, truth)
    }

    /// Remove the tuple stored for `item`, returning its truth value.
    pub fn remove(&mut self, item: &Item) -> Option<Truth> {
        self.tuples.remove(item)
    }

    /// The truth value *stored* for exactly this item (no inheritance —
    /// see [`HRelation::bind`] for the inherited truth).
    pub fn stored(&self, item: &Item) -> Option<Truth> {
        self.tuples.get(item).copied()
    }

    /// Is a tuple stored for exactly this item?
    pub fn contains(&self, item: &Item) -> bool {
        self.tuples.contains_key(item)
    }

    /// Iterate stored tuples in deterministic (item) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Item, Truth)> {
        self.tuples.iter().map(|(i, &t)| (i, t))
    }

    /// Stored tuples as owned values, in deterministic order.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.tuples
            .iter()
            .map(|(i, &t)| Tuple::new(i.clone(), t))
            .collect()
    }

    /// Just the stored items, in deterministic order.
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.tuples.keys()
    }

    /// The truth value `item` receives under inheritance with
    /// exceptions: explicit tuple, strongest-binding inherited tuple(s),
    /// conflict, or unspecified. This is the paper's tuple-binding-graph
    /// lookup (§2.1), naming the binders; [`HRelation::verdict`] is the
    /// same lookup without them.
    pub fn bind(&self, item: &Item) -> Binding {
        match self.stored(item) {
            Some(t) => Binding::Explicit(t),
            None => bind(self, item, &self.candidates(item)),
        }
    }

    /// [`bind`](HRelation::bind) without the binders: the truth `item`
    /// receives (stored or inherited), a conflict, or unspecified. What
    /// a point query answers; with off-path or no preemption, for a
    /// point with at most [`ANCESTORS_INLINE`] binding ancestors of
    /// which at most 16 are stored, it allocates nothing.
    pub fn verdict(&self, item: &Item) -> Verdict {
        match self.stored(item) {
            Some(t) => Verdict::Truth(t),
            None => verdict(self, item, &self.candidates(item)),
        }
    }

    /// Does the relation hold for `item`?
    ///
    /// Closed-world reading: positive binding → `true`; negative,
    /// conflicting, or unspecified → `false`. Use
    /// [`crate::three_valued::holds3`] for the §4 three-valued reading.
    pub fn holds(&self, item: &Item) -> bool {
        self.verdict(item).truth() == Some(Truth::Positive)
    }

    /// The stored tuples whose item reaches `q` in binding reachability
    /// (subset and preference edges): `q`'s own tuple and every tuple
    /// that can bind it (§2.1), in stored (item) order.
    ///
    /// Each call takes the cheaper of two ways to the same list. While
    /// the product of `q`'s per-component ancestor counts
    /// ([`binding_ancestors`](hrdm_hierarchy::HierarchyGraph::binding_ancestors))
    /// times [`PROBE_COST`] stays below [`len`](HRelation::len), it
    /// probes the tuple map once per combination of ancestors.
    /// Otherwise it scans every stored tuple with
    /// [`reaches`](hrdm_hierarchy::ProductHierarchy::reaches). Either
    /// way the list is found borrowed and held in place, as
    /// [`verdict`](HRelation::verdict) uses it, and copied out here.
    pub fn above(&self, q: &Item) -> Vec<(Item, Truth)> {
        self.candidates(q)
            .iter()
            .map(|&(x, t)| (x.clone(), t))
            .collect()
    }

    /// [`above`](HRelation::above)`(q)`, borrowed from the relation and
    /// held in place while it fits: the one walk (or scan) behind
    /// `above`, [`bind`](HRelation::bind) and
    /// [`verdict`](HRelation::verdict).
    pub(crate) fn candidates(&self, q: &Item) -> Candidates<'_> {
        let mut hits = Candidates::new();
        match self.ancestor_axes(q) {
            Some(axes) => self.probe_each(&mut q.clone(), &axes, 0, &mut hits),
            None => {
                let product = self.schema.product();
                for (x, t) in self.iter() {
                    if product.reaches(x.components(), q.components()) {
                        hits.push((x, t));
                    }
                }
            }
        }
        hits
    }

    /// `q`'s binding ancestors, one sorted run per component, or `None`
    /// as soon as probing every combination would cost as much as the
    /// scan.
    fn ancestor_axes(&self, q: &Item) -> Option<Axes> {
        // The largest product of run lengths the walk may reach.
        let mut budget = self.len().checked_sub(1)? / PROBE_COST;
        let mut axes = Axes {
            nodes: SpillVec::new(),
            ends: SpillVec::new(),
        };
        for (&x, g) in q
            .components()
            .iter()
            .zip(self.schema.product().components())
        {
            let start = axes.nodes.len();
            if !g.binding_ancestors_into(x, budget, &mut axes.nodes) {
                return None;
            }
            budget /= axes.nodes.len() - start;
            axes.ends.push(axes.nodes.len());
        }
        Some(axes)
    }

    /// Probe the tuple map at every combination of `axes` from
    /// component `i` on, the last component varying fastest. Each run
    /// is sorted, so the hits come out in item order, as the scan lists
    /// them.
    fn probe_each<'r>(&'r self, key: &mut Item, axes: &Axes, i: usize, hits: &mut Candidates<'r>) {
        if i == axes.ends.len() {
            if let Some((x, &t)) = self.tuples.get_key_value(key) {
                hits.push((x, t));
            }
            return;
        }
        for &node in axes.axis(i) {
            key.set_component(i, node);
            self.probe_each(key, axes, i + 1, hits);
        }
    }

    /// Replace the entire tuple set (used by the physical operators —
    /// explicate, project — which rewrite a relation's form), built in
    /// one pass when `tuples` arrive in item order.
    pub(crate) fn replace_tuples(&mut self, tuples: impl IntoIterator<Item = (Item, Truth)>) {
        self.tuples = tuples.into_iter().collect();
    }

    /// The same tuples under `schema` — the old schema with one or more
    /// domain graphs replaced by grown versions of themselves (a class,
    /// instance or preference edge was added). The tuple tree is shared,
    /// not rebuilt: node ids are append-only, so every stored item
    /// means the same nodes in the grown graphs.
    pub fn rebased(&self, schema: Arc<Schema>) -> HRelation {
        debug_assert!(
            self.items().all(|item| schema.check_item(item).is_ok()),
            "a rebased relation's items must be valid in the new schema"
        );
        HRelation {
            schema,
            tuples: self.tuples.clone(),
            preemption: self.preemption,
        }
    }

    /// The tuple tree itself, for [`RelationDelta::diff`](crate::delta::RelationDelta::diff).
    pub(crate) fn tuple_map(&self) -> &PMap<Item, Truth> {
        &self.tuples
    }

    /// Do the two relations share one tuple tree — not merely equal
    /// tuples? True for a clone (or a [`rebased`](HRelation::rebased)
    /// copy) until either side's tuples change.
    pub fn shares_tuples_with(&self, other: &HRelation) -> bool {
        self.tuples.ptr_eq(&other.tuples)
    }

    /// Build a relation from stored tuples in one pass — what a
    /// persisted image decodes into. Every item is checked against the
    /// schema; a later tuple for the same item replaces an earlier one,
    /// as repeated [`insert`](HRelation::insert) would.
    pub fn from_stored(
        schema: Arc<Schema>,
        preemption: Preemption,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<HRelation> {
        let tuples = tuples
            .into_iter()
            .map(|t| schema.check_item(&t.item).map(|()| (t.item, t.truth)))
            .collect::<Result<PMap<Item, Truth>>>()?;
        Ok(HRelation {
            schema,
            tuples,
            preemption,
        })
    }

    /// Build a relation from parts, checking every item and rejecting
    /// contradictory duplicates.
    pub fn from_tuples(
        schema: Arc<Schema>,
        preemption: Preemption,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<HRelation> {
        let mut r = HRelation::with_preemption(schema, preemption);
        for t in tuples {
            r.assert_item(t.item, t.truth)?;
        }
        Ok(r)
    }
}

impl std::fmt::Debug for HRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "HRelation {:?} [{}]", self.schema, self.preemption)?;
        for (item, truth) in self.iter() {
            writeln!(f, "  {} {}", truth.sign(), self.schema.display_item(item))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use hrdm_hierarchy::HierarchyGraph;

    fn flying_schema() -> Arc<Schema> {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        g.add_instance("Paul", penguin).unwrap();
        Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]))
    }

    #[test]
    fn insert_remove_len() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        assert!(r.is_empty());
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        assert_eq!(r.len(), 1);
        let bird = r.item(&["Bird"]).unwrap();
        assert_eq!(r.stored(&bird), Some(Truth::Positive));
        assert!(r.contains(&bird));
        assert_eq!(r.remove(&bird), Some(Truth::Positive));
        assert!(r.is_empty());
        assert_eq!(r.remove(&bird), None);
    }

    #[test]
    fn duplicate_assertion_is_idempotent() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        assert_eq!(r.len(), 1, "set semantics: duplicates eliminated");
    }

    #[test]
    fn contradictory_assertion_rejected() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        assert!(matches!(
            r.assert_fact(&["Bird"], Truth::Negative),
            Err(CoreError::ContradictoryAssertion(_))
        ));
        // insert() may overwrite deliberately.
        let bird = r.item(&["Bird"]).unwrap();
        let old = r.insert(Tuple::negative(bird.clone())).unwrap();
        assert_eq!(old, Some(Truth::Positive));
        assert_eq!(r.stored(&bird), Some(Truth::Negative));
    }

    #[test]
    fn iteration_is_deterministic_and_sorted() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        let items: Vec<Item> = r.items().cloned().collect();
        let mut sorted = items.clone();
        sorted.sort();
        assert_eq!(items, sorted);
        assert_eq!(r.tuples().len(), 2);
    }

    #[test]
    fn from_tuples_checks_contradictions() {
        let s = flying_schema();
        let bird = s.item(&["Bird"]).unwrap();
        let result = HRelation::from_tuples(
            s.clone(),
            Preemption::OffPath,
            vec![Tuple::positive(bird.clone()), Tuple::negative(bird)],
        );
        assert!(matches!(result, Err(CoreError::ContradictoryAssertion(_))));
    }

    #[test]
    fn arity_checked_on_insert() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        let bad = Item::new(vec![]);
        assert!(matches!(
            r.assert_item(bad, Truth::Positive),
            Err(CoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn debug_renders_signs_and_items() {
        let s = flying_schema();
        let mut r = HRelation::new(s);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        let d = format!("{r:?}");
        assert!(d.contains("+ ∀Bird"));
        assert!(d.contains("- ∀Penguin"));
        assert!(d.contains("off-path"));
    }
}
