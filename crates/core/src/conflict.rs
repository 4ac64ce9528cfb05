//! Conflict detection and the §3.1 conflict-resolution sets.
//!
//! "If, for an item, there are multiple tuples of differing truth values
//! as its immediate predecessors in the tuple-binding graph, (and there
//! is no tuple associated with the item itself), then we have a
//! conflict. We treat such a conflict as an inconsistent state of the
//! database and do not permit it."
//!
//! Detection is *optimistic* (§3.1): two classes are assumed disjoint
//! unless a defined node of the hierarchy — an instance, or a class
//! "whether or not there exist any instances of this class" — is a
//! subset of both. Every conflicted item is a common descendant of an
//! opposite-truth tuple pair, so scanning the common descendants of all
//! such pairs and evaluating their bindings is a complete check in every
//! preemption mode.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::binding::Binding;
use crate::item::Item;
use crate::relation::HRelation;
use crate::schema::Schema;
use crate::stats;
use crate::truth::Truth;

/// An ambiguity-constraint violation at one item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The item whose strongest binders disagree.
    pub item: Item,
    /// Immediate predecessors asserting the relation holds.
    pub positive: Vec<Item>,
    /// Immediate predecessors asserting it does not.
    pub negative: Vec<Item>,
}

/// The common descendants (instances *and* classes) of two items in the
/// product item hierarchy: the Cartesian product of the per-attribute
/// common-descendant sets (endpoints included when subsumed).
///
/// This is §3.1's *complete conflict resolution set* `C` for the pair:
/// asserting a tuple for every member resolves the pair's conflict.
pub fn complete_resolution_set(schema: &Schema, a: &Item, b: &Item) -> Vec<Item> {
    let axes: Vec<Vec<hrdm_hierarchy::NodeId>> = (0..schema.arity())
        .map(|i| {
            schema
                .domain(i)
                .intersection_candidates(a.component(i), b.component(i))
        })
        .collect();
    if axes.iter().any(|ax| ax.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cursor = vec![0usize; axes.len()];
    loop {
        let item = Item::new(cursor.iter().zip(&axes).map(|(&c, ax)| ax[c]).collect());
        // C excludes the conflicting items themselves (they are not
        // subsets of each other when incomparable; guard for the
        // comparable case).
        if item != *a && item != *b {
            out.push(item);
        }
        let mut pos = axes.len();
        loop {
            if pos == 0 {
                out.sort();
                return out;
            }
            pos -= 1;
            cursor[pos] += 1;
            if cursor[pos] < axes[pos].len() {
                break;
            }
            cursor[pos] = 0;
        }
    }
}

/// §3.1's *minimal conflict resolution set* `M`: the members of the
/// complete set not strictly contained in another member. "The minimal
/// conflict resolution set can be derived uniquely from \[C\] by virtue of
/// the transitivity of subsumption."
pub fn minimal_resolution_set(schema: &Schema, a: &Item, b: &Item) -> Vec<Item> {
    let complete = complete_resolution_set(schema, a, b);
    let product = schema.product();
    complete
        .iter()
        .filter(|x| {
            !complete
                .iter()
                .any(|y| *y != **x && product.subsumes(y.components(), x.components()))
        })
        .cloned()
        .collect()
}

/// Find every conflicted item in `relation` (§3.1's ambiguity
/// constraint), in deterministic item order.
pub fn find_conflicts(relation: &HRelation) -> Vec<Conflict> {
    let mut span = hrdm_obs::span!("core.conflict");
    let start = Instant::now();
    let candidates = conflict_candidates(relation);
    if span.is_active() {
        span.field_u64("candidates", candidates.len() as u64);
    }
    let out = candidates
        .into_iter()
        .filter_map(|item| match relation.bind(&item) {
            Binding::Conflict { positive, negative } => Some(Conflict {
                item,
                positive,
                negative,
            }),
            _ => None,
        })
        .collect();
    stats::record_conflict(start.elapsed());
    out
}

/// Is the relation free of unresolved conflicts?
pub fn is_consistent(relation: &HRelation) -> bool {
    let mut span = hrdm_obs::span!("core.conflict");
    let start = Instant::now();
    let candidates = conflict_candidates(relation);
    if span.is_active() {
        span.field_u64("candidates", candidates.len() as u64);
    }
    let consistent = !candidates
        .iter()
        .any(|item| relation.verdict(item).is_conflict());
    stats::record_conflict(start.elapsed());
    consistent
}

/// Candidate items at which a conflict could possibly occur: the common
/// descendants of every opposite-truth tuple pair, minus items with
/// stored tuples (those bind explicitly).
fn conflict_candidates(relation: &HRelation) -> BTreeSet<Item> {
    let schema = relation.schema();
    let tuples: Vec<(Item, Truth)> = relation.iter().map(|(i, t)| (i.clone(), t)).collect();
    let mut candidates = BTreeSet::new();
    for (i, (a, ta)) in tuples.iter().enumerate() {
        for (b, tb) in tuples.iter().skip(i + 1) {
            if ta == tb {
                continue;
            }
            for item in complete_resolution_set(schema, a, b) {
                if !relation.contains(&item) {
                    candidates.insert(item);
                }
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    /// Figs. 2–3: Students × Teachers.
    fn respects_base() -> HRelation {
        let mut s = HierarchyGraph::new("Student");
        let ob = s.add_class("Obsequious Student", s.root()).unwrap();
        s.add_instance("John", ob).unwrap();
        let mut t = HierarchyGraph::new("Teacher");
        t.add_class("Incoherent Teacher", t.root()).unwrap();
        let schema = Arc::new(Schema::new(vec![
            Attribute::new("Student", Arc::new(s)),
            Attribute::new("Teacher", Arc::new(t)),
        ]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Obsequious Student", "Teacher"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Student", "Incoherent Teacher"], Truth::Negative)
            .unwrap();
        r
    }

    #[test]
    fn fig3_conflict_detected_without_resolver() {
        // "Given that all Obsequious students respect all teachers, and
        // that no student respects any incoherent teacher, we cannot
        // determine whether obsequious students respect incoherent
        // teachers."
        let r = respects_base();
        let conflicts = find_conflicts(&r);
        assert!(!is_consistent(&r));
        // Conflicts at (ObsStudent, IncoTeacher) and at (John,
        // IncoTeacher) — both common descendants without stored tuples.
        let items: Vec<&Item> = conflicts.iter().map(|c| &c.item).collect();
        let oi = r
            .item(&["Obsequious Student", "Incoherent Teacher"])
            .unwrap();
        let ji = r.item(&["John", "Incoherent Teacher"]).unwrap();
        assert!(items.contains(&&oi));
        assert!(items.contains(&&ji));
        // Each conflict cites both sides.
        let c = conflicts.iter().find(|c| c.item == oi).unwrap();
        assert_eq!(c.positive.len(), 1);
        assert_eq!(c.negative.len(), 1);
    }

    #[test]
    fn fig3_resolver_restores_consistency() {
        // "The conflict is resolved through an explicit tuple asserting
        // that all obsequious students do indeed respect all incoherent
        // teachers."
        let mut r = respects_base();
        r.assert_fact(
            &["Obsequious Student", "Incoherent Teacher"],
            Truth::Positive,
        )
        .unwrap();
        assert!(is_consistent(&r));
        assert!(find_conflicts(&r).is_empty());
    }

    #[test]
    fn resolution_sets_for_fig3() {
        let r = respects_base();
        let a = r.item(&["Obsequious Student", "Teacher"]).unwrap();
        let b = r.item(&["Student", "Incoherent Teacher"]).unwrap();
        let complete = complete_resolution_set(r.schema(), &a, &b);
        // ObsStudent×IncoTeacher, John×IncoTeacher.
        assert_eq!(complete.len(), 2);
        let minimal = minimal_resolution_set(r.schema(), &a, &b);
        assert_eq!(
            minimal,
            vec![r
                .item(&["Obsequious Student", "Incoherent Teacher"])
                .unwrap()]
        );
    }

    #[test]
    fn optimistic_disjoint_classes_do_not_conflict() {
        // §3.1: sets are assumed disjoint without evidence.
        let mut g = HierarchyGraph::new("D");
        g.add_class("A", g.root()).unwrap();
        g.add_class("B", g.root()).unwrap();
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        assert!(is_consistent(&r));
    }

    #[test]
    fn empty_intersection_class_forces_pessimism() {
        // §3.1: "Through the creation of empty intersection classes
        // wherever appropriate, a front-end could force a more
        // pessimistic integrity maintenance."
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_class_multi("A∩B", &[a, b]).unwrap(); // no instances!
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        let conflicts = find_conflicts(&r);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].item, r.item(&["A∩B"]).unwrap());
    }

    #[test]
    fn comparable_opposite_tuples_are_exceptions_not_conflicts() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        g.add_instance("x", b).unwrap();
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap(); // exception
        assert!(is_consistent(&r));
    }

    #[test]
    fn no_preemption_conflicts_everywhere_below_mixed_tuples() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        g.add_instance("x", b).unwrap();
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::with_preemption(schema, crate::preemption::Preemption::NoPreemption);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        // Under no-preemption even the comparable pair conflicts at x.
        let conflicts = find_conflicts(&r);
        assert!(conflicts.iter().any(|c| c.item == r.item(&["x"]).unwrap()));
    }

    #[test]
    fn resolution_set_empty_for_provably_disjoint_items() {
        let r = respects_base();
        let john_any = r.item(&["John", "Teacher"]).unwrap();
        // Another student would be disjoint from John; simulate with the
        // pair (John, T) vs (John, T) trivial case instead: complete set
        // of an item with itself excludes the item, leaving descendants.
        let c = complete_resolution_set(r.schema(), &john_any, &john_any);
        // Descendants of (John, Teacher): (John, IncoTeacher).
        assert_eq!(c, vec![r.item(&["John", "Incoherent Teacher"]).unwrap()]);
    }

    #[test]
    fn stored_tuple_on_candidate_suppresses_conflict_there_only() {
        let mut r = respects_base();
        // Resolve only at the class level; John inherits the resolution.
        r.assert_fact(
            &["Obsequious Student", "Incoherent Teacher"],
            Truth::Positive,
        )
        .unwrap();
        assert!(is_consistent(&r));
        let ji = r.item(&["John", "Incoherent Teacher"]).unwrap();
        assert_eq!(r.bind(&ji).truth(), Some(Truth::Positive));
    }
}
