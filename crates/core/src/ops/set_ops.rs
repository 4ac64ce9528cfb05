//! Set operations (§3.4, Fig. 10).
//!
//! "Set operations apply to the explicated item sets represented by the
//! relations, and not to the actual set of tuples physically used to
//! store the relations." The implementation nevertheless stays
//! hierarchical: candidate result items are the stored items of both
//! arguments, each assigned the Boolean combination of the truths it
//! *binds to* in the two arguments; a §3.1 conflict-resolution fixpoint
//! then synthesizes tuples at common descendants where incomparable
//! candidates disagree. Results may contain redundant tuples —
//! "redundant tuples are present in the result even when there were no
//! redundant tuples in the arguments" — removable by a following
//! consolidate.

use std::collections::BTreeSet;

use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::ops::{class_holds, resolve_conflicts_fixpoint};
use crate::relation::HRelation;
use crate::truth::Truth;
use crate::tuple::Tuple;

fn combine(
    left: &HRelation,
    right: &HRelation,
    op: impl Fn(bool, bool) -> bool + Copy,
) -> Result<HRelation> {
    if !left.schema().compatible(right.schema()) {
        return Err(CoreError::SchemaMismatch);
    }
    let mut span = hrdm_obs::span!("core.set_ops.combine");
    if span.is_active() {
        span.field_u64("pairs", (left.len() * right.len()) as u64);
    }
    let mut candidates: BTreeSet<Item> = BTreeSet::new();
    candidates.extend(left.items().cloned());
    candidates.extend(right.items().cloned());
    // Pairwise intersections across the two relations: the op's outcome
    // can change exactly where one relation's tuple region meets the
    // other's (e.g. the intersection of two incomparable positive
    // classes holds only strictly below both), so those meeting items
    // must be candidates too.
    let schema = left.schema();
    for (li, _) in left.iter() {
        for (ri, _) in right.iter() {
            for item in crate::ops::restrict(schema, li, ri) {
                candidates.insert(item);
            }
        }
    }

    let truth_of = |item: &Item| -> Result<Truth> {
        let l = class_holds(left, item)?;
        let r = class_holds(right, item)?;
        Ok(Truth::from_bool(op(l, r)))
    };

    let mut result = HRelation::with_preemption(left.schema().clone(), left.preemption());
    for item in candidates {
        let t = truth_of(&item)?;
        result.insert(Tuple::new(item, t))?;
    }
    // Selections and joins run the same fixpoint; a set operator's
    // trace splits it out of the operator's own time.
    let mut fixpoint = hrdm_obs::span!("core.conflict.fixpoint");
    let done = resolve_conflicts_fixpoint(&mut result, truth_of)?;
    if fixpoint.is_active() {
        fixpoint.field_u64("rounds", done.rounds);
        fixpoint.field_u64("pairs", done.pairs);
    }
    Ok(result)
}

/// Union: holds where either argument holds (Fig. 10c, "Jack and Jill
/// between them love").
pub fn union(left: &HRelation, right: &HRelation) -> Result<HRelation> {
    combine(left, right, |l, r| l || r)
}

/// Intersection: holds where both arguments hold (Fig. 10d, "Jack and
/// Jill both love").
pub fn intersection(left: &HRelation, right: &HRelation) -> Result<HRelation> {
    combine(left, right, |l, r| l && r)
}

/// Difference: holds where `left` holds and `right` does not
/// (Figs. 10e/f, "Jack loves but Jill does not").
pub fn difference(left: &HRelation, right: &HRelation) -> Result<HRelation> {
    combine(left, right, |l, r| l && !r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::consolidate;
    use crate::flat::flatten;
    use crate::ops::test_fixtures::{animal_schema, flying};

    /// Fig. 10a/b over the Fig. 1 taxonomy: what Jack and Jill love.
    fn jack_and_jill() -> (HRelation, HRelation) {
        let schema = animal_schema();
        // Jack loves birds, except penguins, but does love Peter.
        let mut jack = HRelation::new(schema.clone());
        jack.assert_fact(&["Bird"], Truth::Positive).unwrap();
        jack.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        jack.assert_fact(&["Peter"], Truth::Positive).unwrap();
        // Jill loves penguins.
        let mut jill = HRelation::new(schema);
        jill.assert_fact(&["Penguin"], Truth::Positive).unwrap();
        (jack, jill)
    }

    fn flat_op(
        a: &HRelation,
        b: &HRelation,
        op: impl Fn(bool, bool) -> bool,
    ) -> std::collections::BTreeSet<Item> {
        let fa = flatten(a);
        let fb = flatten(b);
        let mut all: std::collections::BTreeSet<Item> = fa.atoms().clone();
        all.extend(fb.atoms().iter().cloned());
        all.into_iter()
            .filter(|i| op(fa.contains(i), fb.contains(i)))
            .collect()
    }

    /// A set operator's trace splits its own time: the pairwise loop in
    /// `core.set_ops.combine` (|L|·|R| pairs), the conflict fixpoint
    /// inside it (one round over the result's opposite-truth pairs).
    #[test]
    fn a_set_operator_traces_its_pairs_and_its_fixpoint() {
        let (jack, jill) = jack_and_jill();
        let (between_them, trace) =
            hrdm_obs::trace::capture("test", || union(&jack, &jill).unwrap());
        let nodes = trace.nodes();
        let span = |name: &str| *nodes.iter().find(|n| n.name == name).expect(name);
        let combine = span("core.set_ops.combine");
        assert_eq!(combine.field_u64("pairs"), Some(3));
        let fixpoint = span("core.conflict.fixpoint");
        assert!(combine.children.iter().any(|c| c.name == fixpoint.name));
        assert_eq!(fixpoint.field_u64("rounds"), Some(1));
        let positive = between_them.iter().filter(|&(_, t)| t == Truth::Positive);
        let positive = positive.count() as u64;
        let negative = between_them.len() as u64 - positive;
        assert_eq!(fixpoint.field_u64("pairs"), Some(positive * negative));
    }

    #[test]
    fn fig10c_union() {
        let (jack, jill) = jack_and_jill();
        let between_them = union(&jack, &jill).unwrap();
        assert_eq!(
            flatten(&between_them).atoms(),
            &flat_op(&jack, &jill, |l, r| l || r)
        );
        // Every bird: Tweety, and all four penguins.
        assert_eq!(flatten(&between_them).len(), 5);
    }

    #[test]
    fn fig10d_intersection() {
        let (jack, jill) = jack_and_jill();
        let both = intersection(&jack, &jill).unwrap();
        assert_eq!(
            flatten(&both).atoms(),
            &flat_op(&jack, &jill, |l, r| l && r)
        );
        // Only Peter: the one penguin Jack loves.
        let schema = jack.schema();
        let atoms = flatten(&both);
        assert_eq!(atoms.len(), 1);
        assert!(atoms.contains(&schema.item(&["Peter"]).unwrap()));
    }

    #[test]
    fn fig10e_difference_jack_not_jill() {
        let (jack, jill) = jack_and_jill();
        let only_jack = difference(&jack, &jill).unwrap();
        assert_eq!(
            flatten(&only_jack).atoms(),
            &flat_op(&jack, &jill, |l, r| l && !r)
        );
        // Tweety (bird, not penguin).
        let schema = jack.schema();
        assert!(flatten(&only_jack).contains(&schema.item(&["Tweety"]).unwrap()));
        assert!(!flatten(&only_jack).contains(&schema.item(&["Peter"]).unwrap()));
    }

    #[test]
    fn fig10f_difference_jill_not_jack() {
        let (jack, jill) = jack_and_jill();
        let only_jill = difference(&jill, &jack).unwrap();
        assert_eq!(
            flatten(&only_jill).atoms(),
            &flat_op(&jill, &jack, |l, r| l && !r)
        );
        // Penguins minus Peter: Paul, Patricia, Pamela.
        assert_eq!(flatten(&only_jill).len(), 3);
    }

    #[test]
    fn results_stay_condensed() {
        // The union's physical form keeps class tuples — it does not
        // degenerate into the flat extension.
        let (jack, jill) = jack_and_jill();
        let u = union(&jack, &jill).unwrap();
        assert!(u.len() <= jack.len() + jill.len() + 1);
        let schema = jack.schema();
        assert_eq!(
            u.stored(&schema.item(&["Bird"]).unwrap()),
            Some(Truth::Positive)
        );
    }

    #[test]
    fn consolidation_shrinks_set_op_results() {
        // "redundant tuples are present in the result…": +Penguin under
        // +Bird becomes redundant in the union.
        let (jack, jill) = jack_and_jill();
        let u = union(&jack, &jill).unwrap();
        let c = consolidate(&u);
        assert!(c.relation.len() < u.len());
        assert!(crate::flat::equivalent(&u, &c.relation));
    }

    #[test]
    fn conflict_fixpoint_handles_incomparable_classes() {
        // Jack loves Galapagos penguins, Jill loves amazing flying
        // penguins; difference needs a resolution tuple at Patricia.
        let schema = animal_schema();
        let mut jack = HRelation::new(schema.clone());
        jack.assert_fact(&["Galapagos Penguin"], Truth::Positive)
            .unwrap();
        let mut jill = HRelation::new(schema.clone());
        jill.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        let only_jack = difference(&jack, &jill).unwrap();
        assert_eq!(
            flatten(&only_jack).atoms(),
            &flat_op(&jack, &jill, |l, r| l && !r)
        );
        // Patricia (both) excluded, Paul (Galapagos only) included.
        assert!(flatten(&only_jack).contains(&schema.item(&["Paul"]).unwrap()));
        assert!(!flatten(&only_jack).contains(&schema.item(&["Patricia"]).unwrap()));
        // The fixpoint synthesized a tuple at Patricia.
        assert_eq!(
            only_jack.stored(&schema.item(&["Patricia"]).unwrap()),
            Some(Truth::Negative)
        );
    }

    #[test]
    fn schema_mismatch_rejected() {
        let (jack, _) = jack_and_jill();
        let other = HRelation::new(animal_schema()); // fresh Arc graph
        assert!(matches!(
            union(&jack, &other),
            Err(CoreError::SchemaMismatch)
        ));
    }

    #[test]
    fn union_with_empty_is_identity_on_the_model() {
        let (jack, _) = jack_and_jill();
        let empty = HRelation::new(jack.schema().clone());
        let u = union(&jack, &empty).unwrap();
        assert!(crate::flat::equivalent(&u, &jack));
        let i = intersection(&jack, &empty).unwrap();
        assert!(flatten(&i).is_empty());
        let d = difference(&jack, &empty).unwrap();
        assert!(crate::flat::equivalent(&d, &jack));
    }

    #[test]
    fn flying_relation_as_union_operand() {
        // Exercise a deeper exception chain through the machinery.
        let schema = animal_schema();
        let r = flying(&schema);
        let mut extra = HRelation::new(schema.clone());
        extra.assert_fact(&["Paul"], Truth::Positive).unwrap();
        let u = union(&r, &extra).unwrap();
        assert_eq!(flatten(&u).atoms(), &flat_op(&r, &extra, |l, x| l || x));
        assert!(flatten(&u).contains(&schema.item(&["Paul"]).unwrap()));
    }
}
