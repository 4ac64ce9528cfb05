//! Tuple binding: which stored tuple determines an item's truth (§2.1).
//!
//! "The nodes of the tuple-binding graph represent all tuples in the
//! relation that are relevant to the determination of the truth value of
//! the item in question. If there is a tuple associated with the item
//! itself, then the tuple binds strongest to the item in question.
//! Otherwise the strongest binding tuple(s) is the immediate
//! predecessor(s) of the item. The truth value of an item is obtained as
//! the truth value of the tuple that binds strongest to it."
//!
//! This module computes just the *strongest binders* of one item — the
//! item's immediate predecessors in its tuple-binding graph — without
//! materializing the graph; [`crate::subsumption`] builds the full
//! graphs used by consolidation and the figures from the same
//! predicate. The three preemption semantics differ only here:
//!
//! * **off-path**: an applicable tuple `x` is immediate iff the original
//!   item hierarchy has a direct edge `x → q`, or no other applicable
//!   tuple lies strictly between `x` and `q` (the closed form of the
//!   paper's node-elimination procedure, property-tested against it in
//!   the hierarchy crate);
//! * **on-path**: `x` is immediate iff some hierarchy path `x → q`
//!   avoids every other applicable tuple;
//! * **no-preemption**: every applicable tuple is immediate.

use std::borrow::Borrow;

use hrdm_hierarchy::ProductHierarchy;

use crate::item::Item;
use crate::preemption::Preemption;
use crate::relation::HRelation;
use crate::truth::Truth;

/// The outcome of looking up an item's truth value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// A tuple is stored for the item itself; it binds strongest.
    Explicit(Truth),
    /// The item inherits from its strongest-binding tuple(s), all of
    /// which agree on this truth value.
    Inherited(Truth, Vec<Item>),
    /// Ambiguity-constraint violation: strongest binders disagree.
    Conflict {
        /// Immediate predecessors asserting the relation holds.
        positive: Vec<Item>,
        /// Immediate predecessors asserting it does not.
        negative: Vec<Item>,
    },
    /// No applicable tuple: under the closed-world assumption the
    /// relation does not hold; under the §4 three-valued reading the
    /// truth is unknown.
    Unspecified,
}

impl Binding {
    /// The determined truth value, if unambiguous.
    pub fn truth(&self) -> Option<Truth> {
        self.verdict().truth()
    }

    /// Is this binding a conflict?
    pub fn is_conflict(&self) -> bool {
        matches!(self, Binding::Conflict { .. })
    }

    /// The binding without its binders.
    pub fn verdict(&self) -> Verdict {
        match self {
            Binding::Explicit(t) | Binding::Inherited(t, _) => Verdict::Truth(*t),
            Binding::Conflict { .. } => Verdict::Conflict,
            Binding::Unspecified => Verdict::Unspecified,
        }
    }
}

/// What a point query answers: the item's truth, without the binders
/// that decided it or whether it was stored. [`HRelation::verdict`]
/// finds it without building a list; [`Binding`] names the binders
/// too, for `WHY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The item's stored tuple, or every strongest binder, has this
    /// truth value.
    Truth(Truth),
    /// The strongest binders disagree.
    Conflict,
    /// No stored tuple reaches the item.
    Unspecified,
}

impl Verdict {
    /// The determined truth value, if unambiguous.
    pub fn truth(self) -> Option<Truth> {
        match self {
            Verdict::Truth(t) => Some(t),
            Verdict::Conflict | Verdict::Unspecified => None,
        }
    }

    /// Is this a conflict?
    pub fn is_conflict(self) -> bool {
        self == Verdict::Conflict
    }
}

/// The item's strongest binders: its immediate predecessors in the
/// tuple-binding graph, under the relation's preemption semantics.
///
/// Assumes no tuple is stored on `q` itself (callers check that first);
/// if one is, it would preempt everything anyway.
pub fn strongest_binders(relation: &HRelation, q: &Item) -> Vec<(Item, Truth)> {
    let candidates = relation.candidates(q);
    candidates
        .iter()
        .filter(|(x, _)| binds_immediately(relation, q, x, &candidates))
        .map(|&(x, t)| (x.clone(), t))
        .collect()
}

/// Does `x`, one of the `candidates` (the stored tuples that reach `q`),
/// bind `q` immediately — is it `q`'s predecessor in the tuple-binding
/// graph under the relation's preemption semantics? This is the one
/// place the three semantics differ: [`verdict`], [`bind`] and the
/// subsumption graphs all ask it of each candidate.
pub(crate) fn binds_immediately<I: Borrow<Item>>(
    relation: &HRelation,
    q: &Item,
    x: &Item,
    candidates: &[(I, Truth)],
) -> bool {
    if x == q {
        return false;
    }
    let product = relation.schema().product();
    match relation.preemption() {
        Preemption::NoPreemption => true,
        Preemption::OffPath => {
            product
                .direct_edge(x.components(), q.components())
                .is_some()
                || !candidates.iter().any(|(z, _)| {
                    let z = z.borrow();
                    z != x
                        && z != q
                        && product.reaches(x.components(), z.components())
                        && product.reaches(z.components(), q.components())
                })
        }
        Preemption::OnPath => path_avoiding(product, x, q, |node| {
            candidates.iter().any(|(k, _)| k.borrow() == node)
        }),
    }
}

/// Is there a hierarchy path `from → to` whose *interior* nodes avoid
/// every item `kept` accepts? (On-path preemption's immediacy test.)
///
/// BFS over product children, pruned to the interval `[to, from]` via
/// reachability, so only nodes that could lie on a path are expanded.
fn path_avoiding(
    product: &ProductHierarchy,
    from: &Item,
    to: &Item,
    kept: impl Fn(&Item) -> bool,
) -> bool {
    if from == to {
        return true;
    }
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<Item> = vec![from.clone()];
    seen.insert(from.clone());
    while let Some(node) = stack.pop() {
        for child in product.children(node.components()) {
            let child = Item::new(child);
            if child == *to {
                return true;
            }
            if seen.contains(&child) {
                continue;
            }
            // Prune to the interval: the child must still reach `to`.
            if !product.reaches(child.components(), to.components()) {
                continue;
            }
            // Interior nodes may not be kept tuples.
            if kept(&child) {
                continue;
            }
            seen.insert(child.clone());
            stack.push(child);
        }
    }
    false
}

/// The truth `q` receives in `relation` (§2.1), from `applicable`: the
/// stored tuples that reach `q`, in item order, as
/// [`HRelation::above`] lists them. It asks each of them whether it
/// binds `q` immediately and keeps only whether one that holds and one
/// that does not were found, so it allocates nothing where that
/// question does not (off-path and no-preemption semantics).
/// [`HRelation::verdict`] finds `applicable` itself.
pub fn verdict<I: Borrow<Item>>(
    relation: &HRelation,
    q: &Item,
    applicable: &[(I, Truth)],
) -> Verdict {
    if let Ok(i) = applicable.binary_search_by(|(x, _)| x.borrow().cmp(q)) {
        return Verdict::Truth(applicable[i].1);
    }
    let (mut positive, mut negative) = (false, false);
    for (x, t) in applicable {
        // A binder of a truth already found cannot change the answer.
        let found = if t.holds() {
            &mut positive
        } else {
            &mut negative
        };
        if !*found && binds_immediately(relation, q, x.borrow(), applicable) {
            *found = true;
            if positive && negative {
                return Verdict::Conflict;
            }
        }
    }
    match (positive, negative) {
        (false, false) => Verdict::Unspecified,
        (true, false) => Verdict::Truth(Truth::Positive),
        (false, true) => Verdict::Truth(Truth::Negative),
        (true, true) => Verdict::Conflict,
    }
}

/// Determine the truth value binding of `q` in `relation` (§2.1) from
/// `applicable`, as [`verdict`] does, naming the binders: the
/// immediate ones, split by truth. [`HRelation::bind`] finds
/// `applicable` itself; `WHY` ([`crate::justify::justify`]) binds from
/// the list it also prints.
pub fn bind<I: Borrow<Item>>(relation: &HRelation, q: &Item, applicable: &[(I, Truth)]) -> Binding {
    if let Ok(i) = applicable.binary_search_by(|(x, _)| x.borrow().cmp(q)) {
        return Binding::Explicit(applicable[i].1);
    }
    let (mut positive, mut negative) = (Vec::new(), Vec::new());
    for (x, t) in applicable {
        let x = x.borrow();
        if binds_immediately(relation, q, x, applicable) {
            if t.holds() {
                &mut positive
            } else {
                &mut negative
            }
            .push(x.clone());
        }
    }
    match (positive.is_empty(), negative.is_empty()) {
        (true, true) => Binding::Unspecified,
        (false, true) => Binding::Inherited(Truth::Positive, positive),
        (true, false) => Binding::Inherited(Truth::Negative, negative),
        (false, false) => Binding::Conflict { positive, negative },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    /// Fig. 1a + 1b: the flying-creatures relation.
    fn flying() -> HRelation {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let gala = g.add_class("Galapagos Penguin", penguin).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        g.add_instance("Paul", gala).unwrap();
        g.add_instance_multi("Patricia", &[gala, afp]).unwrap();
        g.add_instance("Pamela", afp).unwrap();
        g.add_instance("Peter", afp).unwrap();
        let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Peter"], Truth::Positive).unwrap();
        r
    }

    #[test]
    fn fig1_tweety_flies() {
        let r = flying();
        let tweety = r.item(&["Tweety"]).unwrap();
        let b = r.bind(&tweety);
        assert_eq!(b.truth(), Some(Truth::Positive));
        // Inherited from the Bird tuple specifically.
        match b {
            Binding::Inherited(_, binders) => {
                assert_eq!(binders, vec![r.item(&["Bird"]).unwrap()]);
            }
            other => panic!("expected inherited binding, got {other:?}"),
        }
        assert!(r.holds(&tweety));
    }

    #[test]
    fn fig1_paul_does_not_fly() {
        let r = flying();
        let paul = r.item(&["Paul"]).unwrap();
        assert_eq!(r.bind(&paul).truth(), Some(Truth::Negative));
        assert!(!r.holds(&paul));
    }

    #[test]
    fn fig1_pamela_flies_via_afp() {
        let r = flying();
        let pamela = r.item(&["Pamela"]).unwrap();
        match r.bind(&pamela) {
            Binding::Inherited(Truth::Positive, binders) => {
                assert_eq!(binders, vec![r.item(&["Amazing Flying Penguin"]).unwrap()]);
            }
            other => panic!("expected positive inheritance, got {other:?}"),
        }
    }

    #[test]
    fn fig1_peter_explicit() {
        let r = flying();
        let peter = r.item(&["Peter"]).unwrap();
        assert_eq!(r.bind(&peter), Binding::Explicit(Truth::Positive));
    }

    #[test]
    fn fig1_patricia_no_conflict() {
        // "Since nothing has been asserted about Galapagos penguins
        // specifically not being flying creatures, there is no conflict.
        // Patricia's only predecessor in the tuple binding graph is the
        // tuple regarding Amazing Flying Penguins."
        let r = flying();
        let patricia = r.item(&["Patricia"]).unwrap();
        match r.bind(&patricia) {
            Binding::Inherited(Truth::Positive, binders) => {
                assert_eq!(binders, vec![r.item(&["Amazing Flying Penguin"]).unwrap()]);
            }
            other => panic!("expected positive inheritance, got {other:?}"),
        }
    }

    #[test]
    fn fig1_patricia_conflicts_if_galapagos_negated() {
        // "However, if a tuple were to be included in the relation
        // stating that Galapagos penguins cannot fly, then we have a
        // conflict."
        let mut r = flying();
        r.assert_fact(&["Galapagos Penguin"], Truth::Negative)
            .unwrap();
        let patricia = r.item(&["Patricia"]).unwrap();
        match r.bind(&patricia) {
            Binding::Conflict { positive, negative } => {
                assert_eq!(positive, vec![r.item(&["Amazing Flying Penguin"]).unwrap()]);
                assert_eq!(negative, vec![r.item(&["Galapagos Penguin"]).unwrap()]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn unspecified_for_unrelated_item() {
        let r = flying();
        // The root Animal class is *above* every tuple: nothing binds.
        let animal = r.item(&["Animal"]).unwrap();
        assert_eq!(r.bind(&animal), Binding::Unspecified);
        assert!(!r.holds(&animal));
    }

    #[test]
    fn applicable_lists_all_reaching_tuples() {
        let r = flying();
        let patricia = r.item(&["Patricia"]).unwrap();
        let app = r.above(&patricia);
        // Bird, Penguin, AFP apply; Peter does not.
        assert_eq!(app.len(), 3);
        assert!(!app.iter().any(|(i, _)| *i == r.item(&["Peter"]).unwrap()));
    }

    #[test]
    fn no_preemption_reports_conflict_for_paul() {
        // Under no-preemption, Paul inherits both +Bird and -Penguin.
        let mut r = flying();
        r.set_preemption(Preemption::NoPreemption);
        let paul = r.item(&["Paul"]).unwrap();
        assert!(r.bind(&paul).is_conflict());
        // Peter's explicit tuple still wins.
        let peter = r.item(&["Peter"]).unwrap();
        assert_eq!(r.bind(&peter), Binding::Explicit(Truth::Positive));
    }

    #[test]
    fn on_path_patricia_conflicts() {
        // Appendix: "on-path preemption would suggest that since
        // Patricia is a Galapagos penguin, it may or may not be able to
        // fly, in spite of its being an amazing flying penguin":
        // the path Penguin -> Galapagos Penguin -> Patricia avoids the
        // AFP tuple, so -Penguin stays immediate and conflicts with +AFP.
        let mut r = flying();
        r.set_preemption(Preemption::OnPath);
        let patricia = r.item(&["Patricia"]).unwrap();
        assert!(r.bind(&patricia).is_conflict());
        // Pamela (only an AFP) is NOT conflicted even on-path: every
        // Penguin -> Pamela path passes through AFP.
        let pamela = r.item(&["Pamela"]).unwrap();
        assert_eq!(r.bind(&pamela).truth(), Some(Truth::Positive));
    }

    #[test]
    fn off_path_with_redundant_edge_creates_conflict() {
        // Appendix: a redundant edge Penguin -> Pamela makes Penguin
        // bind Pamela directly despite the AFP tuple in between.
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        let pamela = g.add_instance("Pamela", afp).unwrap();
        g.add_edge(penguin, pamela).unwrap(); // redundant, deliberate
        let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        let pam = r.item(&["Pamela"]).unwrap();
        assert!(
            r.bind(&pam).is_conflict(),
            "direct edge keeps Penguin immediate"
        );
    }

    #[test]
    fn preference_edge_resolves_conflict() {
        // Appendix: preference edges induce off-path domination. The
        // conflicting tuples sit above the item (A -> A1 -> x,
        // B -> B1 -> x) as in the paper's scenario; the special edge
        // B -> A then takes A "off the path" of B.
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        let a1 = g.add_class("A1", a).unwrap();
        let b1 = g.add_class("B1", b).unwrap();
        g.add_instance_multi("x", &[a1, b1]).unwrap();
        // Without preference: conflict at x.
        let schema = Arc::new(Schema::new(vec![Attribute::new("D", Arc::new(g.clone()))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        let xi = r.item(&["x"]).unwrap();
        assert!(r.bind(&xi).is_conflict());
        // With preference edge B -> A (A dominates B): A preempts.
        hrdm_hierarchy::preference::prefer(&mut g, a, b).unwrap();
        let schema = Arc::new(Schema::new(vec![Attribute::new("D", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        let xi = r.item(&["x"]).unwrap();
        assert_eq!(r.bind(&xi).truth(), Some(Truth::Positive));
    }

    #[test]
    fn preference_edge_cannot_override_a_direct_parent_edge() {
        // Procedural off-path semantics retain direct edges between kept
        // nodes (the Pamela redundant-edge behaviour), so a preference
        // edge does NOT demote a tuple on a *direct parent* of the item.
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_instance_multi("x", &[a, b]).unwrap();
        hrdm_hierarchy::preference::prefer(&mut g, a, b).unwrap();
        let schema = Arc::new(Schema::new(vec![Attribute::new("D", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["A"], Truth::Positive).unwrap();
        r.assert_fact(&["B"], Truth::Negative).unwrap();
        let xi = r.item(&["x"]).unwrap();
        assert!(r.bind(&xi).is_conflict(), "direct edge keeps B immediate");
    }

    #[test]
    fn binding_truth_and_conflict_accessors() {
        assert_eq!(
            Binding::Explicit(Truth::Negative).truth(),
            Some(Truth::Negative)
        );
        assert_eq!(Binding::Unspecified.truth(), None);
        assert!(!Binding::Unspecified.is_conflict());
        let c = Binding::Conflict {
            positive: vec![],
            negative: vec![],
        };
        assert!(c.is_conflict());
        assert_eq!(c.truth(), None);
    }
}
