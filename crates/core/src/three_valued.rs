//! Three-valued lookups over partial information (§4 extension).
//!
//! "Through the use of existential rather than universal quantifiers,
//! and the use of three-valued (positive, negative, and unknown) rather
//! than two-valued assertions, it may be possible to have a sound and
//! conceptually pleasing treatment of partial information."
//!
//! Without the closed-world assumption, a negated tuple reads "for every
//! element of A, relation R is *not known* to hold" (footnote 4), and an
//! item no tuple binds to is simply *unknown*. This module implements
//! that reading:
//!
//! * [`holds3`] — the three-valued truth of an item,
//! * [`any_holds`]/[`all_hold`] — existential/universal queries over a
//!   class item's atomic extension, each returning [`Truth3`] so that
//!   "unknown" propagates instead of defaulting to false.

use crate::item::Item;
use crate::relation::HRelation;
use crate::truth::Truth;

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth3 {
    /// Known to hold.
    True,
    /// Known (asserted) not to hold.
    False,
    /// No applicable assertion, or conflicting assertions.
    Unknown,
}

impl Truth3 {
    /// Kleene conjunction.
    pub fn and(self, other: Truth3) -> Truth3 {
        match (self, other) {
            (Truth3::False, _) | (_, Truth3::False) => Truth3::False,
            (Truth3::True, Truth3::True) => Truth3::True,
            _ => Truth3::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth3) -> Truth3 {
        match (self, other) {
            (Truth3::True, _) | (_, Truth3::True) => Truth3::True,
            (Truth3::False, Truth3::False) => Truth3::False,
            _ => Truth3::Unknown,
        }
    }
}

impl std::ops::Not for Truth3 {
    type Output = Truth3;

    /// Kleene negation.
    fn not(self) -> Truth3 {
        match self {
            Truth3::True => Truth3::False,
            Truth3::False => Truth3::True,
            Truth3::Unknown => Truth3::Unknown,
        }
    }
}

impl From<Truth> for Truth3 {
    fn from(t: Truth) -> Truth3 {
        match t {
            Truth::Positive => Truth3::True,
            Truth::Negative => Truth3::False,
        }
    }
}

/// The three-valued truth of `item`: the binding without the
/// closed-world default.
pub fn holds3(relation: &HRelation, item: &Item) -> Truth3 {
    relation
        .verdict(item)
        .truth()
        .map_or(Truth3::Unknown, Truth3::from)
}

/// Existential query: does the relation hold for *some* atom in the
/// item's extension?
///
/// `True` as soon as one atom is known true; `False` only when every
/// atom is known false; `Unknown` otherwise (including the empty
/// extension of an intensional class, where nothing is known).
pub fn any_holds(relation: &HRelation, item: &Item) -> Truth3 {
    let product = relation.schema().product();
    let mut acc = Truth3::False;
    let mut saw_any = false;
    for atom in product.extension(item.components()) {
        saw_any = true;
        acc = acc.or(holds3(relation, &Item::new(atom)));
        if acc == Truth3::True {
            return Truth3::True;
        }
    }
    if saw_any {
        acc
    } else {
        Truth3::Unknown
    }
}

/// Universal query: does the relation hold for *every* atom in the
/// item's extension?
pub fn all_hold(relation: &HRelation, item: &Item) -> Truth3 {
    let product = relation.schema().product();
    let mut acc = Truth3::True;
    let mut saw_any = false;
    for atom in product.extension(item.components()) {
        saw_any = true;
        acc = acc.and(holds3(relation, &Item::new(atom)));
        if acc == Truth3::False {
            return Truth3::False;
        }
    }
    if saw_any {
        acc
    } else {
        Truth3::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    fn flying() -> HRelation {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        g.add_instance("Tweety", bird).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        g.add_instance("Paul", penguin).unwrap();
        let fish = g.add_class("Fish", g.root()).unwrap();
        g.add_instance("Nemo", fish).unwrap();
        let ghost = g.add_class("Ghost", g.root()).unwrap();
        let _ = ghost; // a class with no instances
        let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r
    }

    #[test]
    fn holds3_distinguishes_false_from_unknown() {
        let r = flying();
        assert_eq!(holds3(&r, &r.item(&["Tweety"]).unwrap()), Truth3::True);
        assert_eq!(holds3(&r, &r.item(&["Paul"]).unwrap()), Truth3::False);
        // Nothing asserted about fish: unknown, not false.
        assert_eq!(holds3(&r, &r.item(&["Nemo"]).unwrap()), Truth3::Unknown);
        // But the closed-world `holds` says false for both.
        assert!(!r.holds(&r.item(&["Paul"]).unwrap()));
        assert!(!r.holds(&r.item(&["Nemo"]).unwrap()));
    }

    #[test]
    fn conflicts_are_unknown() {
        let mut r = flying();
        // Make Tweety both a bird and a fish... simpler: conflicting
        // class assertions over a shared instance. Nemo under a negated
        // Fish and positive Animal root tuple:
        r.assert_fact(&["Fish"], Truth::Negative).unwrap();
        r.assert_fact(&["Animal"], Truth::Positive).unwrap();
        // Nemo: -Fish preempts +Animal (off-path): known false.
        assert_eq!(holds3(&r, &r.item(&["Nemo"]).unwrap()), Truth3::False);
    }

    #[test]
    fn existential_over_classes() {
        let r = flying();
        // Some bird flies (Tweety): true.
        assert_eq!(any_holds(&r, &r.item(&["Bird"]).unwrap()), Truth3::True);
        // Some penguin flies: all penguin atoms are known false.
        assert_eq!(any_holds(&r, &r.item(&["Penguin"]).unwrap()), Truth3::False);
        // Some fish flies: unknown.
        assert_eq!(any_holds(&r, &r.item(&["Fish"]).unwrap()), Truth3::Unknown);
        // A class with no instances: unknown (intensional).
        assert_eq!(any_holds(&r, &r.item(&["Ghost"]).unwrap()), Truth3::Unknown);
    }

    #[test]
    fn universal_over_classes() {
        let r = flying();
        // All birds fly? Paul is known false.
        assert_eq!(all_hold(&r, &r.item(&["Bird"]).unwrap()), Truth3::False);
        // All penguins (Paul): false.
        assert_eq!(all_hold(&r, &r.item(&["Penguin"]).unwrap()), Truth3::False);
        // All fish: unknown.
        assert_eq!(all_hold(&r, &r.item(&["Fish"]).unwrap()), Truth3::Unknown);
        assert_eq!(all_hold(&r, &r.item(&["Ghost"]).unwrap()), Truth3::Unknown);
    }

    #[test]
    fn kleene_tables() {
        use Truth3::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(!Unknown, Unknown);
        assert_eq!(!True, False);
        assert_eq!(Truth3::from(Truth::Positive), True);
        assert_eq!(Truth3::from(Truth::Negative), False);
    }
}
