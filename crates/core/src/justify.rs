//! Justification of derived answers (§3.4, Fig. 9).
//!
//! "Whenever one has a system that produces answers that are deduced
//! from, rather than explicitly stated in, facts that the system has
//! been told …, the question of justification arises. … One can, in our
//! model, not only obtain the result of a selection, but also find out
//! which tuples in the relation were applicable."

use crate::binding::{bind, Binding};
use crate::item::Item;
use crate::relation::HRelation;
use crate::truth::Truth;
use crate::tuple::Tuple;

/// Why an item received its truth value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justification {
    /// The item that was queried.
    pub item: Item,
    /// The binding outcome.
    pub binding: Binding,
    /// Every stored tuple applicable to the item (all tuples in its
    /// tuple-binding graph), in deterministic order — Fig. 9b's answer.
    pub applicable: Vec<Tuple>,
    /// The subset that actually determined the truth value (the
    /// strongest binders; the explicit tuple when one exists; everything
    /// conflicting when the binding conflicts).
    pub decisive: Vec<Tuple>,
}

/// Explain the binding of `item` in `relation`.
pub fn justify(relation: &HRelation, item: &Item) -> Justification {
    let applicable = relation.above(item);
    let binding = bind(relation, item, &applicable);
    let applicable: Vec<Tuple> = applicable
        .into_iter()
        .map(|(i, t)| Tuple::new(i, t))
        .collect();
    let decisive = match &binding {
        Binding::Explicit(t) => vec![Tuple::new(item.clone(), *t)],
        Binding::Inherited(t, binders) => {
            binders.iter().map(|i| Tuple::new(i.clone(), *t)).collect()
        }
        Binding::Conflict { positive, negative } => positive
            .iter()
            .map(|i| Tuple::new(i.clone(), Truth::Positive))
            .chain(
                negative
                    .iter()
                    .map(|i| Tuple::new(i.clone(), Truth::Negative)),
            )
            .collect(),
        Binding::Unspecified => Vec::new(),
    };
    Justification {
        item: item.clone(),
        binding,
        applicable,
        decisive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    /// Fig. 4: the elephant colour relation.
    fn elephants() -> HRelation {
        let mut a = HierarchyGraph::new("Animal");
        let elephant = a.add_class("Elephant", a.root()).unwrap();
        let royal = a.add_class("Royal Elephant", elephant).unwrap();
        let indian = a.add_class("Indian Elephant", elephant).unwrap();
        a.add_instance_multi("Appu", &[royal, indian]).unwrap();
        a.add_instance("Clyde", royal).unwrap();
        let mut c = HierarchyGraph::new("Color");
        c.add_instance("Grey", c.root()).unwrap();
        c.add_instance("White", c.root()).unwrap();
        c.add_instance("Dappled", c.root()).unwrap();
        let schema = Arc::new(Schema::new(vec![
            Attribute::new("Animal", Arc::new(a)),
            Attribute::new("Color", Arc::new(c)),
        ]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Elephant", "Grey"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Royal Elephant", "Grey"], Truth::Negative)
            .unwrap();
        r.assert_fact(&["Royal Elephant", "White"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Clyde", "White"], Truth::Negative).unwrap();
        r.assert_fact(&["Clyde", "Dappled"], Truth::Positive)
            .unwrap();
        r
    }

    #[test]
    fn fig4_appu_is_white_not_grey() {
        // "Royal elephant binds more strongly to Appu than does
        // elephant, so we conclude that Appu is not grey but white.
        // ... the fact that Appu is an Indian elephant is treated as an
        // irrelevant fact."
        let r = elephants();
        let appu_grey = r.item(&["Appu", "Grey"]).unwrap();
        assert_eq!(r.bind(&appu_grey).truth(), Some(Truth::Negative));
        let appu_white = r.item(&["Appu", "White"]).unwrap();
        assert_eq!(r.bind(&appu_white).truth(), Some(Truth::Positive));
    }

    #[test]
    fn fig4_clyde_is_dappled() {
        let r = elephants();
        assert_eq!(
            r.bind(&r.item(&["Clyde", "Dappled"]).unwrap()),
            Binding::Explicit(Truth::Positive)
        );
        assert_eq!(
            r.bind(&r.item(&["Clyde", "White"]).unwrap()).truth(),
            Some(Truth::Negative)
        );
        assert_eq!(
            r.bind(&r.item(&["Clyde", "Grey"]).unwrap()).truth(),
            Some(Truth::Negative)
        );
    }

    #[test]
    fn fig9_justification_for_clyde_grey() {
        // Fig. 9: a selection on (Clyde, Grey) is justified by the
        // applicable tuples — the elephant-grey generalization and the
        // royal-elephant-grey exception.
        let r = elephants();
        let clyde_grey = r.item(&["Clyde", "Grey"]).unwrap();
        let j = justify(&r, &clyde_grey);
        assert_eq!(j.binding.truth(), Some(Truth::Negative));
        let applicable_items: Vec<&Item> = j.applicable.iter().map(|t| &t.item).collect();
        assert!(applicable_items.contains(&&r.item(&["Elephant", "Grey"]).unwrap()));
        assert!(applicable_items.contains(&&r.item(&["Royal Elephant", "Grey"]).unwrap()));
        assert_eq!(j.applicable.len(), 2);
        // The decisive tuple is the royal-elephant exception.
        assert_eq!(
            j.decisive,
            vec![Tuple::negative(
                r.item(&["Royal Elephant", "Grey"]).unwrap()
            )]
        );
    }

    #[test]
    fn justification_of_explicit_and_unspecified() {
        let r = elephants();
        let clyde_dappled = r.item(&["Clyde", "Dappled"]).unwrap();
        let j = justify(&r, &clyde_dappled);
        assert_eq!(j.decisive, vec![Tuple::positive(clyde_dappled.clone())]);
        assert!(j.applicable.contains(&Tuple::positive(clyde_dappled)));

        let unrelated = r.item(&["Animal", "Dappled"]).unwrap();
        let j = justify(&r, &unrelated);
        assert_eq!(j.binding, Binding::Unspecified);
        assert!(j.decisive.is_empty());
    }

    #[test]
    fn justification_of_conflict_lists_both_sides() {
        let mut r = elephants();
        // Make Indian elephants grey: Appu now inherits -Grey (royal)
        // and +Grey (indian) — conflict.
        r.assert_fact(&["Indian Elephant", "Grey"], Truth::Positive)
            .unwrap();
        let appu_grey = r.item(&["Appu", "Grey"]).unwrap();
        let j = justify(&r, &appu_grey);
        assert!(j.binding.is_conflict());
        assert_eq!(j.decisive.len(), 2);
        let truths: Vec<Truth> = j.decisive.iter().map(|t| t.truth).collect();
        assert!(truths.contains(&Truth::Positive));
        assert!(truths.contains(&Truth::Negative));
    }
}
