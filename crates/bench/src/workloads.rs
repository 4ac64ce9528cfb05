//! Scaled synthetic workloads for the B1–B9 experiments.
//!
//! Every builder is deterministic (seeded) and documented with the
//! paper claim it exercises; see DESIGN.md §3 for the experiment index.

use std::sync::Arc;

use hrdm_core::prelude::*;
use hrdm_hierarchy::gen::{balanced_tree, flat_classes, layered_dag};
use hrdm_hierarchy::HierarchyGraph;
use hrdm_storage::membership::MembershipTable;
use hrdm_storage::Table;

/// B1/B2 workload: one class of `members` instances, a relation
/// asserting the whole class with `exceptions` negated members.
pub struct ClassWorkload {
    /// The taxonomy: root -> C0 -> members.
    pub graph: Arc<HierarchyGraph>,
    /// The hierarchical relation: `+∀C0` plus the exceptions.
    pub relation: HRelation,
    /// Instance count.
    pub members: usize,
    /// Exception count.
    pub exceptions: usize,
}

/// B2's exception count, the same at every class size: a binding lookup
/// scans the stored tuples, so the sweep holds them at
/// `B2_EXCEPTIONS + 1` while the extension grows.
pub const B2_EXCEPTIONS: usize = 10;

/// Build the §1 storage scenario: "one can store the class membership
/// once, and use a single tuple with the class name to substitute for
/// many tuples with its constituent elements."
pub fn class_workload(members: usize, exceptions: usize) -> ClassWorkload {
    assert!(exceptions <= members);
    let graph = Arc::new(flat_classes(1, members));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let mut relation = HRelation::new(schema);
    relation
        .assert_fact(&["C0"], Truth::Positive)
        .expect("generated name");
    for m in 0..exceptions {
        relation
            .assert_fact(&[&format!("i0_{m}")], Truth::Negative)
            .expect("generated name");
    }
    ClassWorkload {
        graph,
        relation,
        members,
        exceptions,
    }
}

/// The flat baseline for a [`ClassWorkload`]: the fully explicated
/// extension loaded into the storage engine with an index on the single
/// column.
pub fn explicated_table(w: &ClassWorkload) -> Table {
    let flat = hrdm_core::flat::flatten(&w.relation);
    let mut t = Table::new("R_flat", 1);
    for atom in flat.iter() {
        t.insert(&[atom.component(0).index() as u32])
            .expect("single-column rows fit");
    }
    t.create_index(0).expect("column 0 exists");
    t
}

/// The footnote-1 baseline for a [`ClassWorkload`]: the relation stored
/// by class plus the materialized membership table. Exceptions are
/// stored as a second by-class table ("R_not") that the query must
/// anti-join — the standard flat encoding of an exception list.
pub struct Footnote1Baseline {
    /// R stored by class: positive class rows.
    pub by_class: Table,
    /// Negative exception rows (instance ids).
    pub exceptions: Table,
    /// The membership extension with both indexes.
    pub membership: MembershipTable,
}

/// Build the footnote-1 encoding of a [`ClassWorkload`].
pub fn footnote1_baseline(w: &ClassWorkload) -> Footnote1Baseline {
    let membership = MembershipTable::materialize(&w.graph);
    let mut by_class = Table::new("R_by_class", 1);
    let mut exceptions = Table::new("R_not", 1);
    for (item, truth) in w.relation.iter() {
        let node = item.component(0);
        if truth == Truth::Positive {
            by_class
                .insert(&[node.index() as u32])
                .expect("single-column rows fit");
        } else {
            exceptions
                .insert(&[node.index() as u32])
                .expect("single-column rows fit");
        }
    }
    by_class.create_index(0).expect("column 0 exists");
    exceptions.create_index(0).expect("column 0 exists");
    Footnote1Baseline {
        by_class,
        exceptions,
        membership,
    }
}

impl Footnote1Baseline {
    /// Footnote-1 point query: "does R hold for instance x?" —
    /// a membership join for the positive part and an anti-join against
    /// the exception list.
    pub fn holds(&self, instance: u32) -> bool {
        if !self.exceptions.lookup(0, instance).is_empty() {
            return false;
        }
        self.membership.holds_via_join(&self.by_class, instance)
    }

    /// Footnote-1 listing query: expand R to instance level.
    pub fn list(&self) -> Vec<u32> {
        self.membership
            .expand_by_class(&self.by_class)
            .map(|row| row[0])
            .filter(|&i| self.exceptions.lookup(0, i).is_empty())
            .collect()
    }
}

/// B2 depth workload: a single positive tuple at the top class of a
/// binary tree of the given depth — probing a leaf exercises a
/// `depth`-long inheritance chain.
pub fn depth_workload(depth: usize) -> (HRelation, Item) {
    let graph = Arc::new(balanced_tree(2, depth));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let mut relation = HRelation::new(schema);
    let top = graph.classes().next().expect("depth >= 2 has classes");
    relation
        .assert_item(Item::new(vec![top]), Truth::Positive)
        .expect("valid node");
    let leaf = graph.instances().next().expect("tree has instances");
    (relation, Item::new(vec![leaf]))
}

/// B3 workload: a relation over a balanced tree where roughly
/// `redundant_per_class` descendants of each asserted class are
/// re-asserted with the same truth (and are therefore redundant).
pub fn consolidation_workload(
    fanout: usize,
    depth: usize,
    classes: usize,
    redundant_per_class: usize,
) -> HRelation {
    let graph = Arc::new(balanced_tree(fanout, depth));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let mut r = HRelation::new(schema);
    let class_ids: Vec<_> = graph.classes().take(classes).collect();
    for &c in &class_ids {
        r.assert_item(Item::new(vec![c]), Truth::Positive)
            .expect("valid node");
        for d in graph.descendants(c).into_iter().take(redundant_per_class) {
            // Same truth value below: redundant by §3.3.
            let _ = r.assert_item(Item::new(vec![d]), Truth::Positive);
        }
    }
    r
}

/// B4 workload: `+∀root-class` over a balanced tree — explication cost
/// is linear in the extension.
pub fn explication_workload(fanout: usize, depth: usize) -> HRelation {
    let graph = Arc::new(balanced_tree(fanout, depth));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let mut r = HRelation::new(schema);
    let first_class = graph
        .classes()
        .next()
        .expect("depth >= 2 trees have classes");
    r.assert_item(Item::new(vec![first_class]), Truth::Positive)
        .expect("valid node");
    r
}

/// B5/B7 workload: a multiple-inheritance DAG with `tuples` mixed-truth
/// assertions (then made consistent), for preemption ablations and
/// conflict-detection cost.
pub fn dag_relation(
    layers: usize,
    width: usize,
    max_parents: usize,
    tuples: usize,
    seed: u64,
) -> HRelation {
    let graph = Arc::new(layered_dag(layers, width, max_parents, seed));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let mut r = HRelation::new(schema);
    let nodes = hrdm_hierarchy::gen::sample_nodes(&graph, tuples, seed ^ 0xfeed);
    for (k, n) in nodes.into_iter().enumerate() {
        let truth = if k % 3 == 0 {
            Truth::Negative
        } else {
            Truth::Positive
        };
        let _ = r.assert_item(Item::new(vec![n]), truth);
    }
    r
}

/// Resolve every conflict of `r` positively, to a fixpoint.
pub fn resolve_positively(r: &mut HRelation) {
    loop {
        let conflicts = hrdm_core::conflict::find_conflicts(r);
        if conflicts.is_empty() {
            return;
        }
        for c in conflicts {
            r.insert(Tuple::positive(c.item)).expect("valid item");
        }
    }
}

/// B8 workload: a flat relation covering `coverage_percent`% of each of
/// `classes` classes with `members` members.
pub fn discovery_workload(
    classes: usize,
    members: usize,
    coverage_percent: usize,
) -> hrdm_core::flat::FlatRelation {
    let graph = Arc::new(flat_classes(classes, members));
    let schema = Arc::new(Schema::single("D", graph.clone()));
    let keep = members * coverage_percent / 100;
    let mut atoms = std::collections::BTreeSet::new();
    for c in 0..classes {
        for m in 0..keep {
            atoms.insert(
                schema
                    .item(&[&format!("i{c}_{m}")])
                    .expect("generated name"),
            );
        }
    }
    hrdm_core::flat::FlatRelation::from_atoms(schema, atoms)
}

/// B9 workload: an `edge` EDB over a chain of `n` instances, stored as a
/// two-attribute hierarchical relation, plus the transitive-closure
/// program.
pub fn datalog_workload(n: usize) -> (hrdm_datalog::Engine, hrdm_datalog::Program) {
    let mut g = HierarchyGraph::new("Node");
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    for name in &names {
        g.add_instance(name.as_str(), g.root()).expect("fresh name");
    }
    let g = Arc::new(g);
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("From", g.clone()),
        Attribute::new("To", g.clone()),
    ]));
    let mut edges = HRelation::new(schema);
    for w in names.windows(2) {
        edges
            .assert_fact(&[w[0].as_str(), w[1].as_str()], Truth::Positive)
            .expect("known names");
    }
    let mut engine = hrdm_datalog::Engine::new();
    engine.add_relation("edge", &edges);
    let program = hrdm_datalog::Program::parse(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).",
    )
    .expect("static program parses");
    (engine, program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_workload_counts() {
        let w = class_workload(100, 5);
        assert_eq!(w.relation.len(), 6);
        let flat = hrdm_core::flat::flatten(&w.relation);
        assert_eq!(flat.len(), 95);
    }

    #[test]
    fn baselines_agree_with_hierarchical_model() {
        let w = class_workload(50, 3);
        let flat_table = explicated_table(&w);
        assert_eq!(flat_table.len(), 47);
        let f1 = footnote1_baseline(&w);
        let mut listed = f1.list();
        listed.sort_unstable();
        assert_eq!(listed.len(), 47);
        // Point queries agree for every instance.
        for inst in w.graph.instances() {
            let item = Item::new(vec![inst]);
            let expect = w.relation.holds(&item);
            assert_eq!(f1.holds(inst.index() as u32), expect);
            assert_eq!(
                !flat_table.lookup(0, inst.index() as u32).is_empty(),
                expect
            );
        }
    }

    #[test]
    fn consolidation_workload_has_redundancy() {
        let r = consolidation_workload(3, 3, 4, 2);
        let c = hrdm_core::consolidate::consolidate(&r);
        assert!(!c.removed.is_empty());
        assert!(hrdm_core::flat::equivalent(&r, &c.relation));
    }

    #[test]
    fn dag_relation_is_reproducible() {
        let a = dag_relation(3, 5, 2, 6, 42);
        let b = dag_relation(3, 5, 2, 6, 42);
        assert_eq!(a.len(), b.len());
        let mut a2 = a.clone();
        resolve_positively(&mut a2);
        assert!(hrdm_core::conflict::is_consistent(&a2));
    }

    #[test]
    fn discovery_workload_compresses_at_full_coverage() {
        let flat = discovery_workload(3, 10, 100);
        let d = hrdm_core::discover::discover(&flat);
        assert!(d.stats.hierarchical_tuples <= 3);
        assert_eq!(d.stats.flat_tuples, 30);
    }

    #[test]
    fn datalog_workload_runs() {
        let (engine, program) = datalog_workload(10);
        let out = engine.run(&program).expect("consistent program");
        assert_eq!(out["path"].len(), 45);
    }
}
