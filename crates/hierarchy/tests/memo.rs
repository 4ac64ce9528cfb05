//! The closure memo protocol: a graph's closures live in the graph,
//! are cleared by its three structural mutators and by nothing else,
//! are shared with its clones until one of them is edited, and are
//! freed with the last holder of the graph.

use std::sync::{Arc, Barrier};

use hrdm_obs::attrib::{self, AttribKey};
use proptest::prelude::*;

use hrdm_hierarchy::reach::{
    redundant_edge_list, transitive_closure_edges, ClosureKind, Reachability,
};
use hrdm_hierarchy::{EdgeKind, HierarchyGraph, NodeId, NodeKind, ProductHierarchy};

fn chain() -> HierarchyGraph {
    let mut g = HierarchyGraph::new("D");
    let a = g.add_class("A", g.root()).unwrap();
    let b = g.add_class("B", a).unwrap();
    g.add_class("C", b).unwrap();
    g
}

fn closures(g: &HierarchyGraph) -> [Arc<Reachability>; 2] {
    [g.closure(), g.subset_closure()]
}

fn same(a: &[Arc<Reachability>; 2], b: &[Arc<Reachability>; 2]) -> bool {
    Arc::ptr_eq(&a[0], &b[0]) && Arc::ptr_eq(&a[1], &b[1])
}

#[test]
fn the_two_kinds_have_their_own_slots() {
    let mut g = chain();
    let a = g.expect("A");
    let b2 = g.add_class("B2", g.root()).unwrap();
    g.add_preference_edge(a, b2).unwrap();
    let (built, first) = builds(|| closures(&g));
    let [both, subset] = &first;
    assert!(both.reaches(a, b2), "preference edge reaches");
    assert!(!subset.reaches(a, b2), "but is not membership");
    assert_eq!(built, 2, "one build per kind");
    let (built, again) = builds(|| closures(&g));
    assert_eq!(built, 0);
    assert!(same(&first, &again), "then the memo serves both");
}

#[test]
fn only_the_three_mutators_clear_the_memo() {
    let mut g = chain();
    let (a, b, c) = (g.expect("A"), g.expect("B"), g.expect("C"));
    let before = closures(&g);

    // Everything that takes `&self` — and every refused edit — leaves
    // the memo alone.
    let _ = g.provably_intersect(a, b);
    let _ = g.common_descendants(a, b);
    let _ = g.intersection_candidates(a, b);
    let _ = g.maximal_intersection(a, b);
    let _ = g.extension(a);
    let _ = redundant_edge_list(&g);
    let _ = transitive_closure_edges(&g);
    let _ = ProductHierarchy::new(vec![Arc::new(g.clone())]);
    assert!(g.add_class("A", g.root()).is_err(), "duplicate name");
    assert!(g.add_edge(c, a).is_err(), "cycle");
    assert!(g.add_edge(a, b).is_err(), "duplicate edge");
    assert!(g.remove_edge(a, c).is_err(), "absent edge");
    assert!(same(&before, &closures(&g)));

    // add_node
    let e = g.add_class("E", g.root()).unwrap();
    let after_node = closures(&g);
    assert!(!Arc::ptr_eq(&before[0], &after_node[0]));
    assert!(!Arc::ptr_eq(&before[1], &after_node[1]));
    assert_eq!(after_node[0].len(), g.len());
    assert!(!after_node[0].reaches(e, c));

    // add_edge_kind (both kinds go through it)
    g.add_edge(e, c).unwrap();
    let after_edge = closures(&g);
    assert!(!Arc::ptr_eq(&after_node[0], &after_edge[0]));
    assert!(!Arc::ptr_eq(&after_node[1], &after_edge[1]));
    assert!(after_edge[1].reaches(e, c));

    // remove_edge
    g.remove_edge(e, c).unwrap();
    let after_remove = closures(&g);
    assert!(!Arc::ptr_eq(&after_edge[0], &after_remove[0]));
    assert!(!Arc::ptr_eq(&after_edge[1], &after_remove[1]));
    assert!(!after_remove[0].reaches(e, c));
}

/// The copy-on-write path `Arc::make_mut` takes under a published
/// snapshot: the copy is the same structure until it is edited, and the
/// edit is invisible to the snapshot.
#[test]
fn a_clone_shares_closures_until_its_first_edit() {
    let published = Arc::new(chain());
    let resident = closures(&published);
    let mut working = Arc::clone(&published);

    let copy = Arc::make_mut(&mut working);
    assert!(same(&resident, &closures(copy)));

    copy.add_class("X", copy.expect("C")).unwrap();
    let diverged = closures(copy);
    assert!(!Arc::ptr_eq(&resident[0], &diverged[0]));
    assert_eq!(diverged[0].len(), published.len() + 1);
    assert!(same(&resident, &closures(&published)), "source untouched");

    // A clone taken before the source ever built a closure shares
    // nothing to begin with, and building one side does not fill the
    // other.
    let cold = chain();
    let twin = cold.clone();
    assert!(!Arc::ptr_eq(&cold.closure(), &twin.closure()));
}

#[test]
fn a_closure_is_freed_with_the_last_holder_of_its_graph() {
    let g = Arc::new(chain());
    let weak = closures(&g).map(|c| Arc::downgrade(&c));
    let product = ProductHierarchy::new(vec![Arc::clone(&g)]);
    drop(g);
    assert!(
        weak.iter().all(|w| w.upgrade().is_some()),
        "the product still holds the graph"
    );
    drop(product);
    assert!(weak.iter().all(|w| w.upgrade().is_none()));
}

/// Closures built on this thread while `f` runs: a delta of this
/// thread's attribution slot, which other test threads cannot disturb.
fn builds<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = attrib::snapshot();
    let out = f();
    (attrib::since(&before).get(AttribKey::ClosureMiss), out)
}

/// A product holds graphs, not matrices: building one builds nothing,
/// and each kind is built by its first probe, once per graph version.
#[test]
fn the_first_probe_of_each_kind_builds_it_once_per_version() {
    let mut g = Arc::new(chain());
    let (root, c) = (g.root(), g.expect("C"));
    let (built, product) = builds(|| ProductHierarchy::new(vec![Arc::clone(&g)]));
    assert_eq!(built, 0, "ProductHierarchy::new");

    assert_eq!(builds(|| product.reaches(&[root], &[c])), (1, true));
    assert_eq!(builds(|| product.reaches(&[c], &[root])), (0, false));
    assert_eq!(builds(|| product.interval(&[root], &[c]).len()), (0, 4));
    assert!(std::ptr::eq(
        g.closure_ref(ClosureKind::Both),
        &*g.closure()
    ));

    assert_eq!(builds(|| product.subsumes(&[root], &[c])), (1, true));
    assert_eq!(builds(|| g.provably_intersect(root, c)), (0, true));
    assert_eq!(builds(|| g.maximal_intersection(root, c)), (0, vec![c]));
    let subset = g.closure_ref(ClosureKind::SubsetOnly);
    assert!(std::ptr::eq(subset, &*g.subset_closure()));

    // A new version — the copy an edit under a live product makes —
    // starts unbuilt; the old version keeps its closures.
    let (built, ()) = builds(|| {
        Arc::make_mut(&mut g).add_class("E", c).unwrap();
    });
    assert_eq!(built, 0, "an edit");
    let edited = ProductHierarchy::new(vec![Arc::clone(&g)]);
    assert_eq!(builds(|| edited.subsumes(&[root], &[c])), (1, true));
    assert_eq!(builds(|| edited.reaches(&[root], &[c])), (1, true));
    assert_eq!(builds(|| edited.reaches(&[root], &[c])), (0, true));
    assert_eq!(builds(|| product.reaches(&[root], &[c])), (0, true));
}

/// Readers racing an empty slot build the closure once and count it
/// once: the count sits inside the memo's initializer.
#[test]
fn racing_readers_of_an_unbuilt_graph_count_one_build() {
    let mut g = HierarchyGraph::new("D");
    let class = g.add_class("C", g.root()).unwrap();
    for i in 0..4_000 {
        g.add_instance(format!("i{i}"), class).unwrap();
    }
    let last = NodeId::from_index(g.len() - 1);
    for _ in 0..8 {
        let product = ProductHierarchy::new(vec![Arc::new(g.clone())]);
        let start = Barrier::new(2);
        let built: u64 = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        builds(|| product.reaches(&[class], &[last])).0
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(built, 1, "two readers, one build");
    }
}

/// Everything an edit can change, in node order.
type Structure = Vec<(String, NodeKind, Vec<(NodeId, EdgeKind)>)>;

fn structure(g: &HierarchyGraph) -> Structure {
    g.node_ids()
        .map(|id| {
            (
                g.name(id).to_string(),
                g.kind(id),
                g.children_with_kind(id).to_vec(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random edit histories: an applied edit clears the memo, and a
    /// refused one changes neither the structure nor the memo.
    #[test]
    fn a_refused_edit_changes_nothing(
        ops in prop::collection::vec((1u8..6, any::<u32>(), any::<u32>()), 1..40),
    ) {
        let mut g = HierarchyGraph::new("D");
        for (step, (op, x, y)) in ops.into_iter().enumerate() {
            let (before, memo) = (structure(&g), closures(&g));
            let a = NodeId::from_index(x as usize % g.len());
            let b = NodeId::from_index(y as usize % g.len());
            let applied = match op {
                1 => g.add_class(format!("c{step}"), a).is_ok(),
                2 => g.add_instance(format!("i{step}"), a).is_ok(),
                3 => g.add_edge(a, b).is_ok(),
                4 => g.add_preference_edge(a, b).is_ok(),
                _ => g.remove_edge(a, b).is_ok(),
            };
            prop_assert_eq!(same(&memo, &closures(&g)), !applied);
            if !applied {
                prop_assert_eq!(structure(&g), before);
            }
        }
    }
}
