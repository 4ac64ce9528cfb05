//! Property test: every span opened during a random-plan execution is
//! closed and parented correctly.

use std::sync::Arc;

use proptest::prelude::*;

use hrdm_core::plan::LogicalPlan;
use hrdm_core::prelude::*;
use hrdm_hierarchy::gen::layered_dag;
use hrdm_obs::trace::TraceNode;

/// A positive-only (hence always consistent) relation with a tuple at
/// every node of a four-layer taxonomy.
fn big_relation(seed: u64) -> HRelation {
    let g = Arc::new(layered_dag(4, 12, 2, seed));
    let schema = Arc::new(Schema::single("D", g.clone()));
    let mut r = HRelation::new(schema);
    let nodes: Vec<_> = g.classes().chain(g.instances()).collect();
    for node in nodes {
        r.insert(Tuple::positive(Item::new(vec![node])))
            .expect("fresh positive tuple");
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn spans_close_and_parent_under_the_root(seed in any::<u64>(), shape in 0usize..4) {
        let r = big_relation(seed);
        let root_region = Item::new(vec![r.schema().domain(0).root()]);
        let scan = LogicalPlan::scan("R", r.clone());
        let (plan, kinds) = match shape {
            0 => (scan, vec!["Scan"]),
            1 => (scan.explicate(vec![0]), vec!["Explicate", "Scan"]),
            2 => (scan.consolidate(), vec!["Consolidate", "Scan"]),
            _ => (
                scan.explicate(vec![0]).select(root_region),
                vec!["Select", "Explicate", "Scan"],
            ),
        };

        prop_assert_eq!(hrdm_obs::span::thread_open_depth(), 0);
        let executed = plan.execute().expect("positive-only relations are consistent");
        // Every guard dropped: nothing left open on this thread.
        prop_assert_eq!(hrdm_obs::span::thread_open_depth(), 0);

        let trace = &executed.trace;
        let root = trace.root.as_ref().expect("execution recorded a trace");
        prop_assert_eq!(root.name, "plan.execute");
        // Parented correctly: the plan's nodes nest as the plan does,
        // under the root and before the canonicalizing consolidate.
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        prop_assert_eq!(names, vec![kinds[0], "Canonicalize"]);
        let plan_spans: Vec<_> = trace
            .nodes()
            .into_iter()
            .map(|n| n.name)
            .filter(|name| ["Scan", "Select", "Explicate", "Consolidate"].contains(name))
            .collect();
        prop_assert_eq!(plan_spans, kinds);
        fn nested(n: &TraceNode) -> bool {
            n.children.iter().all(|c| {
                n.start_ns <= c.start_ns && c.end_ns <= n.end_ns && nested(c)
            })
        }
        prop_assert!(nested(root), "a span outlives its parent");
        for node in trace.nodes() {
            // Closed correctly: a node is only appended when its guard
            // drops, and the monotonic clock orders start ≤ end.
            prop_assert!(node.end_ns >= node.start_ns, "span {} never closed", node.name);
        }
    }
}
