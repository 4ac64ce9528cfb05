//! The paper's running examples as reusable fixtures, plus the shared
//! harness helpers (probe construction, cache clearing, the metrics
//! export) the `tables` and `figures` binaries use.

use std::sync::Arc;

use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;

use crate::workloads::ClassWorkload;

/// Drop the one shared cross-operator cache (the subsumption-core
/// cache) and reset the metrics registry with it. The `tables` B3 and
/// B4 `cold ns` columns call this before each timed repetition, outside
/// the timed region, so each repetition pays the full subsumption-graph
/// construction; the tests below pin what it clears. Reachability
/// closures are not a shared cache: each lives in its graph, so a
/// fixture relation keeps its closures for as long as it exists.
///
/// The reset goes through [`hrdm_core::stats::reset`], which zeroes the
/// whole registry under its lock: the old per-static-counter stores
/// could interleave with a concurrent snapshot and report a hit count
/// from before the reset next to a miss count from after it. The
/// registry sweep also covers the incremental-maintenance family
/// (`ivm.*` — delta rows, node reuse, fallbacks) introduced with live
/// views and the serving-tier family (`server.*` — per-verb latency
/// histograms, byte counters, admission counters); view registries,
/// published deltas and slow-query logs are per-engine or per-server
/// state with no global residue to clear.
pub fn clear_shared_caches() {
    hrdm_core::subsumption::clear_cache();
    hrdm_core::stats::reset();
}

/// Serialize the whole metrics registry (the `BENCH_obs.json` format)
/// to `path`; the `figures` binary's `--obs-json` writes it after the
/// report so operator counters and latency quantiles ride along.
pub fn export_obs_json(label: &str, path: &str) -> std::io::Result<()> {
    std::fs::write(path, hrdm_obs::metrics::export_json(label))
}

/// The B2 point-query probe: the middle member of the workload's single
/// class, as both the hierarchical item and the flat row id.
pub fn class_probe(w: &ClassWorkload) -> (Item, u32) {
    let name = format!("i0_{}", w.members / 2);
    let item = w.relation.item(&[&name]).expect("generated name");
    let id = item.component(0).index() as u32;
    (item, id)
}

/// Fig. 1a: the flying-creatures taxonomy.
pub fn fig1_taxonomy() -> Arc<HierarchyGraph> {
    let mut g = HierarchyGraph::new("Animal");
    let bird = g.add_class("Bird", g.root()).expect("fresh name");
    let canary = g.add_class("Canary", bird).expect("fresh name");
    g.add_instance("Tweety", canary).expect("fresh name");
    let penguin = g.add_class("Penguin", bird).expect("fresh name");
    let gala = g
        .add_class("Galapagos Penguin", penguin)
        .expect("fresh name");
    let afp = g
        .add_class("Amazing Flying Penguin", penguin)
        .expect("fresh name");
    g.add_instance("Paul", gala).expect("fresh name");
    g.add_instance_multi("Patricia", &[gala, afp])
        .expect("fresh name");
    g.add_instance("Pamela", afp).expect("fresh name");
    g.add_instance("Peter", afp).expect("fresh name");
    Arc::new(g)
}

/// Fig. 1b: the flying-creatures relation over [`fig1_taxonomy`].
pub fn fig1_relation(taxonomy: &Arc<HierarchyGraph>) -> HRelation {
    let schema = Arc::new(Schema::single("Creature", taxonomy.clone()));
    let mut r = HRelation::new(schema);
    r.assert_fact(&["Bird"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Penguin"], Truth::Negative)
        .expect("known names");
    r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Peter"], Truth::Positive)
        .expect("known names");
    r
}

/// Fig. 2a/2b: student and teacher hierarchies (with a few instances so
/// selections have extensions to show).
pub fn fig2_graphs() -> (Arc<HierarchyGraph>, Arc<HierarchyGraph>) {
    let mut s = HierarchyGraph::new("Student");
    let ob = s
        .add_class("Obsequious Student", s.root())
        .expect("fresh name");
    s.add_instance("John", ob).expect("fresh name");
    s.add_instance("Mary", s.root()).expect("fresh name");
    let mut t = HierarchyGraph::new("Teacher");
    let ic = t
        .add_class("Incoherent Teacher", t.root())
        .expect("fresh name");
    t.add_instance("Smith", ic).expect("fresh name");
    t.add_instance("Jones", t.root()).expect("fresh name");
    (Arc::new(s), Arc::new(t))
}

/// Fig. 3: the Respects relation (conflict already resolved).
pub fn fig3_respects(students: &Arc<HierarchyGraph>, teachers: &Arc<HierarchyGraph>) -> HRelation {
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("Student", students.clone()),
        Attribute::new("Teacher", teachers.clone()),
    ]));
    let mut r = HRelation::new(schema);
    r.assert_fact(&["Obsequious Student", "Teacher"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Student", "Incoherent Teacher"], Truth::Negative)
        .expect("known names");
    r.assert_fact(
        &["Obsequious Student", "Incoherent Teacher"],
        Truth::Positive,
    )
    .expect("known names");
    r
}

/// Fig. 4: the elephant taxonomy and colour domain.
pub fn fig4_graphs() -> (Arc<HierarchyGraph>, Arc<HierarchyGraph>) {
    let mut a = HierarchyGraph::new("Animal");
    let elephant = a.add_class("Elephant", a.root()).expect("fresh name");
    let royal = a.add_class("Royal Elephant", elephant).expect("fresh name");
    let indian = a
        .add_class("Indian Elephant", elephant)
        .expect("fresh name");
    a.add_instance_multi("Appu", &[royal, indian])
        .expect("fresh name");
    a.add_instance("Clyde", royal).expect("fresh name");
    let mut c = HierarchyGraph::new("Color");
    c.add_instance("Grey", c.root()).expect("fresh name");
    c.add_instance("White", c.root()).expect("fresh name");
    c.add_instance("Dappled", c.root()).expect("fresh name");
    (Arc::new(a), Arc::new(c))
}

/// Fig. 4's Animal-Color relation.
pub fn fig4_colors(animals: &Arc<HierarchyGraph>, colors: &Arc<HierarchyGraph>) -> HRelation {
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("Animal", animals.clone()),
        Attribute::new("Color", colors.clone()),
    ]));
    let mut r = HRelation::new(schema);
    r.assert_fact(&["Elephant", "Grey"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Royal Elephant", "Grey"], Truth::Negative)
        .expect("known names");
    r.assert_fact(&["Royal Elephant", "White"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Clyde", "White"], Truth::Negative)
        .expect("known names");
    r.assert_fact(&["Clyde", "Dappled"], Truth::Positive)
        .expect("known names");
    r
}

/// Fig. 11a: the Enclosure-Size relation over the Fig. 4 animals.
pub fn fig11_enclosures(animals: &Arc<HierarchyGraph>) -> (Arc<HierarchyGraph>, HRelation) {
    let mut e = HierarchyGraph::new("Enclosure Size");
    e.add_instance("3000", e.root()).expect("fresh name");
    e.add_instance("2000", e.root()).expect("fresh name");
    let e = Arc::new(e);
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("Animal", animals.clone()),
        Attribute::new("Enclosure Size", e.clone()),
    ]));
    let mut r = HRelation::new(schema);
    r.assert_fact(&["Elephant", "3000"], Truth::Positive)
        .expect("known names");
    r.assert_fact(&["Indian Elephant", "3000"], Truth::Negative)
        .expect("known names");
    r.assert_fact(&["Indian Elephant", "2000"], Truth::Positive)
        .expect("known names");
    (e, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit tests both sweep the process-global registry; run
    /// them one at a time so neither clears the other's mid-test state.
    fn audit_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fixtures_build_and_are_consistent() {
        let tax = fig1_taxonomy();
        let flying = fig1_relation(&tax);
        assert!(hrdm_core::conflict::is_consistent(&flying));

        let (s, t) = fig2_graphs();
        let respects = fig3_respects(&s, &t);
        assert!(hrdm_core::conflict::is_consistent(&respects));

        let (a, c) = fig4_graphs();
        let colors = fig4_colors(&a, &c);
        assert!(hrdm_core::conflict::is_consistent(&colors));

        let (_e, sizes) = fig11_enclosures(&a);
        assert!(hrdm_core::conflict::is_consistent(&sizes));
    }

    #[test]
    fn clear_shared_caches_resets_ivm_counters() {
        use hrdm_obs::metrics;

        let _guard = audit_lock();

        // Touch one counter from each family the reset must cover: the
        // live-view maintenance counters and the differential-operator
        // counters join the registry lazily, so register-and-bump first.
        for name in [
            "ivm.maintained",
            "ivm.fallback",
            "ivm.delta_rows",
            "ivm.nodes_localized",
        ] {
            metrics::counter(name).add(3);
        }

        clear_shared_caches();

        for name in [
            "ivm.maintained",
            "ivm.fallback",
            "ivm.delta_rows",
            "ivm.nodes_localized",
        ] {
            assert_eq!(metrics::counter(name).get(), 0, "{name} survived the reset");
        }
    }

    /// PR-7's ivm-counter audit, extended to the serving tier: the
    /// shared reset must also zero the server-side latency histograms
    /// (they live in the same registry).
    #[test]
    fn clear_shared_caches_resets_server_histograms() {
        use hrdm_obs::metrics;

        let _guard = audit_lock();

        let lat = metrics::histogram("server.latency.query");
        lat.observe_ns(1_234);
        metrics::counter("server.requests").incr();
        metrics::gauge("server.active_connections").set(7);
        assert!(lat.count() >= 1);

        clear_shared_caches();

        assert_eq!(lat.count(), 0, "server histogram survived the reset");
        assert_eq!(lat.sum_ns(), 0);
        assert_eq!(metrics::counter("server.requests").get(), 0);
        assert_eq!(metrics::gauge("server.active_connections").get(), 0);
    }

    /// What the B3/B4 `_cold` rows measure: after the shared reset an
    /// operator over a built fixture rebuilds its subsumption core; the
    /// warm run reuses it. A closure is not a shared cache but part of
    /// its graph, built by the graph's first reachability probe: the
    /// fixture's schema builds none, the first cold run builds exactly
    /// the one it probes, and no later run — cold or warm, either
    /// operator — builds or requests one.
    #[test]
    fn a_cold_iteration_rebuilds_the_core_and_only_the_first_probe_builds_a_closure() {
        use hrdm_obs::attrib::{self, AttribKey};

        let _guard = audit_lock();
        let before = attrib::snapshot();
        let r = crate::workloads::consolidation_workload(3, 4, 4, 2);
        assert!(
            attrib::since(&before).is_zero(),
            "the fixture built a closure"
        );
        let ops: [fn(&HRelation); 2] = [
            |r| drop(hrdm_core::consolidate::consolidate(r)),
            |r| drop(hrdm_core::explicate::explicate_all(r)),
        ];
        let mut builds = Vec::new();
        for op in ops {
            let mut run = |cold: bool| {
                if cold {
                    clear_shared_caches();
                }
                let before = attrib::snapshot();
                op(&r);
                let spent = attrib::snapshot().since(&before);
                assert_eq!(spent.get(AttribKey::ClosureHit), 0);
                builds.push(spent.get(AttribKey::ClosureMiss));
                (
                    spent.get(AttribKey::SubsumptionHit),
                    spent.get(AttribKey::SubsumptionMiss),
                )
            };
            assert_eq!(run(true), (0, 1), "cold: one core built");
            assert_eq!(run(false), (1, 0), "warm: that core reused");
        }
        // consolidate cold, warm; explicate cold, warm.
        assert_eq!(builds, [1, 0, 0, 0], "closures built per run");
    }

    #[test]
    fn fig1_bindings_match_paper() {
        let tax = fig1_taxonomy();
        let r = fig1_relation(&tax);
        for (name, flies) in [
            ("Tweety", true),
            ("Paul", false),
            ("Patricia", true),
            ("Pamela", true),
            ("Peter", true),
        ] {
            assert_eq!(r.holds(&r.item(&[name]).unwrap()), flies, "{name}");
        }
    }
}
