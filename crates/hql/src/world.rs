//! The immutable-once-published session state.
//!
//! A [`World`] is everything an HQL statement can see: the
//! [`Catalog`] of named domains and relations — the workspace's one
//! container of named state, wrapped here rather than re-kept — plus
//! the registry of live `LET` views over it. It is the unit the
//! concurrent [`Engine`](crate::engine::Engine) publishes through a
//! [`SnapshotCell`]: readers hold an `Arc<World>` and never lock; the
//! single writer clones the world, mutates its private copy, and
//! publishes it as the next epoch. The clone is constant-size work
//! whatever the world holds — the catalog's two name maps are
//! persistent (one `Arc` bump each) and the view registry is a short
//! vector of `Arc`s — and the mutation then copies only the path it
//! walks: a few name-map nodes, the written relation's header, one
//! root-to-leaf path of its tuple map. Everything else in the published
//! world is the previous epoch's, shared.
//!
//! Named state changes in exactly one place:
//! [`Catalog::apply_mutation`], which the world forwards to for every
//! statement in the WAL vocabulary. The world itself only
//! resolves names (`UNDER`/`OF` parents to their domain), words
//! failures the HQL way, and keeps the views current.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hrdm_core::delta::{Delta, RelationChange, RelationDelta};
use hrdm_core::differential::MaterializedPlan;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::plan::{render_rewrites, Executed, LogicalPlan, Rewrite};
use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;

use crate::ast::{Derivation, Source};
use crate::error::{HqlError, Result};

/// A derivation as the engine runs it — the one plan `EXPLAIN` prints,
/// `TRACE` executes, `LET` materializes and view maintenance rebuilds
/// from. Built by [`World::plan`] and nowhere else.
pub(crate) struct Planned {
    /// The rule-optimized plan.
    plan: LogicalPlan,
    /// The rewrites [`LogicalPlan::optimize`] applied, in order.
    rewrites: Vec<Rewrite>,
    /// Whether the result is the root node's output as written rather
    /// than its canonical (consolidated, §3.3.1) form: true exactly for
    /// a top-level `EXPLICATE`, whose whole point is the explicit,
    /// non-minimal form the root consolidate would collapse straight
    /// back.
    raw: bool,
}

impl Planned {
    /// The `EXPLAIN` body: the plan tree and the rewrite log.
    pub(crate) fn explain(&self) -> String {
        self.plan.render() + &self.rewrites()
    }

    /// The `rewrites applied:` trailer.
    pub(crate) fn rewrites(&self) -> String {
        render_rewrites(&self.rewrites)
    }

    /// Run the plan once, keeping its span tree (`TRACE`).
    pub(crate) fn execute(&self) -> Result<Executed> {
        Ok(if self.raw {
            self.plan.execute_raw()?
        } else {
            self.plan.execute()?
        })
    }

    /// Run the plan once, keeping every node's output so the result can
    /// be maintained under deltas (`LET` and the recompute fallback).
    fn materialize(self) -> Result<MaterializedPlan> {
        Ok(if self.raw {
            MaterializedPlan::new_raw(self.plan)?
        } else {
            MaterializedPlan::new(self.plan)?
        })
    }
}

/// One live `LET` view: its defining derivation plus the machinery to
/// keep the stored relation equal to re-deriving it from scratch.
#[derive(Clone)]
struct ViewDef {
    /// The view's relation name.
    name: String,
    /// The defining right-hand side, for full recomputation.
    derivation: Derivation,
    /// Base relations the derivation scans (delta routing).
    deps: BTreeSet<String>,
    /// Domains those base relations are over: an edit to any of them
    /// changes subsumption itself (and re-shares the schema `Arc`s the
    /// cached node outputs were built against), so the differential
    /// path does not apply and the view is re-planned and rebuilt.
    dep_domains: BTreeSet<String>,
    /// The materialized plan; its root cache *is* the stored relation.
    mat: MaterializedPlan,
}

/// What one [`World::maintain_views`] pass did, for the engine's
/// durability policy (checkpoint when any view state changed) and the
/// `ivm.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MaintainSummary {
    /// Views updated through the differential path.
    pub maintained: usize,
    /// Views re-derived in full (domain edits, resets, recompute-mode
    /// views, or differential-path errors).
    pub fallback: usize,
    /// Views detached because the statement wrote their relation
    /// directly.
    pub detached: usize,
}

impl MaintainSummary {
    /// Whether any view relation or registration changed.
    pub fn changed(&self) -> bool {
        self.maintained + self.fallback + self.detached > 0
    }
}

/// The complete state an HQL statement executes against.
///
/// `Clone` is the copy-on-write entry point: two `Arc` bumps for the
/// catalog's persistent name maps plus one per registered view — never
/// a name, a graph or a tuple. Mutation then goes through
/// [`Arc::make_mut`] at every level inside the catalog, so the original
/// world — possibly still held by concurrent readers — is untouched.
#[derive(Clone, Default)]
pub struct World {
    /// Every named domain and relation.
    catalog: Catalog,
    /// Live `LET` views in registration order, so a view over another
    /// view is maintained after its input and sees its delta. Each
    /// view's stored relation is an entry of `catalog` like any other.
    /// Views are *session* state, not image state: `LOAD`, `OPEN` and a
    /// shipped checkpoint image degrade them to plain relations.
    views: Vec<Arc<ViewDef>>,
}

impl From<Catalog> for World {
    /// Wrap a catalog (e.g. a recovered one) as a world with no views.
    fn from(catalog: Catalog) -> World {
        World {
            catalog,
            views: Vec::new(),
        }
    }
}

/// Resolve attribute names to schema indexes; an empty list means all.
pub(crate) fn attr_indexes(rel: &HRelation, attrs: &[String]) -> Result<Vec<usize>> {
    if attrs.is_empty() {
        return Ok((0..rel.schema().arity()).collect());
    }
    attrs
        .iter()
        .map(|a| Ok(rel.schema().index_of(a)?))
        .collect()
}

/// The `(attribute, domain)` name pairs of a relation's schema — the
/// `CREATE RELATION` signature that recreates it (a domain is named
/// after its root node).
pub(crate) fn signature(relation: &HRelation) -> Vec<(String, String)> {
    relation
        .schema()
        .attributes()
        .iter()
        .map(|a| {
            let domain_name = a.domain().name(a.domain().root()).to_string();
            (a.name().to_string(), domain_name)
        })
        .collect()
}

impl World {
    /// A fresh, empty world.
    pub fn new() -> World {
        World::default()
    }

    /// Names of the defined domains.
    pub fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.catalog.domain_names()
    }

    /// Number of defined domains.
    pub fn domain_count(&self) -> usize {
        self.catalog.domain_names().count()
    }

    /// A domain graph by name.
    pub fn domain(&self, name: &str) -> Result<&Arc<HierarchyGraph>> {
        self.catalog.domain(name).map_err(HqlError::from_catalog)
    }

    /// Names of the defined relations.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.catalog.relation_names()
    }

    /// Number of defined relations.
    pub fn relation_count(&self) -> usize {
        self.catalog.relation_names().count()
    }

    /// A relation by name.
    pub fn relation(&self, name: &str) -> Result<&HRelation> {
        self.relation_arc(name).map(Arc::as_ref)
    }

    /// A relation's shared handle by name.
    fn relation_arc(&self, name: &str) -> Result<&Arc<HRelation>> {
        self.catalog
            .relation_arc(name)
            .map_err(HqlError::from_catalog)
    }

    /// The domain that contains all the given node names (for resolving
    /// `UNDER`/`OF` parents).
    pub(crate) fn domain_containing(&self, names: &[String]) -> Result<String> {
        let mut hits = self
            .catalog
            .domains()
            .filter(|(_, g)| names.iter().all(|n| g.node(n).is_ok()))
            .map(|(d, _)| d);
        match (hits.next(), hits.next()) {
            (Some(only), None) => Ok(only.to_string()),
            (None, _) => Err(HqlError::Unknown {
                kind: "class",
                name: names.join(", "),
            }),
            _ => Err(HqlError::Execution(format!(
                "parents {names:?} exist in several domains; qualify with distinct names"
            ))),
        }
    }

    /// Apply one WAL-vocabulary mutation through the catalog's
    /// interpreter, wording its name-resolution failures the HQL way.
    /// Dropping a relation that was a live view takes the view's
    /// definition with it; views *depending* on it fail on their next
    /// maintenance pass (the write records a reset delta, so that pass
    /// is this very statement and the failure is atomic). Returns the
    /// item an `Assert`/`Retract` resolved, as the interpreter does.
    pub(crate) fn apply(&mut self, m: &CatalogMutation) -> Result<Option<Item>> {
        let item = self
            .catalog
            .apply_mutation(m)
            .map_err(HqlError::from_catalog)?;
        if let CatalogMutation::DropRelation { name } = m {
            self.views.retain(|v| v.name != *name);
        }
        Ok(item)
    }

    /// Names of the relations whose schema references `domain`, in name
    /// order: the `SHOW RELATIONS OVER` listing, whose first entry is
    /// what the `DROP DOMAIN` in-use guard reports.
    pub fn relations_over<'a>(&'a self, domain: &str) -> impl Iterator<Item = &'a str> {
        self.catalog.relations_over(domain)
    }

    /// Fail with HQL's `Duplicate` if a relation named `name` exists.
    fn require_fresh_relation(&self, name: &str) -> Result<()> {
        if self.catalog.relation(name).is_ok() {
            return Err(HqlError::Duplicate {
                kind: "relation",
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Move a relation to a new name. A live view named `from` detaches
    /// (the stored tuples survive under `to` as a plain relation); views
    /// depending on `from` fail atomically via the caller's reset delta.
    pub(crate) fn rename_relation(&mut self, from: &str, to: &str) -> Result<()> {
        self.require_fresh_relation(to)?;
        let relation = self
            .catalog
            .drop_relation(from)
            .map_err(HqlError::from_catalog)?;
        self.catalog.add_relation(to, relation);
        self.views.retain(|v| v.name != from);
        Ok(())
    }

    /// Consolidate a relation in place; returns the number of tuples
    /// removed.
    pub(crate) fn consolidate_in_place(&mut self, relation: &str) -> Result<usize> {
        let result = hrdm_core::consolidate::consolidate(self.relation(relation)?);
        let removed = result.removed.len();
        self.catalog.add_relation(relation, result.relation);
        Ok(removed)
    }

    /// Explicate a relation in place; returns the new tuple count.
    pub(crate) fn explicate_in_place(&mut self, relation: &str, attrs: &[String]) -> Result<usize> {
        let rel = self.relation(relation)?;
        let indexes = attr_indexes(rel, attrs)?;
        let result = hrdm_core::explicate::explicate(rel, &indexes)?;
        let tuples = result.len();
        self.catalog.add_relation(relation, result);
        Ok(tuples)
    }

    /// Names of the relations currently live as maintained views.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|v| v.name.as_str())
    }

    /// Whether `name` is a maintained view.
    pub fn is_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| v.name == name)
    }

    /// `LET name = derivation`: plan the derivation, run it **once**
    /// as a materialized plan, store the plan's root output under the
    /// fresh `name` (shared, not copied) and keep the plan as the live
    /// view's maintenance state. Returns the stored tuple count. From
    /// here on the single writer keeps the stored relation identical to
    /// re-deriving `derivation` from scratch at every epoch.
    pub(crate) fn define_view(&mut self, name: &str, derivation: Derivation) -> Result<usize> {
        let planned = self.plan(&derivation)?;
        let deps = hrdm_core::differential::scan_names(&planned.plan);
        let mat = planned.materialize()?;
        self.require_fresh_relation(name)?;
        let mut dep_domains = BTreeSet::new();
        for dep in &deps {
            if let Ok(relation) = self.relation(dep) {
                dep_domains.extend(signature(relation).into_iter().map(|(_, dom)| dom));
            }
        }
        let tuples = mat.relation().len();
        self.catalog.add_relation(name, mat.relation_arc());
        self.views.push(Arc::new(ViewDef {
            name: name.to_string(),
            derivation,
            deps,
            dep_domains,
            mat,
        }));
        Ok(tuples)
    }

    /// Bring every registered view up to date with one committed
    /// write's `delta`, in registration order (so a view over another
    /// view sees its input's fresh rows). Each view takes the cheapest
    /// sound path:
    ///
    /// * none of its dependencies changed — untouched;
    /// * the statement wrote the view's relation directly — the view
    ///   **detaches** and its relation stays a plain relation;
    /// * row-level deltas only — differential maintenance through the
    ///   materialized plan;
    /// * a dependency was reset, a dependency's domain was edited, or
    ///   the differential path errored — the derivation is planned and
    ///   materialized afresh ([`World::plan`], the same function `LET`
    ///   used).
    ///
    /// Either way the view's output delta is recorded into `delta`
    /// under the view's name, so cascaded views (and the published
    /// epoch delta) see it. An error from the fallback recomputation
    /// propagates: the *statement* fails atomically and publishes
    /// nothing — live views enforce derivability at every epoch.
    pub(crate) fn maintain_views(&mut self, delta: &mut Delta) -> Result<MaintainSummary> {
        let mut summary = MaintainSummary::default();
        if self.views.is_empty() {
            return Ok(summary);
        }
        let views = std::mem::take(&mut self.views);
        let mut kept = Vec::with_capacity(views.len());
        for view in views {
            // A direct write into the view's relation detaches it: the
            // user took ownership of the stored tuples.
            if delta.relations.contains_key(&view.name) {
                summary.detached += 1;
                continue;
            }
            let domain_hit = !delta.domains.is_disjoint(&view.dep_domains);
            let dep_reset = view
                .deps
                .iter()
                .any(|d| matches!(delta.relations.get(d), Some(RelationChange::Reset)));
            let mut rows: BTreeMap<String, RelationDelta> = BTreeMap::new();
            for dep in &view.deps {
                if let Some(RelationChange::Rows(rd)) = delta.relations.get(dep) {
                    if !rd.is_empty() {
                        rows.insert(dep.clone(), rd.clone());
                    }
                }
            }
            if !domain_hit && !dep_reset && rows.is_empty() {
                kept.push(view);
                continue;
            }

            let mut incremental = None;
            if !domain_hit && !dep_reset {
                // Post-write base relations, shared so the plan's scan
                // caches alias them instead of copying.
                let mut bases: BTreeMap<String, Arc<HRelation>> = BTreeMap::new();
                for dep in rows.keys() {
                    if let Ok(base) = self.relation_arc(dep) {
                        bases.insert(dep.clone(), base.clone());
                    }
                }
                // Any differential error falls through to the rebuild
                // below.
                if let Ok((next, out_delta, _)) = view.mat.apply_with_bases(&rows, &bases) {
                    incremental = Some((next, out_delta));
                }
            }
            let old = self.relation(&view.name)?;
            let (mat, out_delta) = match incremental {
                Some(maintained) => {
                    summary.maintained += 1;
                    maintained
                }
                None => {
                    summary.fallback += 1;
                    // Re-plan against the post-write world, so later
                    // epochs can go differential again.
                    let mat = self.plan(&view.derivation)?.materialize()?;
                    let out_delta = RelationDelta::diff(old, mat.relation());
                    (mat, out_delta)
                }
            };
            let mode_changed = mat.relation().preemption() != old.preemption();
            // Share the plan's root cache — no per-write copy of the
            // view's tuples.
            self.catalog
                .add_relation(view.name.as_str(), mat.relation_arc());
            if mode_changed {
                // A preemption-mode flip is invisible to a row diff but
                // changes downstream semantics; cascade it as a reset so
                // dependent views rebuild their caches.
                delta
                    .relations
                    .insert(view.name.clone(), RelationChange::Reset);
            } else if !out_delta.is_empty() {
                delta
                    .relations
                    .insert(view.name.clone(), RelationChange::Rows(out_delta));
            }
            kept.push(Arc::new(ViewDef {
                name: view.name.clone(),
                derivation: view.derivation.clone(),
                deps: view.deps.clone(),
                dep_domains: view.dep_domains.clone(),
                mat,
            }));
        }
        self.views = kept;
        Ok(summary)
    }

    /// Snapshot the world as a persistence image: the catalog's own
    /// handles, no graph or tuple copied.
    pub fn to_image(&self) -> hrdm_persist::Image {
        hrdm_persist::Image::from_catalog(&self.catalog)
    }

    /// Build a world from a persistence image, taking over its handles.
    pub fn from_image(image: hrdm_persist::Image) -> World {
        World::from(image.into_catalog())
    }

    /// The plan that runs for `derivation`: [`World::plan_of`], rule-
    /// optimized. Plan execution returns the *canonical* (consolidated,
    /// §3.3.1) relation of the query's flat model, with one exception
    /// handled here and nowhere else: a top-level `EXPLICATE` is run
    /// raw. Its operand is explicated as the user would see it bound —
    /// a named relation as stored, a nested derivation in its canonical
    /// form (an explicit `Consolidate` node, unless that derivation is
    /// itself a raw `EXPLICATE`).
    pub(crate) fn plan(&self, derivation: &Derivation) -> Result<Planned> {
        let (written, raw) = self.written(derivation)?;
        let (plan, rewrites) = written.optimize();
        Ok(Planned {
            plan,
            rewrites,
            raw,
        })
    }

    /// `derivation` as an unoptimized plan, and whether it runs raw.
    fn written(&self, derivation: &Derivation) -> Result<(LogicalPlan, bool)> {
        let Derivation::Explicated(src, attrs) = derivation else {
            return Ok((self.plan_of(derivation)?, false));
        };
        let operand = match src {
            Source::Named(_) => self.source_plan(src)?,
            Source::Derived(inner) => match self.written(inner)? {
                (plan, true) => plan,
                (plan, false) => plan.consolidate(),
            },
        };
        Ok((explicate_plan(operand, attrs)?, true))
    }

    /// An operand as a plan node: scans stay leaves (sharing the stored
    /// relation, not copying it), nested derivations inline into the
    /// surrounding tree so rewrites can cross them.
    fn source_plan(&self, src: &Source) -> Result<LogicalPlan> {
        match src {
            Source::Named(name) => Ok(LogicalPlan::Scan {
                name: name.clone(),
                relation: Arc::clone(self.relation_arc(name)?),
            }),
            Source::Derived(inner) => self.plan_of(inner),
        }
    }

    /// Build the logical plan of a derivation (no execution). Attribute
    /// names resolve against the plan's inferred output schema, so
    /// projections and explications over nested derivations see the
    /// composed layout (e.g. a join's merged attribute list).
    fn plan_of(&self, derivation: &Derivation) -> Result<LogicalPlan> {
        Ok(match derivation {
            Derivation::Union(a, b) => self.source_plan(a)?.union(self.source_plan(b)?),
            Derivation::Intersect(a, b) => self.source_plan(a)?.intersect(self.source_plan(b)?),
            Derivation::Difference(a, b) => self.source_plan(a)?.diff(self.source_plan(b)?),
            Derivation::Join(a, b) => self.source_plan(a)?.join(self.source_plan(b)?),
            Derivation::Project(a, attrs) => {
                let p = self.source_plan(a)?;
                let schema = p.output_schema()?;
                let indexes = attrs
                    .iter()
                    .map(|n| Ok(schema.index_of(n)?))
                    .collect::<Result<Vec<_>>>()?;
                p.project(indexes)
            }
            Derivation::Select(a, conds) => {
                let mut p = self.source_plan(a)?;
                for (attr, value) in conds {
                    p = p.select_eq(attr.clone(), value.name.clone());
                }
                p
            }
            Derivation::Consolidated(a) => self.source_plan(a)?.consolidate(),
            Derivation::Explicated(a, attrs) => explicate_plan(self.source_plan(a)?, attrs)?,
        })
    }
}

/// `EXPLICATE operand ON attrs` as a plan node; no attributes means all.
fn explicate_plan(operand: LogicalPlan, attrs: &[String]) -> Result<LogicalPlan> {
    let schema = operand.output_schema()?;
    let indexes = if attrs.is_empty() {
        (0..schema.arity()).collect()
    } else {
        attrs
            .iter()
            .map(|n| Ok(schema.index_of(n)?))
            .collect::<Result<Vec<_>>>()?
    };
    Ok(operand.explicate(indexes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(w: &mut World, m: CatalogMutation) {
        w.apply(&m).unwrap();
    }

    /// Domain `D` with class `A`, and relations `R` and `S` over it,
    /// `R` holding `∀A`.
    fn sample() -> World {
        let mut w = World::new();
        apply(&mut w, CatalogMutation::CreateDomain { name: "D".into() });
        apply(
            &mut w,
            CatalogMutation::AddClass {
                domain: "D".into(),
                name: "A".into(),
                parents: vec!["D".into()],
            },
        );
        for name in ["R", "S"] {
            apply(
                &mut w,
                CatalogMutation::CreateRelation {
                    name: name.into(),
                    attributes: vec![("V".into(), "D".into())],
                },
            );
        }
        apply(&mut w, assert_a("R"));
        w
    }

    fn assert_a(relation: &str) -> CatalogMutation {
        CatalogMutation::Assert {
            relation: relation.into(),
            values: vec!["A".into()],
            truth: Truth::Positive,
        }
    }

    #[test]
    fn clone_is_shallow() {
        let w = sample();
        let copy = w.clone();
        // Same Arcs on both sides until someone mutates.
        assert!(Arc::ptr_eq(
            w.domain("D").unwrap(),
            copy.domain("D").unwrap()
        ));
        assert!(Arc::ptr_eq(
            w.relation_arc("R").unwrap(),
            copy.relation_arc("R").unwrap()
        ));
    }

    #[test]
    fn mutating_a_copy_leaves_the_original_untouched() {
        let w = sample();
        let mut copy = w.clone();
        apply(
            &mut copy,
            CatalogMutation::AddClass {
                domain: "D".into(),
                name: "B".into(),
                parents: vec!["A".into()],
            },
        );
        apply(&mut copy, assert_a("S"));
        // The original still has the pre-mutation graph and relation.
        assert!(w.domain("D").unwrap().node("B").is_err());
        assert_eq!(w.relation("S").unwrap().len(), 0);
        assert!(copy.domain("D").unwrap().node("B").is_ok());
        assert_eq!(copy.relation("S").unwrap().len(), 1);
    }

    #[test]
    fn a_write_to_one_relation_shares_every_other() {
        let before = sample();
        let mut after = before.clone();
        apply(&mut after, assert_a("S"));
        assert!(!Arc::ptr_eq(
            before.relation_arc("S").unwrap(),
            after.relation_arc("S").unwrap()
        ));
        assert!(Arc::ptr_eq(
            before.relation_arc("R").unwrap(),
            after.relation_arc("R").unwrap()
        ));
        assert!(Arc::ptr_eq(
            before.domain("D").unwrap(),
            after.domain("D").unwrap()
        ));
    }

    #[test]
    fn image_round_trip_shares_storage() {
        let w = sample();
        let restored = World::from_image(w.to_image());
        assert_eq!(restored.domain_count(), 1);
        assert_eq!(restored.relation_count(), 2);
        // No graph and no tuple was copied on the way through the image.
        for name in ["R", "S"] {
            assert!(Arc::ptr_eq(
                w.relation_arc(name).unwrap(),
                restored.relation_arc(name).unwrap()
            ));
        }
        assert!(Arc::ptr_eq(
            w.domain("D").unwrap(),
            restored.domain("D").unwrap()
        ));
        // Domain handle identity links the restored relation's schema to
        // the restored domain map (join compatibility is Arc identity).
        assert!(Arc::ptr_eq(
            restored.domain("D").unwrap(),
            restored.relation("R").unwrap().schema().attributes()[0].domain()
        ));
    }
}
