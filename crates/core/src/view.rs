//! Live views: relations stored as their definitions.
//!
//! A `LET` binds a name to a [`Derivation`] and keeps the stored
//! relation equal to re-deriving it from scratch at every state — an
//! *inherited* relation in Litwin's sense (*Stored and Inherited
//! Relations*), kept in the same [`Catalog`] as the stored ones. The
//! catalog holds each view's definition beside its relation, so the
//! `DefineView` record that creates a view, the image that carries it
//! and the writes that maintain it all go through the catalog, and a
//! restart, a replica and the live engine rebuild the view with the
//! same code ([`Catalog::apply_mutation`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::delta::{Delta, RelationChange, RelationDelta};
use crate::derivation::Derivation;
use crate::differential::{scan_names, MaterializedPlan};
use crate::error::Result;
use crate::relation::HRelation;

/// One live view: its defining derivation plus the machinery to keep
/// the stored relation equal to re-deriving it from scratch.
pub struct View {
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

impl View {
    /// The view's relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The derivation the view's relation equals.
    pub fn derivation(&self) -> &Derivation {
        &self.derivation
    }
}

/// What one maintenance pass over the views did (the `ivm.*`
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainSummary {
    /// Views updated through the differential path.
    pub maintained: usize,
    /// Views re-derived in full (domain edits, resets, recompute-mode
    /// views, or differential-path errors).
    pub fallback: usize,
    /// Views detached because the mutation wrote their relation
    /// directly.
    pub detached: usize,
}

impl std::ops::AddAssign for MaintainSummary {
    fn add_assign(&mut self, other: MaintainSummary) {
        self.maintained += other.maintained;
        self.fallback += other.fallback;
        self.detached += other.detached;
    }
}

impl Catalog {
    /// Whether `name` is a live view.
    pub fn is_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| v.name == name)
    }

    /// The live views in registration order, so a view over another
    /// view comes after its input.
    pub fn views(&self) -> impl Iterator<Item = &Arc<View>> {
        self.views.iter()
    }

    /// Register a view taken from another catalog (an image's) whose
    /// relation this catalog holds under the view's name, after the
    /// views it reads.
    pub fn add_view(&mut self, view: Arc<View>) {
        self.views.push(view);
    }

    /// Make `name` a live view of `derivation`: plan the derivation,
    /// run it **once** as a materialized plan, store the plan's root
    /// output under `name` (shared, not copied; any relation already
    /// there is replaced) and keep the plan as the view's maintenance
    /// state. `DefineView` does this for a fresh name, and so does
    /// loading an image for each view it defines.
    pub fn attach_view(&mut self, name: &str, derivation: Derivation) -> Result<()> {
        let planned = self.plan(&derivation)?;
        let deps = scan_names(&planned.plan);
        let mat = planned.materialize()?;
        let mut dep_domains = BTreeSet::new();
        for dep in &deps {
            if let Ok(relation) = self.relation(dep) {
                dep_domains.extend(relation.schema().signature().into_iter().map(|(_, d)| d));
            }
        }
        self.add_relation(name, mat.relation_arc());
        self.views.push(Arc::new(View {
            name: name.to_string(),
            derivation,
            deps,
            dep_domains,
            mat,
        }));
        Ok(())
    }

    /// Unregister the view named `name`, if there is one; its relation
    /// stays as it is.
    pub(crate) fn detach_view(&mut self, name: &str) {
        self.views.retain(|v| v.name != name);
    }

    /// Bring every view up to date with one mutation's `delta`, in
    /// registration order (so a view over another view sees its input's
    /// fresh rows). Each view takes the cheapest sound path:
    ///
    /// * none of its dependencies changed — untouched;
    /// * the mutation wrote the view's relation directly — the view
    ///   **detaches** and its relation stays a plain relation;
    /// * row-level deltas only — differential maintenance through the
    ///   materialized plan;
    /// * a dependency was reset, a dependency's domain was edited, or
    ///   the differential path errored — the derivation is planned and
    ///   materialized afresh ([`Catalog::plan`], the same function
    ///   `DefineView` used).
    ///
    /// Either way the view's output delta is recorded into `delta`
    /// under the view's name, so cascaded views see it. An error from
    /// the fallback recomputation propagates: the mutation is refused —
    /// views enforce derivability at every state.
    pub(crate) fn maintain_views(&mut self, delta: &mut Delta) -> Result<MaintainSummary> {
        let mut summary = MaintainSummary::default();
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
                    // Re-plan against the post-write catalog, so later
                    // mutations can go differential again.
                    let mat = self.plan(&view.derivation)?.materialize()?;
                    let out_delta = RelationDelta::diff(old, mat.relation());
                    (mat, out_delta)
                }
            };
            let mode_changed = mat.relation().preemption() != old.preemption();
            // Share the plan's root cache — no per-write copy of the
            // view's tuples.
            self.add_relation(view.name.as_str(), mat.relation_arc());
            if mode_changed {
                // A preemption-mode flip is invisible to a row diff but
                // changes downstream semantics; cascade it as a reset so
                // dependent views rebuild their caches.
                delta.record_reset(&view.name);
            } else if !out_delta.is_empty() {
                delta
                    .relations
                    .insert(view.name.clone(), RelationChange::Rows(out_delta));
            }
            kept.push(Arc::new(View {
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
}
