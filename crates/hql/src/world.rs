//! The immutable-once-published session state.
//!
//! A [`World`] is everything an HQL statement can see: the domain
//! graphs and the relations over them. It is the unit the concurrent
//! [`Engine`](crate::engine::Engine) publishes through a
//! [`SnapshotCell`]: readers hold an
//! `Arc<World>` and never lock; the single writer clones the world
//! (cheap — both maps hold `Arc`s, so a clone is a handful of pointer
//! bumps), mutates its private copy, and publishes it as the next
//! epoch.
//!
//! Because relations share their domain graphs through `Arc`s (join
//! compatibility is `Arc` identity), any mutation of a domain —
//! `CREATE CLASS`, `CREATE INSTANCE`, `PREFER` — re-shares a fresh
//! `Arc` across every relation on that domain. Node ids are stable
//! under node/edge addition, so the stored tuples carry over verbatim.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hrdm_core::delta::{Delta, RelationChange, RelationDelta};
use hrdm_core::differential::MaterializedPlan;
use hrdm_core::plan::LogicalPlan;
use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;

use crate::ast::{Derivation, Source, ValueRef};
use crate::error::{HqlError, Result};

/// A stored relation plus its (attribute, domain-name) signature. The
/// signature is what lets a domain mutation rebuild the relation's
/// schema against the freshly re-shared graphs.
#[derive(Clone)]
pub struct RelationEntry {
    /// The relation itself, shared so a maintained view can alias its
    /// materialized plan's root cache instead of cloning every tuple on
    /// each write.
    pub relation: Arc<HRelation>,
    /// `(attribute name, domain name)` per schema position.
    pub signature: Vec<(String, String)>,
}

/// How a registered view is kept current.
#[derive(Clone)]
enum ViewMode {
    /// Maintained per-delta through the differential plan evaluator.
    Incremental(MaterializedPlan),
    /// Re-derived in full on every relevant delta. Used for top-level
    /// `EXPLICATE` over a *derived* source, whose evaluation order
    /// (consolidate the inner result, then explicate) the plan IR does
    /// not express — and as the landing mode when a materialization
    /// cannot be (re)built.
    Recompute,
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
    /// path does not apply and the view falls back to recomputation.
    dep_domains: BTreeSet<String>,
    /// Maintenance machinery.
    mode: ViewMode,
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
/// `Clone` is the copy-on-write entry point: it clones only the two
/// maps of `Arc`s (plus the view registry's `Arc`s), never a graph or
/// a tuple. Mutators then use
/// [`Arc::make_mut`] (relations) or clone-and-re-share (domains) so the
/// original world — possibly still held by concurrent readers — is
/// untouched.
#[derive(Clone, Default)]
pub struct World {
    /// The domain graphs, shared with every schema that references them.
    domains: BTreeMap<String, Arc<HierarchyGraph>>,
    /// Relations by name.
    relations: BTreeMap<String, Arc<RelationEntry>>,
    /// Live `LET` views in registration order, so a view over another
    /// view is maintained after its input and sees its delta. Views are
    /// *session* state, not image state: `LOAD`/`OPEN`/`restore`
    /// degrade them to plain relations.
    views: Vec<Arc<ViewDef>>,
}

/// Resolve a written tuple into an item against a relation's schema.
pub(crate) fn resolve_item(relation: &HRelation, values: &[ValueRef]) -> Result<Item> {
    let names: Vec<&str> = values.iter().map(|v| v.name.as_str()).collect();
    Ok(relation.item(&names)?)
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

impl World {
    /// A fresh, empty world.
    pub fn new() -> World {
        World::default()
    }

    /// Names of the defined domains.
    pub fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.domains.keys().map(String::as_str)
    }

    /// Number of defined domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// A domain graph by name.
    pub fn domain(&self, name: &str) -> Result<&Arc<HierarchyGraph>> {
        self.domains.get(name).ok_or_else(|| HqlError::Unknown {
            kind: "domain",
            name: name.to_string(),
        })
    }

    /// Names of the defined relations.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of defined relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// A relation by name.
    pub fn relation(&self, name: &str) -> Result<&HRelation> {
        self.relation_entry(name).map(|e| e.relation.as_ref())
    }

    pub(crate) fn relation_entry(&self, name: &str) -> Result<&RelationEntry> {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| HqlError::Unknown {
                kind: "relation",
                name: name.to_string(),
            })
    }

    fn relation_entry_mut(&mut self, name: &str) -> Result<&mut RelationEntry> {
        match self.relations.get_mut(name) {
            Some(arc) => Ok(Arc::make_mut(arc)),
            None => Err(HqlError::Unknown {
                kind: "relation",
                name: name.to_string(),
            }),
        }
    }

    /// Unique access to a relation's tuples (copy-on-write through both
    /// the entry and the relation `Arc`s).
    fn relation_mut(&mut self, name: &str) -> Result<&mut HRelation> {
        let entry = self.relation_entry_mut(name)?;
        Ok(Arc::make_mut(&mut entry.relation))
    }

    /// The domain that contains all the given node names (for resolving
    /// `UNDER`/`OF` parents).
    fn domain_containing(&self, names: &[String]) -> Result<String> {
        let mut hits: Vec<&String> = self
            .domains
            .iter()
            .filter(|(_, g)| names.iter().all(|n| g.node(n).is_ok()))
            .map(|(d, _)| d)
            .collect();
        match hits.len() {
            1 => Ok(hits.remove(0).clone()),
            0 => Err(HqlError::Unknown {
                kind: "class",
                name: names.join(", "),
            }),
            _ => Err(HqlError::Execution(format!(
                "parents {names:?} exist in several domains; qualify with distinct names"
            ))),
        }
    }

    /// After mutating `domain`, re-share its fresh `Arc` across every
    /// relation that references it (node ids are stable, so tuples are
    /// reused as-is).
    fn reshare(&mut self, domain: &str) {
        let names: Vec<String> = self.relations_over(domain).map(String::from).collect();
        for name in names {
            let entry = self.relations.remove(&name).expect("listed above");
            let attrs: Vec<Attribute> = entry
                .signature
                .iter()
                .map(|(attr, dom)| Attribute::new(attr.clone(), self.domains[dom].clone()))
                .collect();
            let schema = Arc::new(Schema::new(attrs));
            let mut rebuilt = HRelation::with_preemption(schema, entry.relation.preemption());
            for (item, truth) in entry.relation.iter() {
                rebuilt
                    .insert(Tuple::new(item.clone(), truth))
                    .expect("node ids are stable across domain growth");
            }
            self.relations.insert(
                name,
                Arc::new(RelationEntry {
                    relation: Arc::new(rebuilt),
                    signature: entry.signature.clone(),
                }),
            );
        }
    }

    /// Clone `domain`'s graph, apply `f` to the copy, and on success
    /// publish the fresh graph to every relation over the domain.
    fn mutate_domain<F>(&mut self, domain: &str, f: F) -> Result<()>
    where
        F: FnOnce(&mut HierarchyGraph) -> Result<()>,
    {
        let arc = self.domain(domain)?;
        let mut g = (**arc).clone();
        f(&mut g)?;
        self.domains.insert(domain.to_string(), Arc::new(g));
        self.reshare(domain);
        Ok(())
    }

    pub(crate) fn create_domain(&mut self, name: &str) -> Result<()> {
        if self.domains.contains_key(name) {
            return Err(HqlError::Duplicate {
                kind: "domain",
                name: name.to_string(),
            });
        }
        self.domains
            .insert(name.to_string(), Arc::new(HierarchyGraph::new(name)));
        Ok(())
    }

    /// Add a class under the named parents; returns the containing
    /// domain's name (for the journal record and the reply).
    pub(crate) fn add_class(&mut self, name: &str, parents: &[String]) -> Result<String> {
        let domain = self.domain_containing(parents)?;
        self.mutate_domain(&domain, |g| {
            let parent_ids = parents
                .iter()
                .map(|p| g.node(p))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            g.add_class_multi(name, &parent_ids)?;
            Ok(())
        })?;
        Ok(domain)
    }

    /// Add an instance under the named parents; returns the containing
    /// domain's name.
    pub(crate) fn add_instance(&mut self, name: &str, parents: &[String]) -> Result<String> {
        let domain = self.domain_containing(parents)?;
        self.mutate_domain(&domain, |g| {
            let parent_ids = parents
                .iter()
                .map(|p| g.node(p))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            g.add_instance_multi(name, &parent_ids)?;
            Ok(())
        })?;
        Ok(domain)
    }

    pub(crate) fn prefer(&mut self, domain: &str, stronger: &str, weaker: &str) -> Result<()> {
        self.mutate_domain(domain, |g| {
            let s = g.node(stronger)?;
            let w = g.node(weaker)?;
            hrdm_hierarchy::preference::prefer(g, s, w)?;
            Ok(())
        })
    }

    pub(crate) fn create_relation(
        &mut self,
        name: &str,
        attributes: &[(String, String)],
    ) -> Result<()> {
        if self.relations.contains_key(name) {
            return Err(HqlError::Duplicate {
                kind: "relation",
                name: name.to_string(),
            });
        }
        let attrs = attributes
            .iter()
            .map(|(attr, dom)| Ok(Attribute::new(attr.clone(), self.domain(dom)?.clone())))
            .collect::<Result<Vec<_>>>()?;
        let schema = Arc::new(Schema::new(attrs));
        self.relations.insert(
            name.to_string(),
            Arc::new(RelationEntry {
                relation: Arc::new(HRelation::new(schema)),
                signature: attributes.to_vec(),
            }),
        );
        Ok(())
    }

    /// Names of the relations whose schema references `domain`, in name
    /// order: the `SHOW RELATIONS OVER` listing, whose first entry is
    /// what the `DROP DOMAIN` in-use guard reports.
    pub fn relations_over<'a>(&'a self, domain: &'a str) -> impl Iterator<Item = &'a str> {
        self.relations
            .iter()
            .filter(move |(_, e)| e.signature.iter().any(|(_, d)| d == domain))
            .map(|(n, _)| n.as_str())
    }

    /// Remove a domain no relation references (mirrors
    /// `Catalog::apply_mutation`'s InUse guard, keyed on the signature
    /// rather than `Arc` identity — equivalent, since every relation
    /// over the domain shares its graph by name).
    pub(crate) fn drop_domain(&mut self, name: &str) -> Result<()> {
        if !self.domains.contains_key(name) {
            return Err(HqlError::Unknown {
                kind: "domain",
                name: name.to_string(),
            });
        }
        if let Some(by) = self.relations_over(name).next() {
            return Err(CoreError::InUse {
                kind: "domain",
                name: name.to_string(),
                by: by.to_string(),
            }
            .into());
        }
        self.domains.remove(name);
        Ok(())
    }

    /// Remove a stored relation. If it was a live view, its definition
    /// goes with it; views *depending* on it fail on their next
    /// maintenance pass (the caller records a reset delta, so that pass
    /// is this very statement and the failure is atomic).
    pub(crate) fn drop_relation(&mut self, name: &str) -> Result<()> {
        if self.relations.remove(name).is_none() {
            return Err(HqlError::Unknown {
                kind: "relation",
                name: name.to_string(),
            });
        }
        self.views.retain(|v| v.name != name);
        Ok(())
    }

    /// Move a relation to a new name. A live view named `from` detaches
    /// (the stored tuples survive under `to` as a plain relation); views
    /// depending on `from` fail atomically via the caller's reset delta.
    pub(crate) fn rename_relation(&mut self, from: &str, to: &str) -> Result<()> {
        if self.relations.contains_key(to) {
            return Err(HqlError::Duplicate {
                kind: "relation",
                name: to.to_string(),
            });
        }
        let entry = match self.relations.remove(from) {
            Some(e) => e,
            None => {
                return Err(HqlError::Unknown {
                    kind: "relation",
                    name: from.to_string(),
                })
            }
        };
        self.relations.insert(to.to_string(), entry);
        self.views.retain(|v| v.name != from);
        Ok(())
    }

    /// Assert a tuple; returns the rendered item (for the reply) and
    /// the resolved item (for the write's delta).
    pub(crate) fn assert_item(
        &mut self,
        relation: &str,
        values: &[ValueRef],
        truth: Truth,
    ) -> Result<(String, Item)> {
        let rel = self.relation_mut(relation)?;
        let item = resolve_item(rel, values)?;
        let rendered = rel.schema().display_item(&item);
        rel.assert_item(item.clone(), truth)?;
        Ok((rendered, item))
    }

    /// Retract a stored tuple; returns the rendered item (for the
    /// reply) and the resolved item (for the write's delta).
    pub(crate) fn retract_item(
        &mut self,
        relation: &str,
        values: &[ValueRef],
    ) -> Result<(String, Item)> {
        let rel = self.relation_mut(relation)?;
        let item = resolve_item(rel, values)?;
        let rendered = rel.schema().display_item(&item);
        if rel.remove(&item).is_none() {
            return Err(HqlError::Unknown {
                kind: "tuple",
                name: rendered,
            });
        }
        Ok((rendered, item))
    }

    /// Consolidate a relation in place; returns the number of tuples
    /// removed.
    pub(crate) fn consolidate_in_place(&mut self, relation: &str) -> Result<usize> {
        let entry = self.relation_entry_mut(relation)?;
        let result = hrdm_core::consolidate::consolidate(entry.relation.as_ref());
        let removed = result.removed.len();
        entry.relation = Arc::new(result.relation);
        Ok(removed)
    }

    /// Explicate a relation in place; returns the new tuple count.
    pub(crate) fn explicate_in_place(&mut self, relation: &str, attrs: &[String]) -> Result<usize> {
        let entry = self.relation_entry_mut(relation)?;
        let indexes = attr_indexes(entry.relation.as_ref(), attrs)?;
        let result = hrdm_core::explicate::explicate(entry.relation.as_ref(), &indexes)?;
        let tuples = result.len();
        entry.relation = Arc::new(result);
        Ok(tuples)
    }

    pub(crate) fn set_preemption(&mut self, relation: &str, mode: Preemption) -> Result<()> {
        self.relation_mut(relation)?.set_preemption(mode);
        Ok(())
    }

    /// Store a derived relation under a fresh name; returns its stored
    /// tuple count.
    pub(crate) fn store_derived(&mut self, name: &str, relation: HRelation) -> Result<usize> {
        if self.relations.contains_key(name) {
            return Err(HqlError::Duplicate {
                kind: "relation",
                name: name.to_string(),
            });
        }
        let signature: Vec<(String, String)> = relation
            .schema()
            .attributes()
            .iter()
            .map(|a| {
                let domain_name = a.domain().name(a.domain().root()).to_string();
                (a.name().to_string(), domain_name)
            })
            .collect();
        let tuples = relation.len();
        self.relations.insert(
            name.to_string(),
            Arc::new(RelationEntry {
                relation: Arc::new(relation),
                signature,
            }),
        );
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

    /// The `(attribute, domain-root)` signature of a relation's schema,
    /// mirroring [`World::store_derived`]'s bookkeeping.
    fn signature_of(relation: &HRelation) -> Vec<(String, String)> {
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

    /// Replace a relation entry wholesale (view maintenance). Takes the
    /// relation as an `Arc` so the entry can alias a materialized
    /// plan's root cache without copying tuples.
    fn set_relation(&mut self, name: &str, relation: Arc<HRelation>) {
        let signature = World::signature_of(&relation);
        self.relations.insert(
            name.to_string(),
            Arc::new(RelationEntry {
                relation,
                signature,
            }),
        );
    }

    /// Build the maintenance machinery for a derivation against the
    /// current world. A top-level `EXPLICATE` over a *derived* source
    /// is pinned to recompute mode (see [`ViewMode::Recompute`]); every
    /// other shape gets a materialized plan — `new_raw` for a top-level
    /// `EXPLICATE` over a named relation (its point is the non-minimal
    /// form the canonicalizing root consolidate would collapse),
    /// canonical otherwise, matching [`World::derive`]'s two paths.
    fn view_mode_of(&self, derivation: &Derivation) -> ViewMode {
        let built = match derivation {
            Derivation::Explicated(Source::Derived(_), _) => None,
            Derivation::Explicated(Source::Named(_), _) => self
                .plan_of(derivation)
                .ok()
                .and_then(|p| MaterializedPlan::new_raw(p).ok()),
            _ => self
                .plan_of(derivation)
                .ok()
                .and_then(|p| MaterializedPlan::new(p).ok()),
        };
        match built {
            Some(mat) => ViewMode::Incremental(mat),
            None => ViewMode::Recompute,
        }
    }

    /// Register a freshly `LET`-bound relation as a live view. Called
    /// after [`World::store_derived`]; from here on the single writer
    /// keeps the stored relation identical to re-deriving `derivation`
    /// from scratch at every epoch.
    pub(crate) fn register_view(&mut self, name: &str, derivation: Derivation) -> Result<()> {
        let plan = self.plan_of(&derivation)?;
        let deps = hrdm_core::differential::scan_names(&plan);
        let mut dep_domains = BTreeSet::new();
        for dep in &deps {
            if let Ok(entry) = self.relation_entry(dep) {
                for (_, dom) in &entry.signature {
                    dep_domains.insert(dom.clone());
                }
            }
        }
        let mode = self.view_mode_of(&derivation);
        self.views.push(Arc::new(ViewDef {
            name: name.to_string(),
            derivation,
            deps,
            dep_domains,
            mode,
        }));
        Ok(())
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
    /// * a dependency was reset, a dependency's domain was edited, the
    ///   view is recompute-mode, or the differential path errored —
    ///   full recomputation via [`World::derive`].
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
                if let ViewMode::Incremental(mat) = &view.mode {
                    // Post-write base relations, shared so the plan's
                    // scan caches alias them instead of copying.
                    let mut bases: BTreeMap<String, Arc<HRelation>> = BTreeMap::new();
                    for dep in rows.keys() {
                        if let Ok(entry) = self.relation_entry(dep) {
                            bases.insert(dep.clone(), entry.relation.clone());
                        }
                    }
                    // Any differential error falls through to the full
                    // recomputation below.
                    if let Ok((next, out_delta, _)) = mat.apply_with_bases(&rows, &bases) {
                        incremental = Some((next, out_delta));
                    }
                }
            }
            let old_preemption = self.relation(&view.name)?.preemption();
            let (relation, out_delta, mode) = match incremental {
                Some((next, out_delta)) => {
                    summary.maintained += 1;
                    // Share the plan's root cache — no per-write copy
                    // of the view's tuples.
                    let rel = next.relation_arc();
                    (rel, out_delta, ViewMode::Incremental(next))
                }
                None => {
                    summary.fallback += 1;
                    let derived = self.derive(&view.derivation)?;
                    let old = self.relation(&view.name)?;
                    let out_delta = RelationDelta::diff(old, &derived);
                    let mode = {
                        // Rebuild against the post-write world so later
                        // epochs can go differential again.
                        self.view_mode_of(&view.derivation)
                    };
                    (Arc::new(derived), out_delta, mode)
                }
            };
            let mode_changed = relation.preemption() != old_preemption;
            self.set_relation(&view.name, relation);
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
                mode,
            }));
        }
        self.views = kept;
        Ok(summary)
    }

    /// Snapshot the world as a persistence image.
    pub fn to_image(&self) -> hrdm_persist::Image {
        let mut image = hrdm_persist::Image::new();
        for (name, arc) in &self.domains {
            image.add_domain(name.clone(), arc.clone());
        }
        for (name, entry) in &self.relations {
            image.add_relation(name.clone(), entry.relation.as_ref().clone());
        }
        image
    }

    /// Build a world from a persistence image.
    pub fn from_image(image: hrdm_persist::Image) -> World {
        let mut world = World::new();
        let domain_names: Vec<String> = image.domain_names().map(String::from).collect();
        for name in &domain_names {
            let arc = image.domain(name).expect("listed").clone();
            world.domains.insert(name.clone(), arc);
        }
        let relation_names: Vec<String> = image.relation_names().map(String::from).collect();
        for name in relation_names {
            let rel = image.relation(&name).expect("listed").clone();
            let signature: Vec<(String, String)> = rel
                .schema()
                .attributes()
                .iter()
                .map(|a| {
                    (
                        a.name().to_string(),
                        a.domain().name(a.domain().root()).to_string(),
                    )
                })
                .collect();
            world.relations.insert(
                name,
                Arc::new(RelationEntry {
                    relation: Arc::new(rel),
                    signature,
                }),
            );
        }
        world
    }

    /// Evaluate a derivation by building a [`LogicalPlan`], optimizing
    /// it, and executing the optimized form. Plan execution returns the
    /// *canonical* (consolidated, §3.3.1) relation of the query's flat
    /// model, so one exception applies: a top-level `EXPLICATE` is
    /// lowered directly — its whole point is the explicit, non-minimal
    /// form, which the final consolidate would collapse straight back.
    ///
    /// Physical execution is batch-at-a-time
    /// ([`hrdm_core::batch::execute_batch`]) over a plan reordered by
    /// the measured cost model
    /// ([`hrdm_core::cost::optimize_with_cost`] with
    /// [`hrdm_core::cost::CostModel::from_registry`]); both are proven
    /// byte-identical to
    /// the tuple path by the core parity suites, so HQL semantics are
    /// untouched.
    pub(crate) fn derive(&self, derivation: &Derivation) -> Result<HRelation> {
        if let Derivation::Explicated(src, attrs) = derivation {
            let input = self.source_relation(src)?;
            let indexes = attr_indexes(&input, attrs)?;
            return Ok(hrdm_core::explicate::explicate(&input, &indexes)?);
        }
        let model = hrdm_core::cost::CostModel::from_registry();
        let (optimized, _rewrites) =
            hrdm_core::cost::optimize_with_cost(&self.plan_of(derivation)?, &model);
        Ok(hrdm_core::batch::execute_batch(&optimized)?.relation)
    }

    /// Materialize an operand: a named relation is cloned as-is; a
    /// nested derivation is evaluated like any `LET` right-hand side.
    fn source_relation(&self, src: &Source) -> Result<HRelation> {
        match src {
            Source::Named(name) => Ok(self.relation_entry(name)?.relation.as_ref().clone()),
            Source::Derived(inner) => self.derive(inner),
        }
    }

    /// An operand as a plan node: scans stay leaves, nested derivations
    /// inline into the surrounding tree so rewrites can cross them.
    fn source_plan(&self, src: &Source) -> Result<LogicalPlan> {
        match src {
            Source::Named(name) => {
                let entry = self.relation_entry(name)?;
                Ok(LogicalPlan::scan(
                    name.clone(),
                    entry.relation.as_ref().clone(),
                ))
            }
            Source::Derived(inner) => self.plan_of(inner),
        }
    }

    /// Build the logical plan of a derivation (no execution). Attribute
    /// names resolve against the plan's inferred output schema, so
    /// projections and explications over nested derivations see the
    /// composed layout (e.g. a join's merged attribute list).
    pub(crate) fn plan_of(&self, derivation: &Derivation) -> Result<LogicalPlan> {
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
            Derivation::Explicated(a, attrs) => {
                let p = self.source_plan(a)?;
                let schema = p.output_schema()?;
                let indexes = if attrs.is_empty() {
                    (0..schema.arity()).collect()
                } else {
                    attrs
                        .iter()
                        .map(|n| Ok(schema.index_of(n)?))
                        .collect::<Result<Vec<_>>>()?
                };
                p.explicate(indexes)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow() {
        let mut w = World::new();
        w.create_domain("D").unwrap();
        w.create_relation("R", &[("V".into(), "D".into())]).unwrap();
        let copy = w.clone();
        // Same Arcs on both sides until someone mutates.
        assert!(Arc::ptr_eq(
            w.domain("D").unwrap(),
            copy.domain("D").unwrap()
        ));
        assert!(Arc::ptr_eq(&w.relations["R"], &copy.relations["R"]));
    }

    #[test]
    fn mutating_a_copy_leaves_the_original_untouched() {
        let mut w = World::new();
        w.create_domain("D").unwrap();
        w.add_class("A", &["D".into()]).unwrap();
        w.create_relation("R", &[("V".into(), "D".into())]).unwrap();
        let mut copy = w.clone();
        copy.add_class("B", &["A".into()]).unwrap();
        copy.assert_item(
            "R",
            &[ValueRef {
                name: "A".into(),
                all: true,
            }],
            Truth::Positive,
        )
        .unwrap();
        // The original still has the pre-mutation graph and relation.
        assert!(w.domain("D").unwrap().node("B").is_err());
        assert_eq!(w.relation("R").unwrap().len(), 0);
        assert!(copy.domain("D").unwrap().node("B").is_ok());
        assert_eq!(copy.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn image_round_trip() {
        let mut w = World::new();
        w.create_domain("D").unwrap();
        w.add_class("A", &["D".into()]).unwrap();
        w.create_relation("R", &[("V".into(), "D".into())]).unwrap();
        w.assert_item(
            "R",
            &[ValueRef {
                name: "A".into(),
                all: true,
            }],
            Truth::Positive,
        )
        .unwrap();
        let restored = World::from_image(w.to_image());
        assert_eq!(restored.domain_count(), 1);
        assert_eq!(restored.relation("R").unwrap().len(), 1);
        // Domain handle identity links the restored relation's schema to
        // the restored domain map (join compatibility is Arc identity).
        assert!(Arc::ptr_eq(
            restored.domain("D").unwrap(),
            restored.relation("R").unwrap().schema().attributes()[0].domain()
        ));
    }
}
