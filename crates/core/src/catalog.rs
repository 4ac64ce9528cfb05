//! A named catalog of domains and relations.
//!
//! The paper pitches the model as "a standard interface providing
//! 'higher level' primitive operators … \[that\] could be used as a
//! back-end for, say, a frame-based knowledge representation system or
//! a semantic net" (§1). [`Catalog`] is that back-end surface and the
//! **only** container of named state in the workspace: named domain
//! hierarchies, named relations, both held through `Arc` so that
//! relations over the same domain join naturally, and the live views
//! ([`View`]) whose relations are entries like any other. The HQL
//! engine publishes it, the persistence `Image` and the durable store
//! exchange it; the Datalog layer (`hrdm-datalog`) resolves its EDB
//! predicates against it.
//!
//! [`Catalog::apply_mutation`] is likewise the only interpreter of the
//! [`CatalogMutation`] vocabulary, and every write statement short of
//! replacing the whole catalog (`OPEN`, `LOAD`) is one mutation: live
//! HQL writes, crash recovery and WAL-fed replicas all change named
//! state through it, views included, so the code that replays a log is
//! the code that produced it. Each mutation keeps the views current
//! before it returns, so a replica or a restart that applies the
//! records one by one reaches the state the live engine reached
//! statement by statement.
//!
//! # What a clone and a write copy
//!
//! The two name maps are persistent ([`PMap`]), and so is each
//! relation's tuple map. `clone()` is therefore two `Arc` bumps, plus
//! one per live view, whatever the catalog holds: no name, graph or
//! tuple is copied. A
//! mutation then goes through [`Arc::make_mut`] at every level it
//! descends — name-map node, relation, tuple-map node — which edits in
//! place what this catalog alone holds (recovery) and copies first what
//! a clone still shares (a live write against a published snapshot). A
//! single-tuple write to a shared catalog thus copies one root-to-leaf
//! path of the relation map (a few nodes of `Arc` handles), the
//! relation's three-word header, and one root-to-leaf path of its tuple
//! map (at most [`pmap::FANOUT`](crate::pmap::FANOUT) items per node);
//! everything else stays shared with the snapshot. An `Assert` of what
//! is already stored writes no tuple, so the relation's tuple tree stays
//! the snapshot's; the copy stops at the relation's header.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hrdm_hierarchy::{HierarchyGraph, NodeKind};

use crate::delta::Delta;
use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::mutation::CatalogMutation;
use crate::pmap::PMap;
use crate::relation::HRelation;
use crate::render::render_table;
use crate::schema::{Attribute, Schema};
use crate::view::{MaintainSummary, View};

/// Named domains and relations, and the live views over them.
///
/// `Clone` is two `Arc` bumps plus one per view: the clone shares both
/// name maps, and through them every graph and tuple, until one side is
/// mutated. Names are `Arc<str>` so that copying a name-map node
/// allocates nothing.
#[derive(Clone, Default)]
pub struct Catalog {
    domains: PMap<Arc<str>, Arc<HierarchyGraph>>,
    relations: PMap<Arc<str>, Arc<HRelation>>,
    /// Live views in registration order, so a view over another view is
    /// maintained after its input and sees its delta. Each view's
    /// relation is an entry of `relations` like any other.
    pub(crate) views: Vec<Arc<View>>,
}

/// What keeping the views current did over the mutations
/// [`Catalog::apply_mutation_to`] applied.
#[derive(Debug, Default)]
pub struct Effect {
    /// What keeping the views current did.
    pub views: MaintainSummary,
    /// Time spent keeping the views current.
    pub maintain: Duration,
}

/// Record in `delta` what `m` touches, as the views read it: a domain
/// edit under the domain's name; a reset for every relation created,
/// dropped, renamed (both names), re-moded, consolidated or explicated
/// — views over it rebuild, and a view depending on a name that is gone
/// fails, and with it the mutation; a row-level entry for a tuple
/// write. A `DefineView` records nothing: nothing can depend on the
/// fresh view yet, and an entry under its name would read as a direct
/// write, which detaches a view.
fn record(m: &CatalogMutation, delta: &mut Delta) {
    use CatalogMutation::*;
    match m {
        CreateDomain { name } | DropDomain { name } => delta.record_domain(name),
        AddClass { domain, .. } | AddInstance { domain, .. } | Prefer { domain, .. } => {
            delta.record_domain(domain)
        }
        CreateRelation { name, .. } | DropRelation { name } => delta.record_reset(name),
        SetPreemption { relation, .. } | Consolidate { relation } | Explicate { relation, .. } => {
            delta.record_reset(relation)
        }
        RenameRelation { from, to } => {
            delta.record_reset(from);
            delta.record_reset(to);
        }
        Assert { relation, .. } | Retract { relation, .. } => delta.record_rows(relation),
        DefineView { .. } => {}
    }
}

fn not_found(kind: &'static str, name: &str) -> CoreError {
    CoreError::NotFound {
        kind,
        name: name.to_string(),
    }
}

/// A name as the maps key it.
fn key(name: impl Into<String>) -> Arc<str> {
    Arc::from(Into::<String>::into(name))
}

/// Does any attribute of `relation` range over exactly this graph?
fn is_over(relation: &HRelation, graph: &Arc<HierarchyGraph>) -> bool {
    relation
        .schema()
        .attributes()
        .iter()
        .any(|a| Arc::ptr_eq(a.domain(), graph))
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a domain hierarchy under a name; returns the shared
    /// handle.
    pub fn add_domain(
        &mut self,
        name: impl Into<String>,
        graph: HierarchyGraph,
    ) -> Arc<HierarchyGraph> {
        self.add_domain_arc(name, Arc::new(graph))
    }

    /// Register an already-shared domain handle (e.g. one restored from
    /// a persisted image, where relations hold the same `Arc`).
    pub fn add_domain_arc(
        &mut self,
        name: impl Into<String>,
        graph: Arc<HierarchyGraph>,
    ) -> Arc<HierarchyGraph> {
        self.domains.insert(key(name), graph.clone());
        graph
    }

    /// Look up a registered domain.
    pub fn domain(&self, name: &str) -> Result<&Arc<HierarchyGraph>> {
        self.domains
            .get(name)
            .ok_or_else(|| not_found("domain", name))
    }

    /// Register a relation under a name (replacing any previous one).
    /// Takes the relation owned or already shared.
    pub fn add_relation(&mut self, name: impl Into<String>, relation: impl Into<Arc<HRelation>>) {
        self.relations.insert(key(name), relation.into());
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Result<&HRelation> {
        self.relation_arc(name).map(Arc::as_ref)
    }

    /// Look up a relation's shared handle (an `Arc` bump away from
    /// aliasing its tuples without copying them).
    pub fn relation_arc(&self, name: &str) -> Result<&Arc<HRelation>> {
        self.relations
            .get(name)
            .ok_or_else(|| not_found("relation", name))
    }

    /// Mutable access to a relation: in place when this catalog is the
    /// only holder; when a clone still shares it, the path to it in the
    /// name map and the relation's header are copied (its tuples stay
    /// shared until one is written).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut HRelation> {
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| not_found("relation", name))
    }

    /// Iterate relation names in order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| &**s)
    }

    /// Iterate domain names in order.
    pub fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.domains.keys().map(|s| &**s)
    }

    /// Iterate `(name, shared handle)` over the domains, in name order.
    pub fn domains(&self) -> impl Iterator<Item = (&str, &Arc<HierarchyGraph>)> {
        self.domains.iter().map(|(n, g)| (&**n, g))
    }

    /// Iterate `(name, shared handle)` over the relations, in name
    /// order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Arc<HRelation>)> {
        self.relations.iter().map(|(n, r)| (&**n, r))
    }

    /// Names of the relations with an attribute over the domain
    /// registered as `domain` (by `Arc` identity), in name order. The
    /// first entry is what the `DropDomain` in-use guard reports.
    pub fn relations_over<'a>(&'a self, domain: &str) -> impl Iterator<Item = &'a str> {
        let graph = self.domains.get(domain);
        self.relations
            .iter()
            .filter(move |(_, r)| graph.is_some_and(|g| is_over(r, g)))
            .map(|(n, _)| &**n)
    }

    /// Unregister a domain, returning its shared handle. Relations
    /// still holding the `Arc` keep working; the graph and its closures
    /// are freed with the last holder.
    pub fn drop_domain(&mut self, name: &str) -> Result<Arc<HierarchyGraph>> {
        self.domains
            .remove(name)
            .ok_or_else(|| not_found("domain", name))
    }

    /// Unregister a relation, returning its shared handle.
    pub fn drop_relation(&mut self, name: &str) -> Result<Arc<HRelation>> {
        self.relations
            .remove(name)
            .ok_or_else(|| not_found("relation", name))
    }

    /// Apply a logical mutation — the one interpreter of the
    /// [`CatalogMutation`] vocabulary, run by live writes, recovery and
    /// replicas alike — and keep the live views current with it.
    ///
    /// Validation happens before any state changes, and a mutation a
    /// view refuses (its derivation no longer plans or runs) is rolled
    /// back, so a failed mutation leaves the catalog untouched.
    ///
    /// An `Assert` or `Retract` returns the item its value names
    /// resolved to — the one resolution of that tuple a write, a replay
    /// or a replica's catch-up makes; callers build replies from it. On
    /// a catalog that holds its relation alone and no view, a resolution
    /// and an edit that fits its tuple-map leaf allocate nothing. Every
    /// other mutation returns `None`.
    pub fn apply_mutation(&mut self, m: &CatalogMutation) -> Result<Option<Item>> {
        self.apply_mutation_to(m, &mut Effect::default())
    }

    /// [`apply_mutation`](Catalog::apply_mutation), adding to `effect`
    /// what keeping the views current did — the write path, which
    /// counts the views.
    #[inline]
    pub fn apply_mutation_to(
        &mut self,
        m: &CatalogMutation,
        effect: &mut Effect,
    ) -> Result<Option<Item>> {
        // A write's and a replay's usual case: no view to keep current.
        if self.views.is_empty() {
            return self.change(m);
        }
        self.change_and_maintain(m, effect)
    }

    /// Apply `m` and bring the views up to date with what it changed,
    /// or, if a view refuses it, leave the catalog as it was.
    fn change_and_maintain(
        &mut self,
        m: &CatalogMutation,
        effect: &mut Effect,
    ) -> Result<Option<Item>> {
        // A view may refuse the mutation once it applied: keep what to
        // go back to (a shallow clone; the mutation then copies the
        // paths it walks, as a write to a published catalog does).
        let before = self.clone();
        let item = self.change(m)?;
        let mut delta = Delta::default();
        record(m, &mut delta);
        delta.net_rows(&before, self);
        let started = Instant::now();
        let maintained = self.maintain_views(&mut delta);
        let spent = started.elapsed();
        match maintained {
            Ok(summary) => {
                effect.views += summary;
                effect.maintain += spent;
                Ok(item)
            }
            Err(e) => {
                *self = before;
                Err(e)
            }
        }
    }

    /// Fail with `DuplicateName` if a relation named `name` exists.
    fn require_fresh_relation(&self, name: &str) -> Result<()> {
        if self.relations.contains_key(name) {
            return Err(CoreError::DuplicateName {
                kind: "relation",
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// What `m` does to named state, views aside.
    fn change(&mut self, m: &CatalogMutation) -> Result<Option<Item>> {
        match m {
            CatalogMutation::CreateDomain { name } => {
                if self.domains.contains_key(name.as_str()) {
                    return Err(CoreError::DuplicateName {
                        kind: "domain",
                        name: name.clone(),
                    });
                }
                self.add_domain(name.clone(), HierarchyGraph::new(name.as_str()));
                Ok(None)
            }
            CatalogMutation::DropDomain { name } => {
                self.domain(name)?;
                if let Some(by) = self.relations_over(name).next() {
                    return Err(CoreError::InUse {
                        kind: "domain",
                        name: name.clone(),
                        by: by.to_string(),
                    });
                }
                self.drop_domain(name).map(|_| None)
            }
            CatalogMutation::AddClass {
                domain,
                name,
                parents,
            } => self
                .mutate_domain_resharing(domain, |g| {
                    let ids = parents
                        .iter()
                        .map(|p| g.node(p))
                        .collect::<hrdm_hierarchy::Result<Vec<_>>>()?;
                    g.add_class_multi(name.as_str(), &ids).map(|_| ())
                })
                .map(|()| None),
            CatalogMutation::AddInstance {
                domain,
                name,
                parents,
            } => self
                .mutate_domain_resharing(domain, |g| {
                    let ids = parents
                        .iter()
                        .map(|p| g.node(p))
                        .collect::<hrdm_hierarchy::Result<Vec<_>>>()?;
                    g.add_instance_multi(name.as_str(), &ids).map(|_| ())
                })
                .map(|()| None),
            CatalogMutation::Prefer {
                domain,
                stronger,
                weaker,
            } => self
                .mutate_domain_resharing(domain, |g| {
                    let s = g.node(stronger)?;
                    let w = g.node(weaker)?;
                    hrdm_hierarchy::preference::prefer(g, s, w)
                })
                .map(|()| None),
            CatalogMutation::CreateRelation { name, attributes } => {
                self.require_fresh_relation(name)?;
                let pairs: Vec<(&str, &str)> = attributes
                    .iter()
                    .map(|(a, d)| (a.as_str(), d.as_str()))
                    .collect();
                let schema = self.schema(&pairs)?;
                self.add_relation(name.clone(), HRelation::new(schema));
                Ok(None)
            }
            CatalogMutation::DropRelation { name } => {
                self.drop_relation(name)?;
                self.detach_view(name);
                Ok(None)
            }
            CatalogMutation::Assert {
                relation,
                values,
                truth,
            } => {
                let rel = self.relation_mut(relation)?;
                let item = rel.item(values)?;
                rel.assert_item(item.clone(), *truth)?;
                Ok(Some(item))
            }
            CatalogMutation::Retract { relation, values } => {
                let rel = self.relation_mut(relation)?;
                let item = rel.item(values)?;
                match rel.remove(&item) {
                    Some(_) => Ok(Some(item)),
                    None => Err(not_found("tuple", &rel.schema().display_item(&item))),
                }
            }
            CatalogMutation::SetPreemption { relation, mode } => {
                self.relation_mut(relation)?.set_preemption(*mode);
                Ok(None)
            }
            // The name is checked before anything is planned or run.
            CatalogMutation::DefineView { name, derivation } => {
                self.require_fresh_relation(name)?;
                self.attach_view(name, derivation.clone())?;
                Ok(None)
            }
            CatalogMutation::RenameRelation { from, to } => {
                self.require_fresh_relation(to)?;
                let relation = self.drop_relation(from)?;
                self.add_relation(to.as_str(), relation);
                self.detach_view(from);
                Ok(None)
            }
            CatalogMutation::Consolidate { relation } => {
                let consolidated = crate::consolidate::consolidate(self.relation(relation)?);
                self.add_relation(relation.as_str(), consolidated.relation);
                Ok(None)
            }
            CatalogMutation::Explicate { relation, attrs } => {
                let rel = self.relation(relation)?;
                let indexes = if attrs.is_empty() {
                    (0..rel.schema().arity()).collect()
                } else {
                    attrs
                        .iter()
                        .map(|a| rel.schema().index_of(a))
                        .collect::<Result<Vec<_>>>()?
                };
                let explicated = crate::explicate::explicate(rel, &indexes)?;
                self.add_relation(relation.as_str(), explicated);
                Ok(None)
            }
        }
    }

    /// Mutate a domain graph, keeping the catalog *internally shared*:
    /// every relation over the domain ends up holding the same `Arc` the
    /// domain map does, so join compatibility and a checkpoint image's
    /// by-identity domain table both survive the edit.
    ///
    /// A uniquely owned graph is edited in place (the edit clears its
    /// memoized closures). A shared one — a relation
    /// schema or a published snapshot still holds it — is cloned,
    /// edited, and re-bound into every relation that held the old
    /// handle — each gets a new schema over its *same* tuple tree
    /// ([`HRelation::rebased`]; node ids are append-only, so stored
    /// items stay valid on the grown graph), so the edit costs one graph
    /// copy plus a header per relation over the domain, never a tuple.
    /// `f` runs before anything is replaced, so a failed mutation leaves
    /// even the `Arc` identities untouched.
    fn mutate_domain_resharing(
        &mut self,
        domain: &str,
        f: impl FnOnce(&mut HierarchyGraph) -> hrdm_hierarchy::Result<()>,
    ) -> Result<()> {
        let slot = self
            .domains
            .get_mut(domain)
            .ok_or_else(|| not_found("domain", domain))?;
        if let Some(unique) = Arc::get_mut(slot) {
            return f(unique).map_err(CoreError::Hierarchy);
        }
        let mut grown = HierarchyGraph::clone(slot);
        f(&mut grown).map_err(CoreError::Hierarchy)?;
        let new = Arc::new(grown);
        let old = std::mem::replace(slot, new.clone());
        let over_old: Vec<Arc<str>> = self
            .relations
            .iter()
            .filter(|(_, r)| is_over(r, &old))
            .map(|(name, _)| name.clone())
            .collect();
        for name in over_old {
            let rel = self
                .relations
                .get_mut(&*name)
                .expect("listed from this map a moment ago");
            let attrs: Vec<Attribute> = rel
                .schema()
                .attributes()
                .iter()
                .map(|a| {
                    if Arc::ptr_eq(a.domain(), &old) {
                        Attribute::new(a.name(), new.clone())
                    } else {
                        a.clone()
                    }
                })
                .collect();
            *rel = Arc::new(rel.rebased(Arc::new(Schema::new(attrs))));
        }
        Ok(())
    }

    /// Render the whole catalog with stable fields only: every domain's
    /// node/edge structure and every relation's stored tuples, in name
    /// order, then every live view's definition, in registration order;
    /// no wall times or pointers. Two catalogs with equal
    /// `render_stable` output hold the same logical state — the byte
    /// parity check the crash-recovery harness uses.
    pub fn render_stable(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, g) in &self.domains {
            let _ = writeln!(
                out,
                "domain {name} ({} nodes, {} edges)",
                g.len(),
                g.edge_count()
            );
            for id in g.node_ids() {
                let kind = match g.kind(id) {
                    NodeKind::Domain => "domain",
                    NodeKind::Class => "class",
                    NodeKind::Instance => "instance",
                };
                let mut parents: Vec<String> = g
                    .parents_with_kind(id)
                    .iter()
                    .map(|&(p, k)| {
                        if k == hrdm_hierarchy::EdgeKind::Subset {
                            g.name(p).to_string()
                        } else {
                            format!("~{}", g.name(p))
                        }
                    })
                    .collect();
                parents.sort();
                let _ = writeln!(
                    out,
                    "  {} [{kind}]{}{}",
                    g.name(id).as_str(),
                    if parents.is_empty() { "" } else { " < " },
                    parents.join(", ")
                );
            }
        }
        for (name, rel) in &self.relations {
            let _ = writeln!(out, "relation {name} [{}]", rel.preemption());
            for line in render_table(rel).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        for view in self.views() {
            let _ = writeln!(out, "view {} = {}", view.name(), view.derivation());
        }
        out
    }

    /// Build a schema from registered domain names, attribute names
    /// doubling as domain names.
    pub fn schema(&self, attrs: &[(&str, &str)]) -> Result<Arc<Schema>> {
        let attributes = attrs
            .iter()
            .map(|&(attr, dom)| Ok(Attribute::new(attr, self.domain(dom)?.clone())))
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(Schema::new(attributes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::{Derivation, Source};
    use crate::preemption::Preemption;
    use crate::truth::Truth;

    fn sample_graph() -> HierarchyGraph {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        g.add_instance("Tweety", bird).unwrap();
        g
    }

    #[test]
    fn domains_are_shared() {
        let mut cat = Catalog::new();
        let g = cat.add_domain("Animal", sample_graph());
        assert!(Arc::ptr_eq(&g, cat.domain("Animal").unwrap()));
        assert!(cat.domain("Plant").is_err());
        assert_eq!(cat.domain_names().collect::<Vec<_>>(), vec!["Animal"]);
    }

    #[test]
    fn schemas_from_catalog_are_join_compatible() {
        let mut cat = Catalog::new();
        cat.add_domain("Animal", sample_graph());
        let s1 = cat.schema(&[("Animal", "Animal")]).unwrap();
        let s2 = cat.schema(&[("Animal", "Animal")]).unwrap();
        assert!(s1.compatible(&s2));
        assert!(cat.schema(&[("X", "Nope")]).is_err());
    }

    #[test]
    fn relations_round_trip() {
        let mut cat = Catalog::new();
        cat.add_domain("Animal", sample_graph());
        let schema = cat.schema(&[("Creature", "Animal")]).unwrap();
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        cat.add_relation("Flies", r);
        assert_eq!(cat.relation("Flies").unwrap().len(), 1);
        cat.relation_mut("Flies")
            .unwrap()
            .assert_fact(&["Tweety"], Truth::Positive)
            .unwrap();
        assert_eq!(cat.relation("Flies").unwrap().len(), 2);
        assert!(cat.relation("Walks").is_err());
        assert_eq!(cat.relation_names().collect::<Vec<_>>(), vec!["Flies"]);
    }

    #[test]
    fn drop_domain_frees_the_closures_with_the_last_holder() {
        let mut cat = Catalog::new();
        let g = cat.add_domain("Animal", sample_graph());
        let resident = Arc::downgrade(&g.closure());
        let dropped = cat.drop_domain("Animal").unwrap();
        assert!(Arc::ptr_eq(&g, &dropped));
        assert!(cat.domain("Animal").is_err());
        assert!(cat.drop_domain("Animal").is_err());
        // Outside holders keep the graph — and its closure — alive.
        drop(dropped);
        assert!(Arc::ptr_eq(&resident.upgrade().unwrap(), &g.closure()));
        drop(g);
        assert!(resident.upgrade().is_none());
    }

    #[test]
    fn missing_names_are_not_found_by_kind() {
        let mut cat = Catalog::new();
        cat.add_domain("Animal", sample_graph());
        let missing = |kind: &'static str, name: &str| CoreError::NotFound {
            kind,
            name: name.to_string(),
        };
        assert_eq!(cat.domain("Plant").unwrap_err(), missing("domain", "Plant"));
        assert_eq!(
            cat.drop_domain("Plant").unwrap_err(),
            missing("domain", "Plant")
        );
        assert_eq!(
            cat.schema(&[("V", "Plant")]).unwrap_err(),
            missing("domain", "Plant")
        );
        assert_eq!(
            cat.relation("Walks").err(),
            Some(missing("relation", "Walks"))
        );
        assert_eq!(
            cat.relation_mut("Walks").err(),
            Some(missing("relation", "Walks"))
        );
        // The interpreter reports a relation over a missing domain the
        // same way — this is what replay sees for such a WAL record.
        assert_eq!(
            cat.apply_mutation(&CatalogMutation::CreateRelation {
                name: "Grows".into(),
                attributes: vec![("V".into(), "Plant".into())],
            }),
            Err(missing("domain", "Plant"))
        );
    }

    /// The Fig. 1 world expressed as a mutation script.
    fn fig1_script() -> Vec<CatalogMutation> {
        use CatalogMutation::*;
        let one = |s: &str| vec![s.to_string()];
        vec![
            CreateDomain {
                name: "Animal".into(),
            },
            AddClass {
                domain: "Animal".into(),
                name: "Bird".into(),
                parents: one("Animal"),
            },
            AddClass {
                domain: "Animal".into(),
                name: "Penguin".into(),
                parents: one("Bird"),
            },
            AddInstance {
                domain: "Animal".into(),
                name: "Paul".into(),
                parents: one("Penguin"),
            },
            CreateRelation {
                name: "Flies".into(),
                attributes: vec![("Creature".into(), "Animal".into())],
            },
            Assert {
                relation: "Flies".into(),
                values: one("Bird"),
                truth: Truth::Positive,
            },
            Assert {
                relation: "Flies".into(),
                values: one("Penguin"),
                truth: Truth::Negative,
            },
        ]
    }

    #[test]
    fn mutation_script_builds_a_world() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        let flies = cat.relation("Flies").unwrap();
        assert_eq!(flies.len(), 2);
        assert!(!flies.holds(&flies.item(&["Paul"]).unwrap()));
        // Replaying the same script onto a fresh catalog yields the
        // same stable rendering — the recovery invariant.
        let mut replayed = Catalog::new();
        for m in fig1_script() {
            replayed.apply_mutation(&m).unwrap();
        }
        assert_eq!(cat.render_stable(), replayed.render_stable());
        assert!(replayed.render_stable().contains("Penguin [class] < Bird"));
    }

    #[test]
    fn mutations_fail_atomically() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        cat.apply_mutation(&CatalogMutation::DefineView {
            name: "V".into(),
            derivation: Derivation::Consolidated(Source::named("Flies")),
        })
        .unwrap();
        let before = cat.render_stable();
        use CatalogMutation::*;
        let bad: Vec<CatalogMutation> = vec![
            AddClass {
                domain: "Animal".into(),
                name: "Bird".into(), // duplicate
                parents: vec!["Animal".into()],
            },
            AddInstance {
                domain: "Nope".into(),
                name: "x".into(),
                parents: vec!["Nope".into()],
            },
            DropDomain {
                name: "Plant".into(),
            },
            DropDomain {
                name: "Animal".into(), // still referenced by Flies
            },
            DropRelation {
                name: "Walks".into(),
            },
            Assert {
                relation: "Walks".into(),
                values: vec!["Bird".into()],
                truth: Truth::Positive,
            },
            Retract {
                relation: "Flies".into(),
                values: vec!["Paul".into()], // not stored
            },
            Prefer {
                domain: "Animal".into(),
                stronger: "Bird".into(),
                weaker: "Ghost".into(),
            },
            CreateRelation {
                name: "Flies".into(), // duplicate
                attributes: vec![("V".into(), "Animal".into())],
            },
            DropRelation {
                name: "Flies".into(), // V reads it: V refuses
            },
            RenameRelation {
                from: "Flies".into(), // V reads it
                to: "Fliers".into(),
            },
            RenameRelation {
                from: "Walks".into(),
                to: "Fliers".into(),
            },
            RenameRelation {
                from: "V".into(),
                to: "Flies".into(), // taken
            },
            DefineView {
                name: "V".into(), // taken
                derivation: Derivation::Consolidated(Source::named("Flies")),
            },
            DefineView {
                name: "W".into(),
                derivation: Derivation::Consolidated(Source::named("Walks")),
            },
            Consolidate {
                relation: "Walks".into(),
            },
            Explicate {
                relation: "Flies".into(),
                attrs: vec!["Colour".into()],
            },
        ];
        for m in bad {
            assert!(cat.apply_mutation(&m).is_err(), "{m} should fail");
            assert_eq!(cat.render_stable(), before, "{m} must not change state");
        }
    }

    #[test]
    fn tuple_mutations_return_the_item_they_resolved() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        let paul = cat.relation("Flies").unwrap().item(&["Paul"]).unwrap();
        let values = vec!["Paul".to_string()];
        let assert = CatalogMutation::Assert {
            relation: "Flies".into(),
            values: values.clone(),
            truth: Truth::Positive,
        };
        assert_eq!(cat.apply_mutation(&assert), Ok(Some(paul.clone())));
        let retract = CatalogMutation::Retract {
            relation: "Flies".into(),
            values,
        };
        assert_eq!(cat.apply_mutation(&retract), Ok(Some(paul)));
        let mode = CatalogMutation::SetPreemption {
            relation: "Flies".into(),
            mode: Preemption::OnPath,
        };
        assert_eq!(cat.apply_mutation(&mode), Ok(None));
    }

    #[test]
    fn the_in_place_operators_rename_and_views_are_mutations() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        let view = CatalogMutation::DefineView {
            name: "V".into(),
            derivation: Derivation::Consolidated(Source::named("Flies")),
        };
        let mut effect = Effect::default();
        cat.apply_mutation_to(&view, &mut effect).unwrap();
        assert!(cat.is_view("V"));
        assert_eq!(
            effect.views,
            MaintainSummary::default(),
            "a definition maintains nothing"
        );
        // A write to the source keeps the view current.
        let paul = CatalogMutation::Assert {
            relation: "Flies".into(),
            values: vec!["Paul".into()],
            truth: Truth::Positive,
        };
        cat.apply_mutation_to(&paul, &mut effect).unwrap();
        assert_eq!(cat.relation("V").unwrap().len(), 3);
        assert_eq!(effect.views.maintained, 1);
        // Explicating and consolidating the source rebuild the view.
        for m in [
            CatalogMutation::Explicate {
                relation: "Flies".into(),
                attrs: Vec::new(),
            },
            CatalogMutation::Consolidate {
                relation: "Flies".into(),
            },
        ] {
            cat.apply_mutation(&m).unwrap();
            let fresh = crate::consolidate::consolidate(cat.relation("Flies").unwrap());
            assert_eq!(
                render_table(cat.relation("V").unwrap()),
                render_table(&fresh.relation),
                "{m}"
            );
        }
        // Renaming a view detaches it; dropping a view drops its
        // definition.
        cat.apply_mutation(&CatalogMutation::RenameRelation {
            from: "V".into(),
            to: "W".into(),
        })
        .unwrap();
        assert!(!cat.is_view("W") && cat.relation("V").is_err());
        cat.apply_mutation(&view).unwrap();
        cat.apply_mutation(&CatalogMutation::DropRelation { name: "V".into() })
            .unwrap();
        assert_eq!(cat.views().count(), 0);
    }

    #[test]
    fn clone_is_shallow_and_a_write_copies_only_what_it_touches() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        cat.apply_mutation(&CatalogMutation::CreateRelation {
            name: "Walks".into(),
            attributes: vec![("Creature".into(), "Animal".into())],
        })
        .unwrap();
        let copy = cat.clone();
        assert!(Arc::ptr_eq(
            cat.relation_arc("Flies").unwrap(),
            copy.relation_arc("Flies").unwrap()
        ));
        let mut written = cat.clone();
        written
            .apply_mutation(&CatalogMutation::Assert {
                relation: "Walks".into(),
                values: vec!["Bird".into()],
                truth: Truth::Positive,
            })
            .unwrap();
        // The original is untouched; the written copy shares every
        // relation it did not write, and every domain.
        assert_eq!(cat.relation("Walks").unwrap().len(), 0);
        assert_eq!(written.relation("Walks").unwrap().len(), 1);
        assert!(!Arc::ptr_eq(
            cat.relation_arc("Walks").unwrap(),
            written.relation_arc("Walks").unwrap()
        ));
        assert!(Arc::ptr_eq(
            cat.relation_arc("Flies").unwrap(),
            written.relation_arc("Flies").unwrap()
        ));
        assert!(Arc::ptr_eq(
            cat.domain("Animal").unwrap(),
            written.domain("Animal").unwrap()
        ));
    }

    #[test]
    fn drop_and_set_preemption_mutations() {
        let mut cat = Catalog::new();
        for m in fig1_script() {
            cat.apply_mutation(&m).unwrap();
        }
        cat.apply_mutation(&CatalogMutation::SetPreemption {
            relation: "Flies".into(),
            mode: Preemption::OnPath,
        })
        .unwrap();
        assert_eq!(
            cat.relation("Flies").unwrap().preemption(),
            Preemption::OnPath
        );
        cat.apply_mutation(&CatalogMutation::Retract {
            relation: "Flies".into(),
            values: vec!["Penguin".into()],
        })
        .unwrap();
        assert_eq!(cat.relation("Flies").unwrap().len(), 1);
        cat.apply_mutation(&CatalogMutation::DropRelation {
            name: "Flies".into(),
        })
        .unwrap();
        assert!(cat.relation("Flies").is_err());
        cat.apply_mutation(&CatalogMutation::DropDomain {
            name: "Animal".into(),
        })
        .unwrap();
        assert!(cat.domain("Animal").is_err());
        assert_eq!(cat.render_stable(), "");
    }
}
