//! Seeded catalog histories for the randomized parity suites.
//!
//! One [`Model`] of what a catalog holds — live domains with their
//! classes, instances and preference edges, live relations with their
//! stored rows, live views with what they read — emits changes that
//! are valid against it by construction: every [`CatalogMutation`]
//! [`Model::mutation`] returns applies to a catalog that applied the
//! ones before it, and so does its HQL text ([`Model::hql`]) on an
//! engine. The suites that hold a layer to byte parity draw their
//! histories from it: `hrdm-persist`'s crash sweep as WAL records,
//! `hrdm-hql`'s replica harness as HQL (adding `CHECKPOINT`s, which
//! start new log generations), and its net-delta property as
//! multi-mutation batches (adding [`Model::same_item_pair`]).
//!
//! There is one distribution of mutation kinds. The model takes its
//! randomness from the caller's [`SmallRng`], so a history is a function
//! of the seed and of the calls the caller makes.

use std::collections::{BTreeMap, BTreeSet};

use hrdm_core::derivation::{Derivation, Source};
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Preemption, Truth};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `n` mutations from a fresh model seeded with `seed`.
pub fn script(seed: u64, n: usize) -> Vec<CatalogMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model::default();
    (0..n).map(|_| model.mutation(&mut rng)).collect()
}

/// What a catalog that applied the model's history holds.
#[derive(Default)]
pub struct Model {
    counter: usize,
    domains: BTreeMap<String, DomainModel>,
    relations: BTreeMap<String, RelModel>,
    /// Every instance ever created. A value naming one is written bare
    /// in HQL; any other value (a class or a root) as `ALL name`.
    instances: BTreeSet<String>,
}

struct DomainModel {
    /// Valid parents for new nodes: the root plus every class.
    parents: Vec<String>,
    /// Every node name (item-value candidates at relation creation).
    nodes: Vec<String>,
    /// Classes directly under the root, in creation order — preference
    /// edges only go from a later root class to an earlier one, which
    /// keeps the preference graph acyclic by construction.
    root_classes: Vec<String>,
    prefs: BTreeSet<(String, String)>,
}

struct RelModel {
    /// Snapshot of each column's domain nodes at creation time (a
    /// conservative candidate set — the schema re-shares later node
    /// additions, but creation-time nodes are always resolvable).
    columns: Vec<Vec<String>>,
    /// Domains the schema references, in attribute order (they block
    /// `DropDomain`).
    domains_used: Vec<String>,
    stored: BTreeMap<Vec<String>, Truth>,
    /// Rows that were stored when the relation was consolidated: the
    /// consolidation may have removed any of them, so none is written
    /// again.
    maybe: BTreeSet<Vec<String>>,
    /// For a live view, the relation it consolidates. A view's rows are
    /// derived, so the model writes into none and renames none (either
    /// would detach it), and drops or renames no relation a view reads.
    view_of: Option<String>,
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn sign(rng: &mut SmallRng) -> Truth {
    if rng.gen_bool(0.3) {
        Truth::Negative
    } else {
        Truth::Positive
    }
}

impl RelModel {
    /// A row not stored, nor maybe stored, if eight draws find one (an
    /// `Assert` of a row stored with the other sign is refused).
    fn unstored_row(&self, rng: &mut SmallRng) -> Option<Vec<String>> {
        (0..8)
            .map(|_| {
                self.columns
                    .iter()
                    .map(|col| pick(rng, col).clone())
                    .collect()
            })
            .find(|values| !self.stored.contains_key(values) && !self.maybe.contains(values))
    }
}

impl Model {
    /// The next mutation. Every kind but `Explicate` occurs (an
    /// explication of a relation with conflicts is refused, and the
    /// model does not track conflicts); the bulk are new classes and
    /// instances and new rows.
    pub fn mutation(&mut self, rng: &mut SmallRng) -> CatalogMutation {
        for _ in 0..64 {
            let m = match rng.gen_range(0u32..100) {
                0..=4 => self.create_domain(),
                5..=26 => self.add_class(rng),
                27..=40 => self.add_instance(rng),
                41..=48 => self.prefer(rng),
                49..=57 => self.create_relation(rng),
                58..=80 => self.assert(rng),
                81..=85 => self.retract(rng),
                86..=88 => self.set_preemption(rng),
                89..=90 => self.consolidate(rng),
                91..=92 => self.rename_relation(rng),
                93..=95 => self.define_view(rng),
                96..=98 => self.drop_relation(rng),
                _ => self.drop_domain(rng),
            };
            if let Some(m) = m {
                return m;
            }
        }
        self.create_domain().expect("create-domain always applies")
    }

    /// One row written twice in one go, in either order: a row not
    /// stored asserted then retracted (the pair nets to nothing), or a
    /// stored row retracted then asserted with a fresh sign. `None`
    /// while no relation exists.
    pub fn same_item_pair(&mut self, rng: &mut SmallRng) -> Option<[CatalogMutation; 2]> {
        let relation = self.pick_stored(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        let truth = sign(rng);
        let retract_first = !rm.stored.is_empty() && rng.gen_bool(0.5);
        let values = if retract_first {
            let keys: Vec<Vec<String>> = rm.stored.keys().cloned().collect();
            let values = pick(rng, &keys).clone();
            rm.stored.insert(values.clone(), truth);
            values
        } else {
            rm.unstored_row(rng)?
        };
        let assert = CatalogMutation::Assert {
            relation: relation.clone(),
            values: values.clone(),
            truth,
        };
        let retract = CatalogMutation::Retract { relation, values };
        Some(if retract_first {
            [retract, assert]
        } else {
            [assert, retract]
        })
    }

    /// `m`, a mutation this model emitted, as an HQL statement.
    pub fn hql(&self, m: &CatalogMutation) -> String {
        let values = |values: &[String]| {
            values
                .iter()
                .map(|v| {
                    if self.instances.contains(v) {
                        v.clone()
                    } else {
                        format!("ALL {v}")
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        match m {
            CatalogMutation::CreateDomain { name } => format!("CREATE DOMAIN {name};"),
            CatalogMutation::DropDomain { name } => format!("DROP DOMAIN {name};"),
            CatalogMutation::AddClass { name, parents, .. } => {
                format!("CREATE CLASS {name} UNDER {};", parents.join(", "))
            }
            CatalogMutation::AddInstance { name, parents, .. } => {
                format!("CREATE INSTANCE {name} OF {};", parents.join(", "))
            }
            CatalogMutation::Prefer {
                domain,
                stronger,
                weaker,
            } => format!("PREFER {stronger} OVER {weaker} IN {domain};"),
            CatalogMutation::CreateRelation { name, attributes } => {
                let attributes = attributes
                    .iter()
                    .map(|(a, d)| format!("{a}: {d}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("CREATE RELATION {name} ({attributes});")
            }
            CatalogMutation::DropRelation { name } => format!("DROP RELATION {name};"),
            CatalogMutation::Assert {
                relation,
                values: row,
                truth,
            } => {
                let not = if *truth == Truth::Negative {
                    "NOT "
                } else {
                    ""
                };
                format!("ASSERT {not}{relation} ({});", values(row))
            }
            CatalogMutation::Retract {
                relation,
                values: row,
            } => format!("RETRACT {relation} ({});", values(row)),
            CatalogMutation::SetPreemption { relation, mode } => {
                let mode = match mode {
                    Preemption::OffPath => "OFF-PATH",
                    Preemption::OnPath => "ON-PATH",
                    Preemption::NoPreemption => "NONE",
                };
                format!("SET PREEMPTION {relation} {mode};")
            }
            CatalogMutation::DefineView { .. }
            | CatalogMutation::RenameRelation { .. }
            | CatalogMutation::Consolidate { .. }
            | CatalogMutation::Explicate { .. } => format!("{m};"),
        }
    }

    /// Reads over everything live: `SHOW DOMAIN` per domain, `SHOW`,
    /// `COUNT` and `CHECK` per relation.
    pub fn read_suite(&self) -> String {
        let mut script = String::new();
        for d in self.domains.keys() {
            script.push_str(&format!("SHOW DOMAIN {d};\n"));
        }
        for r in self.relations.keys() {
            script.push_str(&format!("SHOW {r};\nCOUNT {r};\nCHECK {r};\n"));
        }
        script
    }

    /// Statements an engine holding the model's history must refuse: an
    /// unknown parent or domain, a duplicate domain or relation, a drop
    /// of a domain a relation uses, and a retract of a row not stored.
    pub fn refused_statements(&self) -> Vec<String> {
        let mut out = vec![
            "CREATE CLASS Ghost UNDER NoSuchParent;".to_string(),
            "CREATE RELATION Ghost (a0: NoSuchDomain);".to_string(),
        ];
        if let Some(d) = self.domains.keys().next() {
            out.push(format!("CREATE DOMAIN {d};"));
        }
        if let Some((name, r)) = self.relations.iter().find(|(_, r)| r.view_of.is_none()) {
            let used = &r.domains_used[0];
            out.push(format!("CREATE RELATION {name} (a0: {used});"));
            out.push(format!("DROP DOMAIN {used};"));
            // The row of the roots, if the model knows it is not stored.
            if !r.stored.contains_key(&r.domains_used) && !r.maybe.contains(&r.domains_used) {
                out.push(self.hql(&CatalogMutation::Retract {
                    relation: name.clone(),
                    values: r.domains_used.clone(),
                }));
            }
        }
        out
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn pick_domain(&self, rng: &mut SmallRng) -> Option<String> {
        let names: Vec<&String> = self.domains.keys().collect();
        (!names.is_empty()).then(|| (*pick(rng, &names)).clone())
    }

    fn pick_relation(&self, rng: &mut SmallRng) -> Option<String> {
        let names: Vec<&String> = self.relations.keys().collect();
        (!names.is_empty()).then(|| (*pick(rng, &names)).clone())
    }

    /// A relation that is not a view: one whose rows the model knows.
    fn pick_stored(&self, rng: &mut SmallRng) -> Option<String> {
        let names: Vec<&String> = self
            .relations
            .iter()
            .filter(|(_, r)| r.view_of.is_none())
            .map(|(name, _)| name)
            .collect();
        (!names.is_empty()).then(|| (*pick(rng, &names)).clone())
    }

    /// A relation neither a view nor read by one: renaming or dropping
    /// it leaves every view's derivation valid.
    fn pick_unread(&self, rng: &mut SmallRng, views_too: bool) -> Option<String> {
        let read: BTreeSet<&String> = self
            .relations
            .values()
            .filter_map(|r| r.view_of.as_ref())
            .collect();
        let names: Vec<&String> = self
            .relations
            .iter()
            .filter(|(name, r)| !read.contains(name) && (views_too || r.view_of.is_none()))
            .map(|(name, _)| name)
            .collect();
        (!names.is_empty()).then(|| (*pick(rng, &names)).clone())
    }

    fn create_domain(&mut self) -> Option<CatalogMutation> {
        let name = self.fresh("D");
        self.domains.insert(
            name.clone(),
            DomainModel {
                parents: vec![name.clone()],
                nodes: vec![name.clone()],
                root_classes: Vec::new(),
                prefs: BTreeSet::new(),
            },
        );
        Some(CatalogMutation::CreateDomain { name })
    }

    fn add_class(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let name = self.fresh("C");
        let dm = self.domains.get_mut(&domain).unwrap();
        let mut parents = vec![pick(rng, &dm.parents).clone()];
        if dm.parents.len() >= 2 && rng.gen_bool(0.2) {
            let second = pick(rng, &dm.parents).clone();
            if second != parents[0] {
                parents.push(second);
            }
        }
        if parents == [domain.clone()] {
            dm.root_classes.push(name.clone());
        }
        dm.parents.push(name.clone());
        dm.nodes.push(name.clone());
        Some(CatalogMutation::AddClass {
            domain,
            name,
            parents,
        })
    }

    fn add_instance(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let name = self.fresh("I");
        let dm = self.domains.get_mut(&domain).unwrap();
        let parents = vec![pick(rng, &dm.parents).clone()];
        dm.nodes.push(name.clone());
        self.instances.insert(name.clone());
        Some(CatalogMutation::AddInstance {
            domain,
            name,
            parents,
        })
    }

    fn prefer(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let dm = self.domains.get_mut(&domain).unwrap();
        if dm.root_classes.len() < 2 {
            return None;
        }
        let wi = rng.gen_range(1..dm.root_classes.len());
        let si = rng.gen_range(0..wi);
        let stronger = dm.root_classes[si].clone();
        let weaker = dm.root_classes[wi].clone();
        if !dm.prefs.insert((stronger.clone(), weaker.clone())) {
            return None;
        }
        Some(CatalogMutation::Prefer {
            domain,
            stronger,
            weaker,
        })
    }

    fn create_relation(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let arity = if rng.gen_bool(0.3) { 2 } else { 1 };
        let mut attributes = Vec::new();
        let mut columns = Vec::new();
        for k in 0..arity {
            let domain = self.pick_domain(rng)?;
            columns.push(self.domains[&domain].nodes.clone());
            attributes.push((format!("a{k}"), domain));
        }
        let name = self.fresh("R");
        self.relations.insert(
            name.clone(),
            RelModel {
                columns,
                domains_used: attributes.iter().map(|(_, d)| d.clone()).collect(),
                stored: BTreeMap::new(),
                maybe: BTreeSet::new(),
                view_of: None,
            },
        );
        Some(CatalogMutation::CreateRelation { name, attributes })
    }

    fn assert(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_stored(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        let truth = sign(rng);
        let values = rm.unstored_row(rng)?;
        rm.stored.insert(values.clone(), truth);
        Some(CatalogMutation::Assert {
            relation,
            values,
            truth,
        })
    }

    fn retract(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_stored(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        if rm.stored.is_empty() {
            return None;
        }
        let keys: Vec<Vec<String>> = rm.stored.keys().cloned().collect();
        let values = pick(rng, &keys).clone();
        rm.stored.remove(&values);
        Some(CatalogMutation::Retract { relation, values })
    }

    fn set_preemption(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_stored(rng)?;
        let mode = *pick(
            rng,
            &[
                Preemption::OffPath,
                Preemption::OnPath,
                Preemption::NoPreemption,
            ],
        );
        Some(CatalogMutation::SetPreemption { relation, mode })
    }

    /// Consolidation only drops rows, and which ones the model does not
    /// work out: every stored row becomes one that may be gone.
    fn consolidate(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_stored(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        let stored = std::mem::take(&mut rm.stored);
        rm.maybe.extend(stored.into_keys());
        Some(CatalogMutation::Consolidate { relation })
    }

    fn rename_relation(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let from = self.pick_unread(rng, false)?;
        let to = self.fresh("R");
        let rm = self.relations.remove(&from).unwrap();
        self.relations.insert(to.clone(), rm);
        Some(CatalogMutation::RenameRelation { from, to })
    }

    /// `LET V = CONSOLIDATE S` over any relation, a view included.
    fn define_view(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let source = self.pick_relation(rng)?;
        let name = self.fresh("V");
        let of = &self.relations[&source];
        let view = RelModel {
            columns: of.columns.clone(),
            domains_used: of.domains_used.clone(),
            stored: BTreeMap::new(),
            maybe: BTreeSet::new(),
            view_of: Some(source.clone()),
        };
        self.relations.insert(name.clone(), view);
        Some(CatalogMutation::DefineView {
            name,
            derivation: Derivation::Consolidated(Source::Named(source)),
        })
    }

    fn drop_relation(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        if self.relations.len() < 4 {
            return None;
        }
        let name = self.pick_unread(rng, true)?;
        self.relations.remove(&name);
        Some(CatalogMutation::DropRelation { name })
    }

    fn drop_domain(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        if self.domains.len() < 4 {
            return None;
        }
        // A domain a relation is over cannot be dropped.
        let referenced: BTreeSet<&String> = self
            .relations
            .values()
            .flat_map(|r| r.domains_used.iter())
            .collect();
        let free: Vec<String> = self
            .domains
            .keys()
            .filter(|d| !referenced.contains(d))
            .cloned()
            .collect();
        if free.is_empty() {
            return None;
        }
        let name = pick(rng, &free).clone();
        self.domains.remove(&name);
        Some(CatalogMutation::DropDomain { name })
    }
}
