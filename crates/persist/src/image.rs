//! The `HRDM1` image: a whole catalog in one byte stream.
//!
//! [`Image`] is the codec type, not a store of its own: it carries the
//! same `Arc<HierarchyGraph>` / `Arc<HRelation>` handles a
//! [`Catalog`] holds, so a checkpoint or an
//! `OPEN` moves a catalog through it without copying a tuple. It
//! carries each live view as its definition, not its rows, so
//! `SAVE`/`LOAD`, a checkpoint and a replica's shipped base keep views
//! live.
//!
//! Layout, version 4, spelled by [`crate::codec`] as the log is. Every
//! integer is only as wide as it needs to be: a count or a string
//! length is a LEB128 varint, and a node id is `w` little-endian bytes,
//! `w` the fewest that hold every id of its domain ([`width`]`(n)`:
//! the fewest bytes that hold each value below `n`).
//!
//! ```text
//! magic   "HRDM1\0"
//! version u32 LE (= 4; an image of versions 1–3 is refused as
//!         unsupported)
//! domains count, then per domain in name order:
//!   name, node-count n (≥ 1), then per node in id order, the domain
//!   first:
//!     name, kind u8 (0=domain 1=class 2=instance),
//!     child-count, then per child in order:
//!       id·2 + edge kind (0=subset 1=preference) in width(2·n) bytes
//! relations count, then per stored relation in name order (a view's
//!   relation is not one: it is derived again from its definition on
//!   decode):
//!   name, preemption u8 (0=off-path 1=on-path 2=none), arity,
//!   per attribute: attr-name, domain-index,
//!   tuple-count, then per tuple in ascending item order:
//!     component 0 as id·2 + truth (0=negative 1=positive) in
//!     width(2·n) bytes of its domain, each further component's id in
//!     width(n) bytes of its own (arity 0: the truth alone, u8)
//! views count, then per view in registration order:
//!   name, derivation (codec::write_derivation, as the WAL writes it)
//! ```
//!
//! A name is a varint byte length and its UTF-8. Nothing follows the
//! view table. The layout leaves the writer no choice — shortest
//! varints, names and tuples strictly ascending — and the decoder
//! refuses anything else, so an image decodes only if it is the one
//! encoding of what it decodes to, and its size depends only on the
//! catalog's shape: its domain sizes, name lengths, edge and tuple
//! counts and arities, not on which ids or truths it stores.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use hrdm_core::derivation::Derivation;
use hrdm_core::prelude::*;
use hrdm_core::view::View;
use hrdm_hierarchy::{EdgeKind, HierarchyError, HierarchyGraph, NodeId, NodeKind, NodeName};

use crate::codec::{
    truth_of, truth_tag, width, write_derivation, write_preemption, write_str, write_u32,
    write_uint, write_varint, Reader,
};
use crate::error::{PersistError, Result};

const MAGIC: &[u8; 6] = b"HRDM1\0";
const VERSION: u32 = 4;

/// The byte widths of a tuple's components under `schema`: the first
/// also carries the truth, in its low bit.
fn component_widths(schema: &Schema) -> Vec<usize> {
    schema
        .attributes()
        .iter()
        .enumerate()
        .map(|(i, a)| width(a.domain().len() << usize::from(i == 0)))
        .collect()
}

/// Insert `(name, value)` at its place in name order, replacing the
/// value of an equal name, as a catalog does.
fn insert_by_name<T>(entries: &mut Vec<(String, T)>, name: String, value: T) {
    match entries.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
        Ok(at) => entries[at].1 = value,
        Err(at) => entries.insert(at, (name, value)),
    }
}

/// An in-memory catalog image: named shared domains and named
/// relations over them, each in name order, and the definitions of the
/// live views among those relations, in registration order.
///
/// The image is the `HRDM1` codec's view of a
/// [`Catalog`], not a second container: it holds the catalog's own
/// `Arc`s, so converting in either direction
/// ([`from_catalog`](Image::from_catalog),
/// [`into_catalog`](Image::into_catalog)) bumps or moves pointers and
/// never copies a graph or a tuple.
#[derive(Default)]
pub struct Image {
    domains: Vec<(String, Arc<HierarchyGraph>)>,
    relations: Vec<(String, Arc<HRelation>)>,
    /// The catalog's live views in registration order (a view over
    /// another view comes after it). Each one's relation is among
    /// `relations` too, but is encoded as this definition only.
    views: Vec<Arc<View>>,
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Image({} domains: {:?}; {} relations: {:?})",
            self.domains.len(),
            self.domains.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            self.relations.len(),
            self.relations.iter().map(|(n, _)| n).collect::<Vec<_>>()
        )
    }
}

impl Image {
    /// An empty image.
    pub fn new() -> Image {
        Image::default()
    }

    /// Register a domain (its `Arc` identity is what relations must
    /// share). A domain of the same name is replaced.
    pub fn add_domain(&mut self, name: impl Into<String>, graph: Arc<HierarchyGraph>) {
        insert_by_name(&mut self.domains, name.into(), graph);
    }

    /// Register a relation, owned or already shared. Its attribute
    /// domains must have been added (checked at encode time). A
    /// relation of the same name is replaced.
    pub fn add_relation(&mut self, name: impl Into<String>, relation: impl Into<Arc<HRelation>>) {
        insert_by_name(&mut self.relations, name.into(), relation.into());
    }

    /// Build an image from a [`Catalog`], sharing its domain, relation
    /// and view handles.
    pub fn from_catalog(catalog: &Catalog) -> Image {
        Image {
            domains: catalog
                .domains()
                .map(|(n, g)| (n.to_string(), g.clone()))
                .collect(),
            relations: catalog
                .relations()
                .map(|(n, r)| (n.to_string(), r.clone()))
                .collect(),
            views: catalog.views().cloned().collect(),
        }
    }

    /// Convert back into a [`Catalog`], moving the handles (relations
    /// were rebuilt against these same domain `Arc`s, and views derived
    /// over them, at decode time).
    pub fn into_catalog(self) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, graph) in self.domains {
            catalog.add_domain_arc(name, graph);
        }
        for (name, relation) in self.relations {
            catalog.add_relation(name, relation);
        }
        for view in self.views {
            catalog.add_view(view);
        }
        catalog
    }

    /// Look up a restored relation.
    pub fn relation(&self, name: &str) -> Result<&HRelation> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.as_ref())
            .ok_or_else(|| PersistError::NotFound(name.to_string()))
    }

    /// Look up a restored domain.
    pub fn domain(&self, name: &str) -> Result<&Arc<HierarchyGraph>> {
        self.domains
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| g)
            .ok_or_else(|| PersistError::NotFound(name.to_string()))
    }

    /// Domain names in name order.
    pub fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.domains.iter().map(|(n, _)| n.as_str())
    }

    /// Relation names in name order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(|(n, _)| n.as_str())
    }

    fn domain_index(&self, graph: &Arc<HierarchyGraph>) -> Result<usize> {
        self.domains
            .iter()
            .position(|(_, g)| Arc::ptr_eq(g, graph))
            .ok_or_else(|| {
                PersistError::Rebuild("relation references a domain not added to the image".into())
            })
    }

    /// Encode to a writer.
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        w.write_all(&self.to_bytes()?)?;
        Ok(())
    }

    /// Encode to an owned buffer.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, VERSION);

        write_varint(&mut out, self.domains.len() as u64);
        for (name, g) in &self.domains {
            write_str(&mut out, name);
            write_varint(&mut out, g.len() as u64);
            let w = width(2 * g.len());
            for id in g.node_ids() {
                write_str(&mut out, g.name(id).as_str());
                out.push(match g.kind(id) {
                    NodeKind::Domain => 0,
                    NodeKind::Class => 1,
                    NodeKind::Instance => 2,
                });
                let children = g.children_with_kind(id);
                write_varint(&mut out, children.len() as u64);
                for &(child, kind) in children {
                    let preference = usize::from(kind == EdgeKind::Preference);
                    write_uint(&mut out, 2 * child.index() + preference, w);
                }
            }
        }

        let is_view = |name: &str| self.views.iter().any(|v| v.name() == name);
        let stored = self.relations.iter().filter(|(name, _)| !is_view(name));
        write_varint(&mut out, stored.clone().count() as u64);
        for (name, rel) in stored {
            write_str(&mut out, name);
            write_preemption(&mut out, rel.preemption());
            let schema = rel.schema();
            write_varint(&mut out, schema.arity() as u64);
            for attr in schema.attributes() {
                write_str(&mut out, attr.name());
                write_varint(&mut out, self.domain_index(attr.domain())? as u64);
            }
            let widths = component_widths(schema);
            write_varint(&mut out, rel.len() as u64);
            for (item, truth) in rel.iter() {
                let tag = truth_tag(truth);
                match item.components() {
                    [] => out.push(tag),
                    [first, rest @ ..] => {
                        write_uint(&mut out, 2 * first.index() + usize::from(tag), widths[0]);
                        for (node, &w) in rest.iter().zip(&widths[1..]) {
                            write_uint(&mut out, node.index(), w);
                        }
                    }
                }
            }
        }

        write_varint(&mut out, self.views.len() as u64);
        for view in &self.views {
            write_str(&mut out, view.name());
            write_derivation(&mut out, view.derivation());
        }
        Ok(out)
    }

    /// Decode from a reader (all of it: nothing may follow the image).
    pub fn read(r: &mut impl Read) -> Result<Image> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Image::from_bytes(&bytes)
    }

    /// Decode from a buffer holding one image and nothing after it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len(), "the magic").ok() != Some(MAGIC) {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32("the version")?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }

        let domain_count = r.count("domain count", 5)?;
        let mut domains: Vec<(String, Arc<HierarchyGraph>)> = Vec::with_capacity(domain_count);
        for _ in 0..domain_count {
            let prev = domains.last().map(|(n, _)| n.as_str());
            let name = name_after(&mut r, prev, "domain")?;
            domains.push((name, Arc::new(graph(&mut r)?)));
        }

        let relation_count = r.count("relation count", 4)?;
        let mut relations: Vec<(String, Arc<HRelation>)> = Vec::with_capacity(relation_count);
        for _ in 0..relation_count {
            let prev = relations.last().map(|(n, _)| n.as_str());
            let name = name_after(&mut r, prev, "relation")?;
            relations.push((name, Arc::new(relation(&mut r, &domains)?)));
        }

        let view_count = r.count("view count", 2)?;
        let mut definitions = Vec::with_capacity(view_count);
        for _ in 0..view_count {
            let name = r.str()?.to_string();
            definitions.push((name, r.derivation()?));
        }
        if !r.rest().is_empty() {
            return Err(PersistError::Corrupt(format!(
                "{} byte(s) after the view table",
                r.rest().len()
            )));
        }
        let mut image = Image {
            domains,
            relations,
            views: Vec::new(),
        };
        if !definitions.is_empty() {
            image.attach_views(definitions)?;
        }
        Ok(image)
    }

    /// Attach each decoded view definition, in order, over the image's
    /// stored relations and the views before it: its derivation is
    /// materialized once, as `DefineView` does, and its relation joins
    /// the image. A definition whose name is taken, or that does not
    /// plan, is [`PersistError::Rebuild`] — the writer encoded a view
    /// this build cannot derive, which no byte damage explains.
    fn attach_views(&mut self, definitions: Vec<(String, Derivation)>) -> Result<()> {
        let mut catalog = std::mem::take(self).into_catalog();
        for (name, derivation) in definitions {
            if catalog.relation(&name).is_ok() {
                return Err(PersistError::Rebuild(format!(
                    "view {name:?} names a relation the image already holds"
                )));
            }
            catalog
                .attach_view(&name, derivation)
                .map_err(|e| PersistError::Rebuild(format!("view {name:?}: {e}")))?;
        }
        *self = Image::from_catalog(&catalog);
        Ok(())
    }

    /// Save to a file (buffered).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write(&mut file)?;
        file.flush()?;
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Image> {
        Image::from_bytes(&std::fs::read(path)?)
    }
}

fn corrupt(msg: String) -> PersistError {
    PersistError::Corrupt(msg)
}

/// The name of the next domain or relation, which must come after
/// `prev` in name order.
fn name_after(r: &mut Reader<'_>, prev: Option<&str>, what: &str) -> Result<String> {
    let name = r.str()?;
    if prev.is_some_and(|p| p >= name) {
        return Err(corrupt(format!("{what} {name:?} out of name order")));
    }
    Ok(name.to_string())
}

/// A domain's node table, built into a graph in one pass.
fn graph(r: &mut Reader<'_>) -> Result<HierarchyGraph> {
    let n = r.count("node count", 3)?;
    if n == 0 {
        return Err(corrupt("domain with zero nodes".into()));
    }
    let w = width(2 * n);
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let name = NodeName::new(r.str()?);
        let kind = match r.u8("a node kind")? {
            0 => NodeKind::Domain,
            1 => NodeKind::Class,
            2 => NodeKind::Instance,
            other => return Err(corrupt(format!("unknown node kind {other}"))),
        };
        let count = r.count("child count", w)?;
        let mut children = Vec::with_capacity(count);
        for _ in 0..count {
            let v = r.uint(w)?;
            let kind = match v & 1 {
                0 => EdgeKind::Subset,
                _ => EdgeKind::Preference,
            };
            children.push((NodeId::from_index(v >> 1), kind));
        }
        parts.push((name, kind, children));
    }
    // What no writer's table holds is damage; what the model refuses of
    // a well-formed table is a graph this build cannot rebuild.
    HierarchyGraph::from_parts(parts).map_err(|e| match e {
        HierarchyError::UnknownNode(_)
        | HierarchyError::NoParent
        | HierarchyError::OutOfOrder(_) => corrupt(e.to_string()),
        _ => PersistError::Rebuild(e.to_string()),
    })
}

/// A stored relation over `domains`, its tuples decoded in place
/// straight into its tuple map.
fn relation(r: &mut Reader<'_>, domains: &[(String, Arc<HierarchyGraph>)]) -> Result<HRelation> {
    let preemption = r.preemption()?;
    let arity = r.count("arity", 2)?;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let attr_name = r.str()?;
        let index = r.varint()?;
        let (_, graph) = usize::try_from(index)
            .ok()
            .and_then(|i| domains.get(i))
            .ok_or_else(|| corrupt(format!("domain index {index} out of range")))?;
        attrs.push(Attribute::new(attr_name, graph.clone()));
    }
    let schema = Arc::new(Schema::new(attrs));
    let widths = component_widths(&schema);
    let count = r.count("tuple count", widths.iter().sum::<usize>().max(1))?;
    let mut failed = None;
    let mut prev: Option<Item> = None;
    let tuples = (0..count).map_while(|_| {
        let decoded = tuple(r, &widths).and_then(|t| match &prev {
            Some(p) if *p >= t.item => Err(corrupt("tuples out of item order".into())),
            _ => Ok(t),
        });
        match decoded {
            Ok(t) => {
                prev = Some(t.item.clone());
                Some(t)
            }
            Err(e) => {
                failed = Some(e);
                None
            }
        }
    });
    let relation = HRelation::from_stored(schema, preemption, tuples)
        .map_err(|e| corrupt(format!("bad tuple: {e}")))?;
    match failed {
        Some(e) => Err(e),
        None => Ok(relation),
    }
}

/// A tuple: component 0 carries the truth tag in its low bit.
fn tuple(r: &mut Reader<'_>, widths: &[usize]) -> Result<Tuple> {
    if widths.is_empty() {
        return Ok(Tuple::new(Item::new(Vec::new()), r.truth()?));
    }
    let mut truth = Truth::Negative;
    let item = Item::try_from_fn(widths.len(), |i| -> Result<NodeId> {
        let v = r.uint(widths[i])?;
        if i > 0 {
            return Ok(NodeId::from_index(v));
        }
        truth = truth_of((v & 1) as u8)?;
        Ok(NodeId::from_index(v >> 1))
    })?;
    Ok(Tuple::new(item, truth))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_world() -> Image {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let gala = g.add_class("Galapagos Penguin", penguin).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        g.add_instance_multi("Patricia", &[gala, afp]).unwrap();
        g.add_instance("Tweety", bird).unwrap();
        let animal = Arc::new(g);

        let mut c = HierarchyGraph::new("Color");
        c.add_instance("Grey", c.root()).unwrap();
        let color = Arc::new(c);

        let schema = Arc::new(Schema::single("Creature", animal.clone()));
        let mut flies = HRelation::new(schema);
        flies.assert_fact(&["Bird"], Truth::Positive).unwrap();
        flies.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        flies
            .assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();

        let schema2 = Arc::new(Schema::new(vec![
            Attribute::new("Animal", animal.clone()),
            Attribute::new("Color", color.clone()),
        ]));
        let mut colored = HRelation::with_preemption(schema2, Preemption::OnPath);
        colored
            .assert_fact(&["Bird", "Grey"], Truth::Positive)
            .unwrap();

        let mut image = Image::new();
        image.add_domain("Animal", animal);
        image.add_domain("Color", color);
        image.add_relation("Flies", flies);
        image.add_relation("Colored", colored);
        image
    }

    #[test]
    fn round_trip_preserves_bindings() {
        let image = sample_world();
        let bytes = image.to_bytes().unwrap();
        let restored = Image::from_bytes(&bytes).unwrap();
        let flies = restored.relation("Flies").unwrap();
        assert!(flies.holds(&flies.item(&["Tweety"]).unwrap()));
        assert!(flies.holds(&flies.item(&["Patricia"]).unwrap()));
        assert_eq!(flies.len(), 3);
        // Preemption mode survives.
        let colored = restored.relation("Colored").unwrap();
        assert_eq!(colored.preemption(), Preemption::OnPath);
    }

    #[test]
    fn restored_relations_share_domain_arcs() {
        let image = sample_world();
        let restored = Image::from_bytes(&image.to_bytes().unwrap()).unwrap();
        let flies = restored.relation("Flies").unwrap();
        let colored = restored.relation("Colored").unwrap();
        assert!(Arc::ptr_eq(
            flies.schema().attribute(0).domain(),
            colored.schema().attribute(0).domain()
        ));
        // …which means joins still work after a reload.
        let joined = hrdm_core::ops::join(
            &hrdm_core::ops::rename(flies, "Creature", "Animal").unwrap(),
            colored,
        );
        assert!(joined.is_ok());
    }

    #[test]
    fn preference_edges_round_trip() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        hrdm_hierarchy::preference::prefer(&mut g, a, b).unwrap();
        let mut image = Image::new();
        image.add_domain("D", Arc::new(g));
        let restored = Image::from_bytes(&image.to_bytes().unwrap()).unwrap();
        let g2 = restored.domain("D").unwrap();
        assert!(hrdm_hierarchy::preference::dominates(g2, a, b));
        assert!(!g2.is_descendant(b, a), "preference is still not subset");
    }

    #[test]
    fn file_save_and_load() {
        let image = sample_world();
        let path =
            std::env::temp_dir().join(format!("hrdm_image_test_{}.hrdm", std::process::id()));
        image.save(&path).unwrap();
        let restored = Image::load(&path).unwrap();
        assert_eq!(restored.relation_names().count(), 2);
        assert_eq!(restored.domain_names().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(matches!(
            Image::from_bytes(b"NOTHRDM"),
            Err(PersistError::BadMagic)
        ));
        let mut bytes = sample_world().to_bytes().unwrap();
        // Flip the version.
        bytes[6] = 9;
        assert!(matches!(
            Image::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion(_))
        ));
        // Truncate the stream.
        let bytes = sample_world().to_bytes().unwrap();
        assert!(Image::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn relation_over_unregistered_domain_rejected_at_encode() {
        let mut g = HierarchyGraph::new("D");
        g.add_class("A", g.root()).unwrap();
        let dom = Arc::new(g);
        let schema = Arc::new(Schema::single("V", dom));
        let rel = HRelation::new(schema);
        let mut image = Image::new();
        image.add_relation("R", rel); // forgot add_domain
        assert!(matches!(image.to_bytes(), Err(PersistError::Rebuild(_))));
    }

    /// A view over a view survives the byte stream as a live view over
    /// a live view, in registration order, each re-attached to its
    /// stored rows, and keeps following its sources afterwards.
    #[test]
    fn views_over_views_round_trip_live() {
        use hrdm_core::derivation::Source;
        let mut catalog = sample_world().into_catalog();
        let define = |name: &str, derivation| CatalogMutation::DefineView {
            name: name.into(),
            derivation,
        };
        let fliers = Derivation::Consolidated(Source::named("Flies"));
        let both = Derivation::Union(Source::named("Fliers"), Source::named("Flies"));
        for m in [define("Fliers", fliers), define("Both", both)] {
            catalog.apply_mutation(&m).unwrap();
        }
        let bytes = Image::from_catalog(&catalog).to_bytes().unwrap();
        let mut restored = Image::from_bytes(&bytes).unwrap().into_catalog();
        assert_eq!(restored.render_stable(), catalog.render_stable());
        let order: Vec<&str> = restored.views().map(|v| v.name()).collect();
        assert_eq!(order, ["Fliers", "Both"]);
        assert!(restored
            .render_stable()
            .ends_with("view Fliers = CONSOLIDATE Flies\nview Both = UNION Fliers Flies\n"));
        let write = CatalogMutation::Assert {
            relation: "Flies".into(),
            values: vec!["Tweety".into()],
            truth: Truth::Negative,
        };
        catalog.apply_mutation(&write).unwrap();
        restored.apply_mutation(&write).unwrap();
        assert_eq!(restored.render_stable(), catalog.render_stable());
        // An image without views ends in the one byte of an empty view
        // table.
        let plain = sample_world().to_bytes().unwrap();
        assert_eq!(plain.last(), Some(&0));
    }

    /// A view is encoded as its definition alone: the image of a
    /// catalog with views is the image of its stored relations plus the
    /// view table, and no view's rows.
    #[test]
    fn an_image_holds_a_views_definition_not_its_rows() {
        use hrdm_core::derivation::Source;
        let mut catalog = sample_world().into_catalog();
        let plain = Image::from_catalog(&catalog).to_bytes().unwrap();
        let fliers = Derivation::Consolidated(Source::named("Flies"));
        catalog
            .apply_mutation(&CatalogMutation::DefineView {
                name: "Fliers".into(),
                derivation: fliers.clone(),
            })
            .unwrap();
        assert!(!catalog.relation("Fliers").unwrap().is_empty());
        let mut expected = plain[..plain.len() - 1].to_vec();
        write_varint(&mut expected, 1);
        write_str(&mut expected, "Fliers");
        write_derivation(&mut expected, &fliers);
        let bytes = Image::from_catalog(&catalog).to_bytes().unwrap();
        assert_eq!(bytes, expected);
        let restored = Image::from_bytes(&bytes).unwrap().into_catalog();
        assert_eq!(restored.render_stable(), catalog.render_stable());
    }

    /// A definition that no longer derives over the image's relations —
    /// here one whose source was renamed in the bytes — is refused as
    /// [`PersistError::Rebuild`], not dropped or read as a plain
    /// relation.
    #[test]
    fn a_view_that_does_not_derive_is_refused() {
        use hrdm_core::derivation::Source;
        let mut catalog = sample_world().into_catalog();
        catalog
            .apply_mutation(&CatalogMutation::DefineView {
                name: "Fliers".into(),
                derivation: Derivation::Consolidated(Source::named("Flies")),
            })
            .unwrap();
        let mut bytes = Image::from_catalog(&catalog).to_bytes().unwrap();
        let at = bytes.windows(5).rposition(|w| w == b"Flies").unwrap();
        bytes[at..at + 5].copy_from_slice(b"Fliez");
        match Image::from_bytes(&bytes) {
            Err(PersistError::Rebuild(msg)) => assert!(msg.contains("Fliers"), "{msg}"),
            other => panic!("expected a rebuild error, got {other:?}"),
        }
    }

    /// Version 1 had no view table, version 2 wrote every integer four
    /// bytes wide and version 3 wrote a view's name lengths and counts
    /// that wide: each is refused, not misread.
    #[test]
    fn images_of_versions_one_to_three_are_unsupported() {
        for version in [1u32, 2, 3] {
            let mut bytes = sample_world().to_bytes().unwrap();
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Image::from_bytes(&bytes).unwrap_err(),
                PersistError::UnsupportedVersion(version)
            );
        }
    }

    /// The sample's bytes, field by field: varint counts and lengths,
    /// one-byte ids in its small domains, the edge kind and the truth
    /// in the low bit.
    #[test]
    fn the_layout_spends_one_byte_per_small_id() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_instance("b", a).unwrap();
        g.add_preference_edge(g.root(), b).unwrap();
        let d = Arc::new(g);
        let mut r = HRelation::new(Arc::new(Schema::single("x", d.clone())));
        r.assert_fact(&["b"], Truth::Positive).unwrap();
        r.assert_fact(&["A"], Truth::Negative).unwrap();
        let mut image = Image::new();
        image.add_domain("D", d);
        image.add_relation("R", r);
        let mut want = b"HRDM1\0".to_vec();
        want.extend_from_slice(&VERSION.to_le_bytes());
        want.extend_from_slice(&[1, 1, b'D', 3]); // one domain "D", 3 nodes
        want.extend_from_slice(&[1, b'D', 0, 2, 1 << 1, 2 << 1 | 1]); // D -> A, D ~> b
        want.extend_from_slice(&[1, b'A', 1, 1, 2 << 1]); // A -> b
        want.extend_from_slice(&[1, b'b', 2, 0]);
        want.extend_from_slice(&[1, 1, b'R', 0, 1, 1, b'x', 0]); // R (x: D), off-path
        want.extend_from_slice(&[2, 1 << 1, 2 << 1 | 1]); // -A, +b in item order
        want.push(0); // no views
        assert_eq!(image.to_bytes().unwrap(), want);
    }

    /// A decoder that accepted two spellings of one catalog would let a
    /// damaged image pass for another: a longer varint, a name or a
    /// tuple out of order, and bytes after the view table are corrupt.
    #[test]
    fn a_second_spelling_of_a_catalog_is_corrupt() {
        let bytes = sample_world().to_bytes().unwrap();
        let corrupt =
            |bytes: &[u8]| matches!(Image::from_bytes(bytes), Err(PersistError::Corrupt(_)));
        let mut longer = bytes[..10].to_vec();
        longer.extend_from_slice(&[0x82, 0x00]); // 2 domains in two bytes
        longer.extend_from_slice(&bytes[11..]);
        assert!(corrupt(&longer));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(corrupt(&trailing));
        // "Animal" before "Color" is name order; "Dnimal" is not.
        let mut unordered = bytes.clone();
        let at = unordered.windows(6).position(|w| w == b"Animal").unwrap();
        unordered[at] = b'D';
        assert!(corrupt(&unordered));
        // Flies holds (+Bird), (-Penguin), (+AFP): swap two tuples.
        let flies = Image::from_bytes(&bytes).unwrap();
        let flies = flies.relation("Flies").unwrap();
        let ids: Vec<usize> = flies.iter().map(|(i, _)| i.component(0).index()).collect();
        let at = bytes.len() - 1 - 3;
        assert_eq!(bytes[at] as usize >> 1, ids[0], "the first Flies tuple");
        let mut swapped = bytes.clone();
        swapped.swap(at, at + 1);
        assert!(corrupt(&swapped));
    }

    /// A domain table that is not a graph: damage that no writer could
    /// have produced is corrupt, a table the model refuses is a rebuild
    /// error, as the one-by-one constructors reported them.
    #[test]
    fn a_bad_node_table_keeps_its_error_kind() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        g.add_class("B", a).unwrap();
        let mut image = Image::new();
        image.add_domain("D", Arc::new(g));
        let bytes = image.to_bytes().unwrap();
        // D: [1 'D' 0 1 (A)] A: [1 'A' 1 1 (B)] B: [1 'B' 1 0]
        let node = 14;
        assert_eq!(&bytes[node..node + 5], &[1, b'D', 0, 1, 1 << 1]);
        let edit = |at: usize, v: u8| {
            let mut b = bytes.clone();
            b[at] = v;
            Image::from_bytes(&b).unwrap_err().kind()
        };
        assert_eq!(edit(node + 2, 1), "corrupt", "root not the domain");
        assert_eq!(edit(node + 4, 7 << 1), "corrupt", "edge out of range");
        assert_eq!(
            edit(node + 4, 1 << 1 | 1),
            "corrupt",
            "A under nothing by subset"
        );
        assert_eq!(edit(node + 7, 2), "rebuild", "A an instance with a child");
        assert_eq!(edit(node + 9, 1 << 1), "rebuild", "self edge");
        assert_eq!(edit(node + 6, b'D'), "rebuild", "duplicate name");
    }

    /// An image of a catalog shares its storage both ways: no graph and
    /// no tuple is copied on the way through, and the restored
    /// relations hold the restored domain handles.
    #[test]
    fn catalog_round_trip_shares_storage() {
        let catalog = sample_world().into_catalog();
        let restored = Image::from_catalog(&catalog).into_catalog();
        for name in ["Flies", "Colored"] {
            assert!(Arc::ptr_eq(
                catalog.relation_arc(name).unwrap(),
                restored.relation_arc(name).unwrap()
            ));
        }
        let animal = restored.domain("Animal").unwrap();
        assert!(Arc::ptr_eq(catalog.domain("Animal").unwrap(), animal));
        assert!(Arc::ptr_eq(
            animal,
            restored.relation("Flies").unwrap().schema().attributes()[0].domain()
        ));
    }

    #[test]
    fn not_found_lookups() {
        let image = Image::new();
        assert!(matches!(
            image.relation("R"),
            Err(PersistError::NotFound(_))
        ));
        assert!(matches!(image.domain("D"), Err(PersistError::NotFound(_))));
    }
}
