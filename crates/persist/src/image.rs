//! The `HRDM1` image: a whole catalog in one byte stream.
//!
//! [`Image`] is the codec type, not a store of its own: it carries the
//! same `Arc<HierarchyGraph>` / `Arc<HRelation>` handles a
//! [`Catalog`] holds, so a checkpoint or an
//! `OPEN` moves a catalog through it without copying a tuple.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "HRDM1\0"
//! version u32 (= 1)
//! domains u32 count, then per domain:
//!   name, node-count u32,
//!   per node (in id order, root first): name, kind u8 (0=domain 1=class 2=instance)
//!   edge-count u32, per edge: from u32, to u32, kind u8 (0=subset 1=preference)
//! relations u32 count, then per relation:
//!   name, preemption u8 (0=off-path 1=on-path 2=none), arity u32,
//!   per attribute: attr-name, domain-index u32,
//!   tuple-count u32, per tuple: truth u8 (0=negative 1=positive), node u32 × arity
//! ```

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use hrdm_core::prelude::*;
use hrdm_hierarchy::{EdgeKind, HierarchyGraph, NodeId, NodeKind};

use crate::codec::{read_str, read_u32, read_u8, write_str, write_u32, write_u8};
use crate::error::{PersistError, Result};

const MAGIC: &[u8; 6] = b"HRDM1\0";
const VERSION: u32 = 1;

/// Upper bound on any decoded element count. Counts are untrusted input;
/// a corrupt length must produce [`PersistError::Corrupt`], not an
/// attempted multi-gigabyte allocation (found by fuzz_corruption).
const COUNT_CAP: usize = 16 << 20;

fn checked_count(n: u32, what: &str) -> Result<usize> {
    let n = n as usize;
    if n > COUNT_CAP {
        Err(PersistError::Corrupt(format!(
            "{what} count {n} exceeds sanity cap"
        )))
    } else {
        Ok(n)
    }
}

/// An in-memory catalog image: named shared domains plus named
/// relations over them, in the order they are encoded.
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
    /// share).
    pub fn add_domain(&mut self, name: impl Into<String>, graph: Arc<HierarchyGraph>) {
        self.domains.push((name.into(), graph));
    }

    /// Register a relation, owned or already shared. Its attribute
    /// domains must have been added (checked at encode time).
    pub fn add_relation(&mut self, name: impl Into<String>, relation: impl Into<Arc<HRelation>>) {
        self.relations.push((name.into(), relation.into()));
    }

    /// Build an image from a [`Catalog`], sharing its domain and
    /// relation handles.
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
        }
    }

    /// Convert back into a [`Catalog`], moving the handles (relations
    /// were rebuilt against these same domain `Arc`s at decode time).
    pub fn into_catalog(self) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, graph) in self.domains {
            catalog.add_domain_arc(name, graph);
        }
        for (name, relation) in self.relations {
            catalog.add_relation(name, relation);
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

    /// Domain names in insertion order.
    pub fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.domains.iter().map(|(n, _)| n.as_str())
    }

    /// Relation names in insertion order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(|(n, _)| n.as_str())
    }

    fn domain_index(&self, graph: &Arc<HierarchyGraph>) -> Result<u32> {
        self.domains
            .iter()
            .position(|(_, g)| Arc::ptr_eq(g, graph))
            .map(|i| i as u32)
            .ok_or_else(|| {
                PersistError::Rebuild("relation references a domain not added to the image".into())
            })
    }

    /// Encode to a writer.
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;

        write_u32(w, self.domains.len() as u32)?;
        for (name, g) in &self.domains {
            write_str(w, name)?;
            write_u32(w, g.len() as u32)?;
            for id in g.node_ids() {
                write_str(w, g.name(id).as_str())?;
                let kind = match g.kind(id) {
                    NodeKind::Domain => 0u8,
                    NodeKind::Class => 1,
                    NodeKind::Instance => 2,
                };
                write_u8(w, kind)?;
            }
            let edges: Vec<(NodeId, NodeId, EdgeKind)> = g
                .node_ids()
                .flat_map(|from| {
                    g.children_with_kind(from)
                        .iter()
                        .map(move |&(to, k)| (from, to, k))
                })
                .collect();
            write_u32(w, edges.len() as u32)?;
            for (from, to, kind) in edges {
                write_u32(w, from.index() as u32)?;
                write_u32(w, to.index() as u32)?;
                write_u8(w, if kind == EdgeKind::Subset { 0 } else { 1 })?;
            }
        }

        write_u32(w, self.relations.len() as u32)?;
        for (name, rel) in &self.relations {
            write_str(w, name)?;
            let p = match rel.preemption() {
                Preemption::OffPath => 0u8,
                Preemption::OnPath => 1,
                Preemption::NoPreemption => 2,
            };
            write_u8(w, p)?;
            let schema = rel.schema();
            write_u32(w, schema.arity() as u32)?;
            for attr in schema.attributes() {
                write_str(w, attr.name())?;
                write_u32(w, self.domain_index(attr.domain())?)?;
            }
            write_u32(w, rel.len() as u32)?;
            for (item, truth) in rel.iter() {
                write_u8(w, if truth == Truth::Positive { 1 } else { 0 })?;
                for &node in item.components() {
                    write_u32(w, node.index() as u32)?;
                }
            }
        }
        Ok(())
    }

    /// Decode from a reader.
    pub fn read(r: &mut impl Read) -> Result<Image> {
        let mut magic = [0u8; 6];
        r.read_exact(&mut magic)
            .map_err(|_| PersistError::BadMagic)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }

        let domain_count = checked_count(read_u32(r)?, "domain")?;
        let mut domains: Vec<(String, Arc<HierarchyGraph>)> = Vec::new();
        for _ in 0..domain_count {
            let dom_name = read_str(r)?;
            let node_count = checked_count(read_u32(r)?, "node")?;
            if node_count == 0 {
                return Err(PersistError::Corrupt("domain with zero nodes".into()));
            }
            // Nodes arrive in id order; the graph assigns ids densely in
            // insertion order, so ids round-trip. Nodes are created
            // parentless via a placeholder edge pass afterwards — but the
            // constructor API requires parents, so decode edges first.
            let mut names = Vec::new();
            let mut kinds = Vec::new();
            for _ in 0..node_count {
                names.push(read_str(r)?);
                kinds.push(read_u8(r)?);
            }
            let edge_count = checked_count(read_u32(r)?, "edge")?;
            let mut edges = Vec::new();
            for _ in 0..edge_count {
                let from = read_u32(r)? as usize;
                let to = read_u32(r)? as usize;
                let kind = read_u8(r)?;
                if from >= node_count || to >= node_count {
                    return Err(PersistError::Corrupt(format!(
                        "edge ({from}, {to}) out of range"
                    )));
                }
                edges.push((from, to, kind));
            }
            let graph = rebuild_graph(&names, &kinds, &edges)?;
            domains.push((dom_name, Arc::new(graph)));
        }

        let relation_count = checked_count(read_u32(r)?, "relation")?;
        let mut relations = Vec::new();
        for _ in 0..relation_count {
            let rel_name = read_str(r)?;
            let preemption = match read_u8(r)? {
                0 => Preemption::OffPath,
                1 => Preemption::OnPath,
                2 => Preemption::NoPreemption,
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown preemption tag {other}"
                    )))
                }
            };
            let arity = checked_count(read_u32(r)?, "attribute")?;
            let mut attrs = Vec::new();
            for _ in 0..arity {
                let attr_name = read_str(r)?;
                let dom_idx = read_u32(r)? as usize;
                let (_, graph) = domains.get(dom_idx).ok_or_else(|| {
                    PersistError::Corrupt(format!("domain index {dom_idx} out of range"))
                })?;
                attrs.push(Attribute::new(attr_name, graph.clone()));
            }
            let schema = Arc::new(Schema::new(attrs));
            let tuple_count = checked_count(read_u32(r)?, "tuple")?;
            let mut tuples = Vec::new();
            for _ in 0..tuple_count {
                let truth = match read_u8(r)? {
                    0 => Truth::Negative,
                    1 => Truth::Positive,
                    other => {
                        return Err(PersistError::Corrupt(format!("unknown truth tag {other}")))
                    }
                };
                let mut components = Vec::with_capacity(schema.arity());
                for _ in 0..schema.arity() {
                    components.push(NodeId::from_index(read_u32(r)? as usize));
                }
                tuples.push(Tuple::new(Item::new(components), truth));
            }
            // An image is written in item order, so this packs the tuple
            // map in one pass (any other order is sorted first).
            let relation = HRelation::from_stored(schema, preemption, tuples)
                .map_err(|e| PersistError::Corrupt(format!("bad tuple: {e}")))?;
            relations.push((rel_name, Arc::new(relation)));
        }

        Ok(Image { domains, relations })
    }

    /// Encode to an owned buffer.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.write(&mut buf)?;
        Ok(buf)
    }

    /// Decode from a buffer.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Image> {
        Image::read(&mut bytes)
    }

    /// Save to a file (buffered).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write(&mut file)?;
        use std::io::Write as _;
        file.flush()?;
        Ok(())
    }

    /// Load from a file (buffered).
    pub fn load(path: impl AsRef<Path>) -> Result<Image> {
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        Image::read(&mut file)
    }
}

/// Rebuild a graph from decoded parts. The public constructors demand a
/// parent at node-creation time, so nodes are added under their first
/// subset parent (found from the edge list), then the remaining edges
/// are inserted.
fn rebuild_graph(
    names: &[String],
    kinds: &[u8],
    edges: &[(usize, usize, u8)],
) -> Result<HierarchyGraph> {
    if kinds[0] != 0 {
        return Err(PersistError::Corrupt(
            "node 0 must be the domain root".into(),
        ));
    }
    let mut first_parent: BTreeMap<usize, usize> = BTreeMap::new();
    for &(from, to, kind) in edges {
        if kind == 0 {
            first_parent.entry(to).or_insert(from);
        }
    }
    let mut g = HierarchyGraph::new(names[0].as_str());
    for (i, name) in names.iter().enumerate().skip(1) {
        let &parent = first_parent
            .get(&i)
            .ok_or_else(|| PersistError::Corrupt(format!("node {i} has no subset parent")))?;
        if parent >= i {
            return Err(PersistError::Corrupt(format!(
                "node {i} created before its parent {parent}"
            )));
        }
        let parent = NodeId::from_index(parent);
        let result = match kinds[i] {
            1 => g.add_class(name.as_str(), parent),
            2 => g.add_instance(name.as_str(), parent),
            other => return Err(PersistError::Corrupt(format!("unknown node kind {other}"))),
        };
        result.map_err(|e| PersistError::Rebuild(e.to_string()))?;
    }
    for &(from, to, kind) in edges {
        if kind == 0 && first_parent.get(&to) == Some(&from) {
            continue; // already created with this edge
        }
        let from = NodeId::from_index(from);
        let to = NodeId::from_index(to);
        let result = match kind {
            0 => g.add_edge(from, to),
            1 => g.add_preference_edge(from, to),
            other => return Err(PersistError::Corrupt(format!("unknown edge kind {other}"))),
        };
        result.map_err(|e| PersistError::Rebuild(e.to_string()))?;
    }
    Ok(g)
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
