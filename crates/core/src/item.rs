//! Items: one hierarchy node per attribute (§2.1–§2.2).
//!
//! "An item is now obtained as one member (class or element) from each of
//! D₁, D₂, etc., the domains of the various attributes. Thus an item is a
//! subset of D*." An *atomic* item has an instance in every position; a
//! *composite* item has at least one class.

use std::fmt;

use hrdm_hierarchy::NodeId;

use crate::pmap::Head;

/// Components an item holds in place. Items of up to this arity — every
/// relation in the paper, and all but the widest joins — are cloned,
/// compared and hashed without touching the heap, which is what makes
/// copying a tuple-map node (a write's copy-on-write step) a `memcpy`.
const INLINE: usize = 4;

#[derive(Clone)]
enum Repr {
    /// `nodes[..len]` are the components; the rest is `NodeId::ROOT`
    /// padding, which `Head for Item` relies on.
    Inline { len: u8, nodes: [NodeId; INLINE] },
    /// More than [`INLINE`] components.
    Heap(Box<[NodeId]>),
}

/// One node of the product item hierarchy: a `NodeId` per attribute.
///
/// `Item` is ordered (`Ord`) so relations can store tuples in a
/// deterministic ordered map; the order is lexicographic over per-graph
/// node ids and carries no semantic meaning.
#[derive(Clone)]
pub struct Item(Repr);

impl Item {
    /// Build an item from per-attribute nodes.
    pub fn new(components: Vec<NodeId>) -> Item {
        if components.len() > INLINE {
            return Item(Repr::Heap(components.into_boxed_slice()));
        }
        let mut nodes = [NodeId::ROOT; INLINE];
        nodes[..components.len()].copy_from_slice(&components);
        Item(Repr::Inline {
            len: components.len() as u8,
            nodes,
        })
    }

    /// Build an item of `arity` components, the `i`-th being `f(i)`,
    /// stopping at the first error. Up to four components are written
    /// in place, so a resolution or a decode that succeeds allocates
    /// nothing.
    pub fn try_from_fn<E>(
        arity: usize,
        mut f: impl FnMut(usize) -> Result<NodeId, E>,
    ) -> Result<Item, E> {
        if arity > INLINE {
            return (0..arity)
                .map(f)
                .collect::<Result<Vec<_>, E>>()
                .map(Item::new);
        }
        let mut nodes = [NodeId::ROOT; INLINE];
        for (i, slot) in nodes[..arity].iter_mut().enumerate() {
            *slot = f(i)?;
        }
        Ok(Item(Repr::Inline {
            len: arity as u8,
            nodes,
        }))
    }

    /// The arity of the item (number of attributes).
    #[inline]
    pub fn arity(&self) -> usize {
        self.components().len()
    }

    /// The per-attribute nodes.
    #[inline]
    pub fn components(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, nodes } => &nodes[..*len as usize],
            Repr::Heap(nodes) => nodes,
        }
    }

    /// One component.
    #[inline]
    pub fn component(&self, i: usize) -> NodeId {
        self.components()[i]
    }

    /// A copy with component `i` replaced.
    pub fn with_component(&self, i: usize, node: NodeId) -> Item {
        let mut copy = self.clone();
        copy.set_component(i, node);
        copy
    }

    /// Replace component `i` in place.
    pub(crate) fn set_component(&mut self, i: usize, node: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, nodes } => nodes[..*len as usize][i] = node,
            Repr::Heap(nodes) => nodes[i] = node,
        }
    }

    /// Keep only the listed components, in the listed order (used by
    /// projection).
    pub fn select_components(&self, indexes: &[usize]) -> Item {
        let components = self.components();
        Item::new(indexes.iter().map(|&i| components[i]).collect())
    }

    /// Consume into the underlying vector.
    pub fn into_components(self) -> Vec<NodeId> {
        match self.0 {
            Repr::Inline { len, nodes } => nodes[..len as usize].to_vec(),
            Repr::Heap(nodes) => nodes.into_vec(),
        }
    }
}

// Equality, order and hash are those of the component slice, whichever
// way it is stored.

impl PartialEq for Item {
    fn eq(&self, other: &Item) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Item {}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Item) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Item {
    fn cmp(&self, other: &Item) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

/// The first two components, packed high then low; an absent one packs
/// as 0, `NodeId::ROOT`, the least id. Items order lexicographically
/// and a prefix sorts first, so a lesser item never packs higher. An
/// item of arity ≤ 2 — every relation in the paper but the joins — is
/// told apart from every other by its head alone.
impl Head for Item {
    #[inline]
    fn head(&self) -> u64 {
        let pack = |a: NodeId, b: NodeId| (a.index() as u64) << 32 | b.index() as u64;
        match &self.0 {
            // The padding past `len` is `NodeId::ROOT`, so an inline item
            // packs its first two slots without looking at its arity.
            Repr::Inline { nodes, .. } => pack(nodes[0], nodes[1]),
            Repr::Heap(nodes) => pack(nodes[0], nodes[1]),
        }
    }
}

impl std::hash::Hash for Item {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl From<Vec<NodeId>> for Item {
    fn from(v: Vec<NodeId>) -> Item {
        Item::new(v)
    }
}

impl AsRef<[NodeId]> for Item {
    fn as_ref(&self) -> &[NodeId] {
        self.components()
    }
}

impl std::ops::Index<usize> for Item {
    type Output = NodeId;

    fn index(&self, i: usize) -> &NodeId {
        &self.components()[i]
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Item{:?}", self.components())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn construction_and_access() {
        let item = Item::new(vec![n(1), n(2), n(3)]);
        assert_eq!(item.arity(), 3);
        assert_eq!(item.component(1), n(2));
        assert_eq!(item[2], n(3));
        assert_eq!(item.components(), &[n(1), n(2), n(3)]);
    }

    #[test]
    fn with_component_replaces_one_position() {
        let item = Item::new(vec![n(1), n(2)]);
        let other = item.with_component(0, n(9));
        assert_eq!(other.components(), &[n(9), n(2)]);
        assert_eq!(item.components(), &[n(1), n(2)], "original untouched");
    }

    #[test]
    fn select_components_projects_and_reorders() {
        let item = Item::new(vec![n(1), n(2), n(3)]);
        assert_eq!(item.select_components(&[2, 0]).components(), &[n(3), n(1)]);
        assert_eq!(item.select_components(&[]).arity(), 0);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Item::new(vec![n(1), n(5)]) < Item::new(vec![n(2), n(0)]));
        assert!(Item::new(vec![n(1), n(1)]) < Item::new(vec![n(1), n(2)]));
        assert_eq!(Item::new(vec![n(1)]), Item::from(vec![n(1)]));
    }

    #[test]
    fn wide_items_behave_like_narrow_ones() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |item: &Item| {
            let mut h = DefaultHasher::new();
            item.hash(&mut h);
            h.finish()
        };
        // One past the in-place capacity, and at it.
        let wide = Item::new((1..=INLINE + 1).map(n).collect());
        let full = Item::new((1..=INLINE).map(n).collect());
        assert_eq!(wide.arity(), INLINE + 1);
        assert_eq!(wide.select_components(&[0, 1, 2, 3]), full);
        assert_eq!(hash(&wide.select_components(&[0, 1, 2, 3])), hash(&full));
        assert!(full < wide, "a prefix sorts first");
        assert!(wide < full.with_component(0, n(2)));
        assert_eq!(wide.with_component(INLINE, n(9))[INLINE], n(9));
        assert_eq!(wide.clone().into_components().len(), INLINE + 1);
        assert_eq!(format!("{:?}", Item::new(vec![n(1), n(2)])), "Item[n1, n2]");
        assert!(std::mem::size_of::<Item>() <= std::mem::size_of::<Vec<NodeId>>());
    }

    #[test]
    fn try_from_fn_builds_either_layout_and_stops_at_an_error() {
        for arity in [0, 2, INLINE, INLINE + 1] {
            let built = Item::try_from_fn(arity, |i| Ok::<_, ()>(n(i + 1))).unwrap();
            assert_eq!(built, Item::new((1..=arity).map(n).collect()));
        }
        let mut called = 0;
        let failed = Item::try_from_fn(3, |i| {
            called += 1;
            if i == 1 {
                Err(i)
            } else {
                Ok(n(i))
            }
        });
        assert_eq!((failed, called), (Err(1), 2));
    }

    #[test]
    fn round_trip_into_components() {
        let item = Item::new(vec![n(4), n(7)]);
        assert_eq!(item.clone().into_components(), vec![n(4), n(7)]);
        assert_eq!(item.as_ref(), &[n(4), n(7)]);
    }
}
