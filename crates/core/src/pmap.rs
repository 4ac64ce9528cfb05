//! A persistent ordered map: the one structurally shared container
//! under [`HRelation`](crate::relation::HRelation)'s tuples and
//! [`Catalog`](crate::catalog::Catalog)'s name maps.
//!
//! §3.1 makes the single-tuple update the unit of change, and the
//! engine publishes every write as a fresh immutable snapshot. With a
//! `BTreeMap` underneath, "fresh" meant copying every stored tuple of
//! the written relation and every name in the catalog per write.
//! [`PMap`] is a B+-tree whose nodes are held through [`Arc`]:
//!
//! * `clone` is one `Arc` bump — two maps then share every node;
//! * `insert`/`remove`/`get_mut` walk one root-to-leaf path through
//!   [`Arc::make_mut`]: a node only this map holds is edited in place
//!   (recovery, operator outputs), a node a clone still shares is copied
//!   first — at most [`PMap::depth`] nodes per edit, the rest stay
//!   shared;
//! * an edit descends once, copying as it goes, so looking for a key
//!   that turns out to be absent (`remove`, `get_mut`) may leave copied,
//!   unchanged nodes behind — harmless, and confined to refused writes.
//!   A caller that wants "no change, no copy" asks [`PMap::get`] first,
//!   as `HRelation::assert_item` does for an identical re-assertion.
//!
//! # Invariants
//!
//! * Entries live only in leaves, each leaf a sorted `Vec<(K, V)>` of at
//!   most [`FANOUT`] entries, so iteration is a run of contiguous slice
//!   scans.
//! * A branch holds `children.len() - 1` separator keys; `keys[i]` is
//!   greater than every key under `children[i]` and not greater than any
//!   key under `children[i + 1]`. A separator is a *bound*, not
//!   necessarily a stored key.
//! * No node other than the root leaf of an empty map is empty.
//!
//! There is deliberately **no** minimum fill: `remove` never merges or
//! rebalances, it only prunes a node that became empty (and collapses a
//! root left with one child). That is safe because shape is
//! unobservable — the only thing a caller can see is [`PMap::iter`]'s
//! order, which must and does equal `BTreeMap`'s — and because depth
//! grows only when a *full* root splits, so it stays logarithmic in the
//! largest size the map ever had.

use std::borrow::Borrow;
use std::sync::Arc;

/// Maximum entries per leaf and children per branch. A constant, not a
/// setting; DESIGN.md §10.5 has the measurement behind the value.
pub const FANOUT: usize = 16;

enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    Branch {
        keys: Vec<K>,
        children: Vec<Arc<Node<K, V>>>,
    },
}

/// Collect into a vector with room for a full node, so the edits a
/// node is copied or split for never reallocate it.
fn roomy<T>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut node = Vec::with_capacity(FANOUT);
    node.extend(items);
    node
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    /// The copy half of copy-on-write ([`Arc::make_mut`] on a shared
    /// node): entries are cloned, children are `Arc` bumps.
    fn clone(&self) -> Node<K, V> {
        match self {
            Node::Leaf(entries) => Node::Leaf(roomy(entries.iter().cloned())),
            Node::Branch { keys, children } => Node::Branch {
                keys: roomy(keys.iter().cloned()),
                children: roomy(children.iter().cloned()),
            },
        }
    }
}

/// A persistent ordered map; see the [module docs](self).
pub struct PMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    /// One `Arc` bump: the clone shares every node with `self`.
    fn clone(&self) -> PMap<K, V> {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> PMap<K, V> {
        PMap {
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
        }
    }
}

impl<K, V> Node<K, V> {
    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf(entries) => entries.is_empty(),
            Node::Branch { children, .. } => children.is_empty(),
        }
    }

    fn is_full(&self) -> bool {
        match self {
            Node::Leaf(entries) => entries.len() == FANOUT,
            Node::Branch { children, .. } => children.len() == FANOUT,
        }
    }

    /// Which child of a branch with these separators holds `key`.
    fn child_index<Q>(keys: &[K], key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        keys.iter()
            .position(|k| k.borrow() > key)
            .unwrap_or(keys.len())
    }

    /// Where `key` is (`Ok`) or belongs (`Err`) in a leaf. Like
    /// `child_index` a linear scan: a node is at most [`FANOUT`] entries,
    /// and a predictable walk over independent loads beats a binary
    /// search's chain of dependent, unpredictable ones — measured on the
    /// replay path, binary search was 40 % slower per record.
    fn position<Q>(entries: &[(K, V)], key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        for (i, (k, _)) in entries.iter().enumerate() {
            match k.borrow().cmp(key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(i),
                std::cmp::Ordering::Greater => return Err(i),
            }
        }
        Err(entries.len())
    }
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    /// Move the upper half of this full node into a new right sibling;
    /// returns it with the separator the parent files it under.
    fn split(&mut self) -> (K, Arc<Self>) {
        debug_assert!(self.is_full());
        match self {
            Node::Leaf(entries) => {
                let right = roomy(entries.drain(FANOUT / 2..));
                (right[0].0.clone(), Arc::new(Node::Leaf(right)))
            }
            Node::Branch { keys, children } => {
                let right = Node::Branch {
                    children: roomy(children.drain(FANOUT / 2..)),
                    keys: roomy(keys.drain(FANOUT / 2..)),
                };
                let up = keys.pop().expect("a full branch has separators");
                (up, Arc::new(right))
            }
        }
    }

    /// Remove `key` below `node`, copying the path, and prune the child
    /// it emptied, if any.
    fn remove<Q>(node: &mut Arc<Self>, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match Arc::make_mut(node) {
            Node::Leaf(entries) => {
                let i = Self::position(entries, key).ok()?;
                Some(entries.remove(i).1)
            }
            Node::Branch { keys, children } => {
                let i = Self::child_index(keys, key);
                let value = Self::remove(&mut children[i], key)?;
                if children[i].is_empty() {
                    children.remove(i);
                    // Either neighbouring separator bounds what is left.
                    if !keys.is_empty() {
                        keys.remove(i.saturating_sub(1));
                    }
                }
                Some(value)
            }
        }
    }
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> PMap<K, V> {
        PMap::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return Node::position(entries, key).ok().map(|i| &entries[i].1)
                }
                Node::Branch { keys, children } => {
                    node = &*children[Node::<K, V>::child_index(keys, key)]
                }
            }
        }
    }

    /// Is an entry stored for `key`?
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Entries in ascending key order — the order a `BTreeMap` with the
    /// same contents iterates in.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter {
            stack: Vec::new(),
            leaf: [].iter(),
        };
        iter.descend(&self.root);
        iter
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Do the two maps share their root node — are they the same tree,
    /// not merely equal? True for a clone until either side is edited.
    pub fn ptr_eq(&self, other: &PMap<K, V>) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Nodes on a root-to-leaf path (1 for a map that fits one leaf):
    /// the most nodes one edit can copy.
    pub fn depth(&self) -> usize {
        let mut depth = 1;
        let mut node = &*self.root;
        while let Node::Branch { children, .. } = node {
            depth += 1;
            node = &children[0];
        }
        depth
    }

    /// How many of this map's nodes `other` does not hold too — what an
    /// edit history since a common clone has copied or created. A
    /// diagnostic for the sharing tests; it walks both trees.
    pub fn nodes_not_shared_with(&self, other: &PMap<K, V>) -> usize {
        fn walk<K, V>(node: &Arc<Node<K, V>>, visit: &mut impl FnMut(*const Node<K, V>)) {
            visit(Arc::as_ptr(node));
            if let Node::Branch { children, .. } = &**node {
                children.iter().for_each(|c| walk(c, visit));
            }
        }
        let mut theirs = std::collections::HashSet::new();
        walk(&other.root, &mut |p| {
            theirs.insert(p);
        });
        let mut unshared = 0;
        walk(&self.root, &mut |p| {
            unshared += usize::from(!theirs.contains(&p))
        });
        unshared
    }

    /// Panic unless every invariant in the [module docs](self) holds. A
    /// diagnostic for the model tests; it walks the whole tree.
    pub fn check_invariants(&self)
    where
        K: Ord,
    {
        /// Checks the subtree, whose keys must lie in `[low, high)`;
        /// returns its entry count and its height.
        fn check<K: Ord, V>(
            node: &Node<K, V>,
            low: Option<&K>,
            high: Option<&K>,
            is_root: bool,
        ) -> (usize, usize) {
            match node {
                Node::Leaf(entries) => {
                    assert!(entries.len() <= FANOUT, "overfull leaf");
                    assert!(is_root || !entries.is_empty(), "empty leaf below the root");
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted leaf");
                    assert!(entries
                        .iter()
                        .all(|(k, _)| low.is_none_or(|l| l <= k) && high.is_none_or(|h| k < h)));
                    (entries.len(), 1)
                }
                Node::Branch { keys, children } => {
                    assert!(children.len() <= FANOUT, "overfull branch");
                    assert!(!children.is_empty(), "empty branch");
                    assert_eq!(keys.len(), children.len() - 1);
                    let mut entries = 0;
                    let mut height = None;
                    for (i, child) in children.iter().enumerate() {
                        let low = if i == 0 { low } else { Some(&keys[i - 1]) };
                        let high = keys.get(i).or(high);
                        let (n, h) = check(child, low, high, false);
                        entries += n;
                        assert_eq!(*height.get_or_insert(h), h, "leaves at different depths");
                    }
                    (entries, 1 + height.expect("a branch has a child"))
                }
            }
        }
        let (entries, height) = check(&self.root, None, None, true);
        assert_eq!(entries, self.len, "len out of step with the leaves");
        assert_eq!(height, self.depth());
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Insert or overwrite; returns the value previously stored.
    ///
    /// One pass down: a full node met on the way is split before it is
    /// entered, so the leaf reached always has room and nothing needs
    /// to propagate back up.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.root.is_full() {
            let (separator, right) = Arc::make_mut(&mut self.root).split();
            let left = self.root.clone();
            self.root = Arc::new(Node::Branch {
                keys: roomy([separator].into_iter()),
                children: roomy([left, right].into_iter()),
            });
        }
        let mut node = &mut self.root;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    return match Node::position(entries, &key) {
                        Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
                        Err(i) => {
                            debug_assert!(
                                entries.len() < FANOUT,
                                "full nodes split on the way down"
                            );
                            entries.insert(i, (key, value));
                            self.len += 1;
                            None
                        }
                    }
                }
                Node::Branch { keys, children } => {
                    let mut i = Node::<K, V>::child_index(keys, &key);
                    if children[i].is_full() {
                        let (separator, right) = Arc::make_mut(&mut children[i]).split();
                        let goes_right = key >= separator;
                        keys.insert(i, separator);
                        children.insert(i + 1, right);
                        i += usize::from(goes_right);
                    }
                    node = &mut children[i];
                }
            }
        }
    }

    /// Remove the entry for `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let value = Node::remove(&mut self.root, key)?;
        self.len -= 1;
        // A root left with one child hands the tree to it.
        while let Node::Branch { children, .. } = &*self.root {
            match children.len() {
                0 => self.root = Arc::new(Node::Leaf(Vec::new())),
                1 => self.root = children[0].clone(),
                _ => break,
            }
        }
        Some(value)
    }

    /// Mutable access to the value stored for `key`, copying the path
    /// to it if shared.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &mut self.root;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    let i = Node::position(entries, key).ok()?;
                    return Some(&mut entries[i].1);
                }
                Node::Branch { keys, children } => {
                    node = &mut children[Node::<K, V>::child_index(keys, key)];
                }
            }
        }
    }
}

/// Bulk construction in one pass: entries that arrive in strictly
/// ascending key order (an image's tuple list, a `BTreeMap` accumulator
/// drained) are packed straight into full leaves. Anything else is
/// sorted first, a later entry replacing an earlier one with the same
/// key, as `BTreeMap`'s `FromIterator` does.
impl<K: Ord + Clone, V> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> PMap<K, V> {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut unique: Vec<(K, V)> = Vec::with_capacity(entries.len());
            for entry in entries {
                match unique.last_mut() {
                    Some(last) if last.0 == entry.0 => *last = entry,
                    _ => unique.push(entry),
                }
            }
            entries = unique;
        }
        let len = entries.len();
        if len == 0 {
            return PMap::default();
        }
        // One level at a time, each node paired with its least key (the
        // separator its parent files it under).
        let mut level: Vec<(K, Arc<Node<K, V>>)> = Vec::with_capacity(len.div_ceil(FANOUT));
        let mut entries = entries.into_iter();
        loop {
            let leaf: Vec<(K, V)> = entries.by_ref().take(FANOUT).collect();
            if leaf.is_empty() {
                break;
            }
            level.push((leaf[0].0.clone(), Arc::new(Node::Leaf(leaf))));
        }
        while level.len() > 1 {
            let mut parents = Vec::with_capacity(level.len().div_ceil(FANOUT));
            let mut nodes = level.into_iter();
            while let Some((least, first)) = nodes.next() {
                let mut children = vec![first];
                let mut keys = Vec::new();
                for (key, child) in nodes.by_ref().take(FANOUT - 1) {
                    keys.push(key);
                    children.push(child);
                }
                parents.push((least, Arc::new(Node::Branch { keys, children })));
            }
            level = parents;
        }
        let (_, root) = level.pop().expect("a non-empty map has a root");
        PMap { root, len }
    }
}

/// Ascending iterator over a [`PMap`]: a slice iterator over the current
/// leaf plus the branch positions above it.
pub struct Iter<'a, K, V> {
    stack: Vec<std::slice::Iter<'a, Arc<Node<K, V>>>>,
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Walk to the leftmost leaf under `node`.
    fn descend(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Leaf(entries) => {
                    self.leaf = entries.iter();
                    return;
                }
                Node::Branch { children, .. } => {
                    let mut rest = children.iter();
                    node = rest.next().expect("a branch has a child");
                    self.stack.push(rest);
                }
            }
        }
    }

    /// The current leaf is exhausted: move to the next one, if any, and
    /// yield its first entry. Kept out of line so `next` stays a slice
    /// step.
    #[cold]
    fn next_leaf(&mut self) -> Option<(&'a K, &'a V)> {
        let next = loop {
            match self.stack.last_mut()?.next() {
                Some(child) => break child,
                None => self.stack.pop(),
            };
        };
        self.descend(next);
        self.leaf.next().map(|(k, v)| (k, v))
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    #[inline]
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        match self.leaf.next() {
            Some((k, v)) => Some((k, v)),
            None => self.next_leaf(),
        }
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}
