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
//! Every node keeps the [`Head`] of each of its keys in a fixed array
//! beside them (B-tree "poor man's normalized keys", Graefe, *Modern
//! B-Tree Techniques*, 2011): a search compares `u64`s and compares
//! whole keys only where a head ties with the one it looks for.
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
//! * The `i`-th head of a node is the [`Head`] of its `i`-th key (entry
//!   or separator).
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
use std::cmp::Ordering;
use std::sync::Arc;

/// Maximum entries per leaf and children per branch. A constant, not a
/// setting; DESIGN.md §10.5 has the measurement behind the value.
pub const FANOUT: usize = 16;

/// An order-preserving `u64` prefix of a key: what a [`PMap`] node
/// compares before it compares keys.
///
/// Every implementation keeps this contract:
///
/// * `a < b` implies `a.head() <= b.head()`, so equal keys have equal
///   heads;
/// * a borrowed form has its owner's head: if `K: Borrow<Q>`, then
///   `k.head() == k.borrow().head()` (`Arc<str>` and `str` agree).
///
/// A search skips every key whose head is below the sought one's and
/// stops at the first whose head is above it; only keys with an equal
/// head are compared whole. A head that tells more keys apart spares
/// more comparisons; a coarse one (even a constant) is still correct.
pub trait Head {
    /// This key's head.
    fn head(&self) -> u64;
}

impl Head for u32 {
    #[inline]
    fn head(&self) -> u64 {
        u64::from(*self)
    }
}

/// The first 8 bytes, big-endian, zero-padded: `str` orders by bytes,
/// and a string shorter than 8 bytes pads with the least byte.
impl Head for str {
    #[inline]
    fn head(&self) -> u64 {
        let bytes = self.as_bytes();
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        u64::from_be_bytes(prefix)
    }
}

impl Head for Arc<str> {
    #[inline]
    fn head(&self) -> u64 {
        (**self).head()
    }
}

/// A node's sorted keys — a leaf's entries or a branch's separators —
/// with the [`Head`] of each: `heads[i]` belongs to `items[i]`. The heads
/// are an array inside the node, so a node copy is still one `Vec` copy;
/// every edit of `items` goes through a method that edits `heads` with it.
struct Run<T> {
    heads: [u64; FANOUT],
    items: Vec<T>,
}

impl<T> Run<T> {
    /// A run that allocates nothing until it is given an item.
    fn empty() -> Run<T> {
        Run {
            heads: [0; FANOUT],
            items: Vec::new(),
        }
    }

    /// Up to [`FANOUT`] items in ascending key order, with room for a
    /// full node.
    fn new(items: impl Iterator<Item = T>, head: impl Fn(&T) -> u64) -> Run<T> {
        let mut run = Run {
            heads: [0; FANOUT],
            items: Vec::with_capacity(FANOUT),
        };
        for item in items {
            run.push(head(&item), item);
        }
        run
    }

    /// The heads of the items, in order.
    fn heads(&self) -> &[u64] {
        &self.heads[..self.items.len()]
    }

    /// Where the item whose key has head `head` is (`Ok`) or belongs
    /// (`Err`); `cmp` orders an item's key against the key sought.
    ///
    /// Heads ascend with the keys, so every item whose head is below
    /// `head` is below the key: counting them is a branch-free pass over
    /// one contiguous array of at most [`FANOUT`] `u64`s. Whole keys are
    /// compared only from there on, while the heads tie.
    #[inline]
    fn search(&self, head: u64, mut cmp: impl FnMut(&T) -> Ordering) -> Result<usize, usize> {
        let heads = self.heads();
        let mut i = heads.iter().filter(|&&h| h < head).count();
        while heads.get(i) == Some(&head) {
            match cmp(&self.items[i]) {
                Ordering::Less => i += 1,
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
            }
        }
        Err(i)
    }

    fn push(&mut self, head: u64, item: T) {
        self.heads[self.items.len()] = head;
        self.items.push(item);
    }

    fn insert(&mut self, i: usize, head: u64, item: T) {
        self.heads.copy_within(i..self.items.len(), i + 1);
        self.heads[i] = head;
        self.items.insert(i, item);
    }

    fn remove(&mut self, i: usize) -> T {
        self.heads.copy_within(i + 1..self.items.len(), i);
        self.items.remove(i)
    }

    fn pop(&mut self) -> Option<T> {
        self.items.pop()
    }

    /// Move the items from `at` on, with their heads, into a new run.
    fn split_off(&mut self, at: usize) -> Run<T> {
        let mut right = Run {
            heads: [0; FANOUT],
            items: roomy(self.items.drain(at..)),
        };
        let moved = right.items.len();
        right.heads[..moved].copy_from_slice(&self.heads[at..at + moved]);
        right
    }
}

impl<K, V> Run<(K, V)> {
    /// The value of the `i`-th entry; its key, and so its head, stays.
    fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.items[i].1
    }
}

/// Reads see the items as a slice; only the methods above edit them.
impl<T> std::ops::Deref for Run<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T: Clone> Clone for Run<T> {
    fn clone(&self) -> Run<T> {
        Run {
            heads: self.heads,
            items: roomy(self.items.iter().cloned()),
        }
    }
}

enum Node<K, V> {
    Leaf(Run<(K, V)>),
    Branch {
        keys: Run<K>,
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
    /// node): entries and heads are copied, children are `Arc` bumps.
    fn clone(&self) -> Node<K, V> {
        match self {
            Node::Leaf(entries) => Node::Leaf(entries.clone()),
            Node::Branch { keys, children } => Node::Branch {
                keys: keys.clone(),
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
            root: Arc::new(Node::Leaf(Run::empty())),
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

    /// Nodes on a path from this one down to a leaf (1 for a leaf).
    fn height(&self) -> usize {
        let mut height = 1;
        let mut node = self;
        while let Node::Branch { children, .. } = node {
            height += 1;
            node = &children[0];
        }
        height
    }

    /// The least key under this node, which is not empty.
    fn first_key(&self) -> &K {
        match self {
            Node::Leaf(entries) => &entries[0].0,
            Node::Branch { children, .. } => children[0].first_key(),
        }
    }

    fn is_full(&self) -> bool {
        match self {
            Node::Leaf(entries) => entries.len() == FANOUT,
            Node::Branch { children, .. } => children.len() == FANOUT,
        }
    }

    /// Which child of a branch with these separators holds `key`, whose
    /// head is `head`: the child before the first separator above `key`.
    fn child_index<Q>(keys: &Run<K>, head: u64, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // A separator equal to `key` bounds the child after it from below.
        match keys.search(head, |k| k.borrow().cmp(key)) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Where `key`, whose head is `head`, is (`Ok`) or belongs (`Err`) in
    /// a leaf. Like `child_index` a linear scan of the heads
    /// ([`Run::search`]): a node is at most [`FANOUT`] keys, and a
    /// predictable pass over one array beats a binary search's chain of
    /// dependent, unpredictable loads — measured on the replay path,
    /// binary search over whole keys was 40 % slower per record.
    fn position<Q>(entries: &Run<(K, V)>, head: u64, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        entries.search(head, |(k, _)| k.borrow().cmp(key))
    }
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    /// Move the upper half of this full node into a new right sibling;
    /// returns it with the separator the parent files it under.
    fn split(&mut self) -> (K, Arc<Self>) {
        debug_assert!(self.is_full());
        match self {
            Node::Leaf(entries) => {
                let right = entries.split_off(FANOUT / 2);
                (right[0].0.clone(), Arc::new(Node::Leaf(right)))
            }
            Node::Branch { keys, children } => {
                let right = Node::Branch {
                    children: roomy(children.drain(FANOUT / 2..)),
                    keys: keys.split_off(FANOUT / 2),
                };
                let up = keys.pop().expect("a full branch has separators");
                (up, Arc::new(right))
            }
        }
    }

    /// Remove `key` (whose head is `head`) below `node`, copying the
    /// path, and prune the child it emptied, if any.
    fn remove<Q>(node: &mut Arc<Self>, head: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match Arc::make_mut(node) {
            Node::Leaf(entries) => {
                let i = Self::position(entries, head, key).ok()?;
                Some(entries.remove(i).1)
            }
            Node::Branch { keys, children } => {
                let i = Self::child_index(keys, head, key);
                let value = Self::remove(&mut children[i], head, key)?;
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
        Q: Ord + Head + ?Sized,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// The stored key equal to `key`, and its value.
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + Head + ?Sized,
    {
        let head = key.head();
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return Node::position(entries, head, key).ok().map(|i| {
                        let (k, v) = &entries[i];
                        (k, v)
                    })
                }
                Node::Branch { keys, children } => {
                    node = &*children[Node::<K, V>::child_index(keys, head, key)]
                }
            }
        }
    }

    /// Is an entry stored for `key`?
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + Head + ?Sized,
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

    /// Every key whose entry differs between `before` and `after`,
    /// reported to `f` in ascending order with its value on each side
    /// (`None` on the side that does not store it). Entries stored on
    /// both sides with equal values are not reported.
    ///
    /// The walk costs what the two trees do not share: a subtree both
    /// hold (`Arc::ptr_eq`) is skipped whole, so two versions of one
    /// map — a published snapshot and the write that edited a clone of
    /// it — are compared along the paths the write copied. Two branches
    /// are compared child by child while their children stay in step
    /// (each pair shared, or under the same two separators), two leaves
    /// merged entry by entry in place; where a split or a collapse
    /// changed the shape, the rest is opened level by level, still
    /// skipping what the two share. Two maps that share nothing cost
    /// one linear merge.
    pub fn diff<'a>(
        before: &'a PMap<K, V>,
        after: &'a PMap<K, V>,
        mut f: impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
    ) where
        K: Ord,
        V: PartialEq,
    {
        Node::diff(&before.root, &after.root, &mut f);
    }

    /// Nodes on a root-to-leaf path (1 for a map that fits one leaf):
    /// the most nodes one edit can copy.
    pub fn depth(&self) -> usize {
        self.root.height()
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
        K: Ord + Head,
    {
        /// Checks the subtree, whose keys must lie in `[low, high)`;
        /// returns its entry count and its height.
        fn check<K: Ord + Head, V>(
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
                    assert!(
                        entries
                            .iter()
                            .map(|(k, _)| k.head())
                            .eq(entries.heads().iter().copied()),
                        "a leaf head out of step with its key"
                    );
                    assert!(entries
                        .iter()
                        .all(|(k, _)| low.is_none_or(|l| l <= k) && high.is_none_or(|h| k < h)));
                    (entries.len(), 1)
                }
                Node::Branch { keys, children } => {
                    assert!(children.len() <= FANOUT, "overfull branch");
                    assert!(!children.is_empty(), "empty branch");
                    assert_eq!(keys.len(), children.len() - 1);
                    assert!(
                        keys.iter().map(K::head).eq(keys.heads().iter().copied()),
                        "a branch head out of step with its separator"
                    );
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

impl<K: Ord + Clone + Head, V: Clone> PMap<K, V> {
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
                keys: Run::new([separator].into_iter(), K::head),
                children: roomy([left, right].into_iter()),
            });
        }
        let head = key.head();
        let mut node = &mut self.root;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    return match Node::position(entries, head, &key) {
                        Ok(i) => Some(std::mem::replace(entries.value_mut(i), value)),
                        Err(i) => {
                            debug_assert!(
                                entries.len() < FANOUT,
                                "full nodes split on the way down"
                            );
                            entries.insert(i, head, (key, value));
                            self.len += 1;
                            None
                        }
                    }
                }
                Node::Branch { keys, children } => {
                    let mut i = Node::<K, V>::child_index(keys, head, &key);
                    if children[i].is_full() {
                        let (separator, right) = Arc::make_mut(&mut children[i]).split();
                        let goes_right = key >= separator;
                        keys.insert(i, separator.head(), separator);
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
        Q: Ord + Head + ?Sized,
    {
        let value = Node::remove(&mut self.root, key.head(), key)?;
        self.len -= 1;
        // A root left with one child hands the tree to it.
        while let Node::Branch { children, .. } = &*self.root {
            match children.len() {
                0 => self.root = Arc::new(Node::Leaf(Run::empty())),
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
        Q: Ord + Head + ?Sized,
    {
        let head = key.head();
        let mut node = &mut self.root;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    let i = Node::position(entries, head, key).ok()?;
                    return Some(entries.value_mut(i));
                }
                Node::Branch { keys, children } => {
                    node = &mut children[Node::<K, V>::child_index(keys, head, key)];
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
impl<K: Ord + Clone + Head, V> FromIterator<(K, V)> for PMap<K, V> {
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
        while entries.len() > 0 {
            let leaf = Run::new(entries.by_ref().take(FANOUT), |(k, _)| k.head());
            level.push((leaf[0].0.clone(), Arc::new(Node::Leaf(leaf))));
        }
        while level.len() > 1 {
            let mut parents = Vec::with_capacity(level.len().div_ceil(FANOUT));
            let mut nodes = level.into_iter();
            while let Some((least, first)) = nodes.next() {
                let mut children = vec![first];
                let mut keys = Run::empty();
                for (key, child) in nodes.by_ref().take(FANOUT - 1) {
                    keys.push(key.head(), key);
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

impl<K: Ord, V: PartialEq> Node<K, V> {
    /// [`PMap::diff`] of two subtrees that each hold every key their map
    /// has in one range.
    fn diff<'a>(
        old: &'a Arc<Self>,
        new: &'a Arc<Self>,
        f: &mut impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
    ) {
        if Arc::ptr_eq(old, new) {
            return;
        }
        match (&**old, &**new) {
            (Node::Leaf(a), Node::Leaf(b)) => {
                let (mut a, mut b) = (&a[..], &b[..]);
                merge_leaves(&mut a, &mut b, f);
                a.iter().for_each(|(k, v)| f(k, Some(v), None));
                b.iter().for_each(|(k, v)| f(k, None, Some(v)));
            }
            (
                Node::Branch {
                    keys: a,
                    children: x,
                },
                Node::Branch {
                    keys: b,
                    children: y,
                },
            ) => {
                // Children in step: a shared pair is skipped, and a pair
                // under the same two separators holds the same range.
                // From the first pair that is neither, the rest of both
                // levels is merged.
                let paired = x.len().min(y.len());
                for i in 0..paired {
                    if Arc::ptr_eq(&x[i], &y[i]) {
                        continue;
                    }
                    if a.get(i) != b.get(i) || (i > 0 && a[i - 1] != b[i - 1]) {
                        return merge_subtrees(&x[i..], &y[i..], f);
                    }
                    Self::diff(&x[i], &y[i], f);
                }
                if x.len() != y.len() {
                    merge_subtrees(&x[paired..], &y[paired..], f);
                }
            }
            _ => merge_subtrees(std::slice::from_ref(old), std::slice::from_ref(new), f),
        }
    }
}

/// [`PMap::diff`] of two runs of sibling subtrees whose shapes differ:
/// one cursor on each side, each step skipping a shared subtree,
/// opening a subtree, or reporting the lesser entry.
fn merge_subtrees<'a, K: Ord, V: PartialEq>(
    old: &'a [Arc<Node<K, V>>],
    new: &'a [Arc<Node<K, V>>],
    f: &mut impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
) {
    use std::cmp::Ordering::{Greater, Less};
    let (mut old, mut new) = (Cursor::new(old), Cursor::new(new));
    loop {
        match (old.front(), new.front()) {
            (None, None) => return,
            (Some(Front::Node(x, _)), Some(Front::Node(y, _))) if Arc::ptr_eq(x, y) => {
                old.skip();
                new.skip();
            }
            (Some(Front::Entry(..)), Some(Front::Entry(..))) => {
                merge_leaves(old.leaf(), new.leaf(), f)
            }
            // Opening a subtree is always sound; opening the taller (or
            // both, at one height) lines the two sides up on shared
            // nodes again.
            (Some(Front::Node(_, a)), Some(Front::Node(_, b))) => match a.cmp(&b) {
                Greater => old.open(),
                Less => new.open(),
                _ => {
                    old.open();
                    new.open();
                }
            },
            // An entry against a subtree: the entry goes first if it is
            // below the subtree's least key; otherwise the subtree opens.
            (Some(Front::Entry(key, value)), Some(Front::Node(node, _))) => {
                if key < node.first_key() {
                    f(key, Some(value), None);
                    old.skip();
                } else {
                    new.open();
                }
            }
            (Some(Front::Node(node, _)), Some(Front::Entry(key, value))) => {
                if key < node.first_key() {
                    f(key, None, Some(value));
                    new.skip();
                } else {
                    old.open();
                }
            }
            (Some(_), None) => old.take(|k, v| f(k, Some(v), None)),
            (None, Some(_)) => new.take(|k, v| f(k, None, Some(v))),
        }
    }
}

/// One side of a [`merge_subtrees`]: the part of its subtrees not yet
/// visited, as one run of siblings per level opened so far, the deepest
/// last.
struct Cursor<'a, K, V> {
    levels: Vec<Level<'a, K, V>>,
}

/// The siblings still to visit on one level.
enum Level<'a, K, V> {
    /// Subtrees of this height (1 for leaves).
    Nodes(usize, &'a [Arc<Node<K, V>>]),
    Entries(&'a [(K, V)]),
}

/// What a [`Cursor`] visits next: a subtree (with its height) or an
/// entry.
enum Front<'a, K, V> {
    Node(&'a Arc<Node<K, V>>, usize),
    Entry(&'a K, &'a V),
}

impl<'a, K, V> Cursor<'a, K, V> {
    /// A cursor over `nodes`, siblings of one height; the root leaf of
    /// an empty map counts as none.
    fn new(nodes: &'a [Arc<Node<K, V>>]) -> Cursor<'a, K, V> {
        let mut levels = Vec::new();
        if let Some(first) = nodes.first().filter(|node| !node.is_empty()) {
            let height = first.height();
            levels.reserve_exact(height + 1);
            levels.push(Level::Nodes(height, nodes));
        }
        Cursor { levels }
    }

    /// The next subtree or entry, dropping the levels used up.
    fn front(&mut self) -> Option<Front<'a, K, V>> {
        loop {
            match *self.levels.last()? {
                Level::Nodes(height, nodes) => {
                    if let Some(node) = nodes.first() {
                        return Some(Front::Node(node, height));
                    }
                }
                Level::Entries(entries) => {
                    if let Some((key, value)) = entries.first() {
                        return Some(Front::Entry(key, value));
                    }
                }
            }
            self.levels.pop();
        }
    }

    /// Step over the front, unvisited: a subtree the other side shares,
    /// or an entry reported already.
    fn skip(&mut self) {
        match self.levels.last_mut() {
            Some(Level::Nodes(_, nodes)) => *nodes = &nodes[1..],
            Some(Level::Entries(entries)) => *entries = &entries[1..],
            None => {}
        }
    }

    /// Replace the front subtree by its children (or its entries).
    fn open(&mut self) {
        let Some(Front::Node(node, height)) = self.front() else {
            unreachable!("only a subtree is opened")
        };
        self.skip();
        self.levels.push(match &**node {
            Node::Leaf(entries) => Level::Entries(entries),
            Node::Branch { children, .. } => Level::Nodes(height - 1, children),
        });
    }

    /// The other side is used up: report the front if it is an entry,
    /// open it if it is a subtree.
    fn take(&mut self, report: impl FnOnce(&'a K, &'a V)) {
        match self.front() {
            Some(Front::Entry(key, value)) => {
                report(key, value);
                self.skip();
            }
            Some(Front::Node(..)) => self.open(),
            None => {}
        }
    }

    /// The run of entries the front is the first of.
    fn leaf(&mut self) -> &mut &'a [(K, V)] {
        match self.levels.last_mut() {
            Some(Level::Entries(entries)) => entries,
            _ => unreachable!("the front is an entry"),
        }
    }
}

/// Merge two runs of leaf entries until either is used up, reporting
/// every key whose entry differs: the step of a [`PMap::diff`] that
/// meets two leaves, without allocating.
fn merge_leaves<'a, K: Ord, V: PartialEq>(
    old: &mut &'a [(K, V)],
    new: &mut &'a [(K, V)],
    f: &mut impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
) {
    use std::cmp::Ordering::{Equal, Greater, Less};
    while let ([(a, va), ..], [(b, vb), ..]) = (*old, *new) {
        match a.cmp(b) {
            Less => {
                f(a, Some(va), None);
                *old = &old[1..];
            }
            Greater => {
                f(b, None, Some(vb));
                *new = &new[1..];
            }
            Equal => {
                if va != vb {
                    f(a, Some(va), Some(vb));
                }
                *old = &old[1..];
                *new = &new[1..];
            }
        }
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
