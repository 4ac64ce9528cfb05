//! [`SpillVec`]: a short list held in place, moved to the heap only
//! when it outgrows its inline capacity.
//!
//! A point read walks an item's binding ancestors and collects the
//! stored tuples among them (§2.1). Both lists are a handful of entries
//! for the hierarchies the paper draws, and a point read is the
//! operation the serving tier answers most, so both are kept on the
//! stack while they fit.

use std::ops::{Deref, DerefMut};

/// A list of `Copy` values holding up to `N` of them in place. The
/// `N + 1`-th push moves the list to the heap, where it stays.
#[derive(Clone, Debug)]
pub struct SpillVec<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone, Debug)]
enum Repr<T: Copy, const N: usize> {
    /// Nothing pushed yet: there is no value to fill the buffer with.
    Empty,
    /// `buf[..len]` are the values; the rest repeats the first one.
    Inline { len: usize, buf: [T; N] },
    /// More than `N` values were pushed.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SpillVec<T, N> {
    /// An empty list; it allocates nothing until its `N + 1`-th push.
    pub const fn new() -> SpillVec<T, N> {
        SpillVec(Repr::Empty)
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Empty if N == 0 => self.0 = Repr::Heap(vec![value]),
            Repr::Empty => {
                self.0 = Repr::Inline {
                    len: 1,
                    buf: [value; N],
                }
            }
            Repr::Inline { len, buf } if *len < N => {
                buf[*len] = value;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(buf);
                heap.push(value);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(value),
        }
    }

    /// Keep the first `len` values (all of them if there are fewer).
    pub fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Empty => {}
            Repr::Inline { len: held, .. } => *held = (*held).min(len),
            Repr::Heap(heap) => heap.truncate(len),
        }
    }

    /// Has the list moved to the heap?
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl<T: Copy, const N: usize> Default for SpillVec<T, N> {
    fn default() -> SpillVec<T, N> {
        SpillVec::new()
    }
}

impl<T: Copy, const N: usize> Deref for SpillVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for SpillVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::Inline { len, buf } => &mut buf[..*len],
            Repr::Heap(heap) => heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_n_in_place_then_spills_and_keeps_order() {
        let mut v: SpillVec<u32, 3> = SpillVec::new();
        assert!(v.is_empty());
        for i in 0..3 {
            v.push(i);
            assert!(!v.spilled());
        }
        assert_eq!(&*v, &[0, 1, 2]);
        v.push(3);
        assert!(v.spilled());
        assert_eq!(&*v, &[0, 1, 2, 3]);
        v[0] = 9;
        v.sort_unstable();
        assert_eq!(&*v, &[1, 2, 3, 9]);
    }

    #[test]
    fn truncate_in_place_and_on_the_heap() {
        let mut v: SpillVec<u32, 2> = SpillVec::new();
        v.truncate(0);
        v.push(1);
        v.push(2);
        v.truncate(1);
        assert_eq!(&*v, &[1]);
        v.truncate(5);
        assert_eq!(&*v, &[1]);
        v.push(2);
        v.push(3);
        v.truncate(2);
        assert_eq!(&*v, &[1, 2]);
        assert!(v.spilled(), "a spilled list stays on the heap");
        let mut none: SpillVec<u32, 0> = SpillVec::default();
        none.push(7);
        assert!(none.spilled());
        assert_eq!(&*none, &[7]);
    }
}
