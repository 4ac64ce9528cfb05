//! Thread-local attribution counters.
//!
//! The global metrics registry answers "how much cache traffic did the
//! whole process generate", but a plan node wants to report *its own*
//! closure builds — and under `cargo test` or parallel workers the
//! global counters are polluted by whatever else is running. These
//! slots are per-thread: an operator snapshots them, does its work, and
//! takes the delta, which is deterministic no matter what other threads
//! do.
//!
//! Instrumented code bumps both the registry metric *and* the matching
//! attribution slot; the registry feeds exports, the slots feed trace
//! fields.

use std::cell::Cell;

/// The attribution slots an operator can charge work to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AttribKey {
    /// Closure-memo miss (a reachability closure was built).
    ClosureMiss,
    /// A whole-relation subsumption graph was built.
    SubsumptionBuild,
    /// Storage heap page reads.
    HeapRead,
    /// Storage heap page writes.
    HeapWrite,
}

/// Number of distinct [`AttribKey`] slots.
pub const KEY_COUNT: usize = 4;

/// Every key with its trace-field name, in slot order.
pub const ALL_KEYS: [(AttribKey, &str); KEY_COUNT] = [
    (AttribKey::ClosureMiss, "closure_misses"),
    (AttribKey::SubsumptionBuild, "subsumption_builds"),
    (AttribKey::HeapRead, "heap_reads"),
    (AttribKey::HeapWrite, "heap_writes"),
];

impl AttribKey {
    fn slot(self) -> usize {
        match self {
            AttribKey::ClosureMiss => 0,
            AttribKey::SubsumptionBuild => 1,
            AttribKey::HeapRead => 2,
            AttribKey::HeapWrite => 3,
        }
    }
}

thread_local! {
    static SLOTS: Cell<[u64; KEY_COUNT]> = const { Cell::new([0; KEY_COUNT]) };
}

/// Add `n` to this thread's slot for `key`.
#[inline]
pub fn add(key: AttribKey, n: u64) {
    SLOTS.with(|s| {
        let mut v = s.get();
        v[key.slot()] += n;
        s.set(v);
    });
}

/// Increment this thread's slot for `key` by one.
#[inline]
pub fn bump(key: AttribKey) {
    add(key, 1);
}

/// A point-in-time copy of this thread's slots; subtract two to
/// attribute the work done in between.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AttribSnapshot([u64; KEY_COUNT]);

impl AttribSnapshot {
    /// Value of one slot.
    pub fn get(&self, key: AttribKey) -> u64 {
        self.0[key.slot()]
    }

    /// Slot-wise `self - earlier` (saturating).
    pub fn since(&self, earlier: &AttribSnapshot) -> AttribSnapshot {
        let mut out = [0u64; KEY_COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].saturating_sub(earlier.0[i]);
        }
        AttribSnapshot(out)
    }

    /// True when every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

/// Copy this thread's current slots.
pub fn snapshot() -> AttribSnapshot {
    AttribSnapshot(SLOTS.with(|s| s.get()))
}

/// Delta of this thread's slots since `earlier`.
pub fn since(earlier: &AttribSnapshot) -> AttribSnapshot {
    snapshot().since(earlier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_attribute_per_thread() {
        let before = snapshot();
        bump(AttribKey::ClosureMiss);
        add(AttribKey::HeapRead, 3);
        let delta = since(&before);
        assert_eq!(delta.get(AttribKey::ClosureMiss), 1);
        assert_eq!(delta.get(AttribKey::HeapRead), 3);
        assert_eq!(delta.get(AttribKey::SubsumptionBuild), 0);
        assert!(!delta.is_zero());

        // Another thread's bumps never show up in this thread's delta.
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| {
                bump(AttribKey::ClosureMiss);
                assert_eq!(snapshot().get(AttribKey::ClosureMiss), 1);
            });
        });
        assert!(since(&before).is_zero());
    }

    #[test]
    fn all_keys_cover_every_slot() {
        let mut seen = [false; KEY_COUNT];
        for (k, _) in ALL_KEYS {
            seen[k.slot()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
