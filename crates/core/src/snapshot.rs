//! Epoch-stamped snapshot publication for concurrent engines.
//!
//! The serving layer separates *snapshot reads* from *serialized
//! writes*: readers grab an `Arc`-shared, immutable copy of the whole
//! catalog state and evaluate against it without any lock held, while
//! the single writer prepares a fresh copy-on-write state and publishes
//! it atomically. [`SnapshotCell`] is that publication point — a
//! versioned `Arc` slot whose **epoch** counts successful publications,
//! so every state a reader can ever observe is exactly the state after
//! some serial prefix of the write history (the parity invariant the
//! concurrent-session tests assert byte-for-byte).
//!
//! The cell is deliberately tiny: readers pay one `RwLock` read
//! acquisition plus one `Arc` clone (`engine.snapshot_clone` counts
//! them), writers pay one write acquisition; nothing is ever mutated in
//! place, so a reader holding a snapshot can keep using it for as long
//! as it likes while later epochs are published past it.

use std::sync::{Arc, RwLock};

/// A published snapshot: the epoch it was published at plus the shared
/// immutable state.
pub struct Snapshot<T> {
    epoch: u64,
    state: Arc<T>,
}

impl<T> Snapshot<T> {
    /// The epoch this snapshot was published at (number of publications
    /// that happened-before it; the initial state is epoch 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared state.
    pub fn state(&self) -> &Arc<T> {
        &self.state
    }

    /// Consume the snapshot, keeping only the shared state.
    pub fn into_state(self) -> Arc<T> {
        self.state
    }
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Snapshot<T> {
        Snapshot {
            epoch: self.epoch,
            state: self.state.clone(),
        }
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.state
    }
}

/// An epoch-versioned `Arc` slot: many concurrent readers, one
/// publication at a time.
pub struct SnapshotCell<T> {
    slot: RwLock<Snapshot<T>>,
}

fn clone_counter() -> &'static hrdm_obs::metrics::Counter {
    static C: std::sync::OnceLock<hrdm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| hrdm_obs::metrics::counter("engine.snapshot_clone"))
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> SnapshotCell<T> {
        SnapshotCell::new(T::default())
    }
}

impl<T> SnapshotCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: T) -> SnapshotCell<T> {
        SnapshotCell {
            slot: RwLock::new(Snapshot {
                epoch: 0,
                state: Arc::new(initial),
            }),
        }
    }

    /// Grab the current snapshot (epoch + shared state). Costs one
    /// `Arc` clone; the returned snapshot stays valid forever, it just
    /// stops being current once a later epoch is published.
    pub fn load(&self) -> Snapshot<T> {
        let snap = self.slot.read().expect("snapshot slot poisoned").clone();
        clone_counter().incr();
        snap
    }

    /// The current epoch without cloning the state.
    pub fn epoch(&self) -> u64 {
        self.slot.read().expect("snapshot slot poisoned").epoch
    }

    /// Publish `state` as the next epoch and return that epoch.
    ///
    /// Publication is the *only* way the observable state advances, so
    /// callers that serialize their publications (the engine's writer
    /// lock) get a linear history: epoch *n* is exactly the state after
    /// the first *n* writes.
    pub fn publish(&self, state: Arc<T>) -> u64 {
        let mut slot = self.slot.write().expect("snapshot slot poisoned");
        slot.epoch += 1;
        slot.state = state;
        slot.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_count_publications() {
        let cell = SnapshotCell::new(vec![1]);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load().state().as_slice(), [1]);
        assert_eq!(cell.publish(Arc::new(vec![1, 2])), 1);
        assert_eq!(cell.publish(Arc::new(vec![1, 2, 3])), 2);
        assert_eq!(cell.epoch(), 2);
        let snap = cell.load();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn readers_keep_their_snapshot_across_publications() {
        let cell = SnapshotCell::new(String::from("v0"));
        let old = cell.load();
        cell.publish(Arc::new(String::from("v1")));
        assert_eq!(*old.state().as_str(), *"v0", "old snapshot is immutable");
        assert_eq!(*cell.load().state().as_str(), *"v1");
        assert_eq!(old.clone().into_state().as_str(), "v0");
    }

    #[test]
    fn concurrent_readers_see_only_published_prefixes() {
        let cell = Arc::new(SnapshotCell::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let snap = cell.load();
                        // Invariant: the value IS the epoch it was
                        // published at — readers can never observe a
                        // half-written state.
                        assert_eq!(*snap.state().as_ref(), snap.epoch());
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=100u64 {
                    cell.publish(Arc::new(i));
                }
            });
        });
        assert_eq!(cell.epoch(), 100);
    }
}
