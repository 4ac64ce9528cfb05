//! WAL-fed read replicas.
//!
//! A [`Replica`] is an embedded [`Engine`] kept current by tailing a
//! primary's store directory (`hrdm-persist`'s
//! [`WalTailer`]): checkpoint rollovers
//! arrive as whole images and restore the replica wholesale; committed
//! WAL mutations arrive one at a time and are replayed as the
//! equivalent HQL statements through the same write path the primary
//! used — so a replica snapshot at shipped LSN *L* renders reads
//! **byte-identically** to the primary at LSN *L* (the replica-parity
//! harness pins this across randomized histories).
//!
//! Replication is asynchronous and pull-based: call
//! [`sync`](Replica::sync) on whatever cadence fits (a serving loop
//! tick, a timer thread). Reads between syncs serve the replica's
//! epoch-consistent snapshot — stale but internally consistent, and
//! [`ExecutorHandle::execute_read`]'s `min_epoch` floor lets callers
//! demand freshness explicitly.
//!
//! Writes through the [`ExecutorHandle`] surface report kind
//! `"unsupported"`: a replica is read-only by construction (its only
//! writer is the shipping stream).

use std::path::Path;
use std::sync::Mutex;

use hrdm_persist::ship::{ShipEvent, WalTailer};

use crate::engine::Engine;
use crate::error::HqlError;
use crate::executor::{ExecError, ExecResult, ExecutorHandle};

/// A read-only engine fed by a primary's WAL.
pub struct Replica {
    engine: Engine,
    tailer: Mutex<WalTailer>,
}

impl Replica {
    /// Attach a fresh replica to a primary's store directory. The
    /// directory need not exist yet; the first [`sync`](Replica::sync)
    /// after the primary opens it catches up from the initial
    /// checkpoint.
    pub fn attach(dir: impl AsRef<Path>) -> Replica {
        Replica {
            engine: Engine::new(),
            tailer: Mutex::new(WalTailer::attach(dir.as_ref())),
        }
    }

    /// The replica's engine — read it like any engine (snapshots, read
    /// views); don't write to it.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Pull everything newly committed on the primary and apply it.
    /// Returns the shipped LSN after the pull (mutations applied since
    /// the primary store was born).
    pub fn sync(&self) -> ExecResult<u64> {
        let mut tailer = self.tailer.lock().expect("tailer lock poisoned");
        let events = tailer
            .poll()
            .map_err(|e| ExecError::from(HqlError::from(e)))?;
        for event in events {
            match event {
                ShipEvent::Rollover { image, .. } => self.engine.restore(image),
                ShipEvent::Mutation { mutation, .. } => {
                    self.engine.apply_mutation(mutation)?;
                }
            }
        }
        Ok(tailer.shipped_lsn())
    }

    /// LSN of the last shipped event applied (0 before the first sync
    /// observes the store).
    pub fn shipped_lsn(&self) -> u64 {
        self.tailer
            .lock()
            .expect("tailer lock poisoned")
            .shipped_lsn()
    }
}

impl ExecutorHandle for Replica {
    fn execute(&self, _script: &str) -> ExecResult<Vec<String>> {
        Err(ExecError::new(
            "unsupported",
            "replica is read-only; route writes to the primary",
        ))
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        self.engine.execute_read(script, min_epoch)
    }

    fn last_epoch(&self) -> ExecResult<u64> {
        Ok(self.engine.epoch())
    }

    fn probe(&self) -> ExecResult<String> {
        Ok(format!(
            "epoch: {}\nshipped-lsn: {}\nrole: replica",
            self.engine.epoch(),
            self.shipped_lsn()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_refuses_writes_and_serves_reads() {
        let replica = Replica::attach(std::env::temp_dir().join("hrdm_replica_never_created"));
        assert_eq!(replica.sync().unwrap(), 0, "store not born yet");
        let e = replica.execute("CREATE DOMAIN D;").unwrap_err();
        assert_eq!(e.kind(), "unsupported");
        assert_eq!(replica.last_epoch().unwrap(), 0);
        assert!(replica.probe().unwrap().contains("role: replica"));
    }
}
