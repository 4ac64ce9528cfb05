//! WAL-fed read replicas.
//!
//! A [`Replica`] is an embedded [`Engine`] kept current by tailing a
//! primary's store directory (`hrdm-persist`'s
//! [`WalTailer`]): each poll of the tailer — a checkpoint image if the
//! primary rolled over, then the committed mutations past what was
//! already shipped — is applied by [`Engine::apply_mutations`] as one
//! write, through the same [`Catalog::apply_mutation`] interpreter the
//! primary's own writes and recovery run. So a replica at shipped LSN
//! *L* renders reads **byte-identically** to the primary at LSN *L*
//! (the replica-parity harness pins this across randomized histories).
//!
//! # What a reader may observe
//!
//! * **An epoch is a batch.** One [`sync`](Replica::sync) drains the
//!   log in write transactions of at most [`SYNC_BATCH`] records and
//!   publishes one epoch per transaction — never one per record, and
//!   never more than that many records held in memory.
//! * **Every published state is the primary's at some LSN** — a prefix
//!   of its committed history, though not every prefix; the last one a
//!   `sync` publishes is the LSN it returns.
//! * **A batch is all or nothing.** If the replica cannot apply a
//!   record, or the log is damaged, `sync` fails, nothing of that batch
//!   is published, and nothing is skipped: the tailer is rewound to
//!   where the batch began, so [`shipped_lsn`](Replica::shipped_lsn)
//!   keeps naming the state the replica serves and the next `sync`
//!   re-reads the same records and fails at the same one. Mid-log
//!   damage is kind `corrupt`; it clears when the primary's next
//!   checkpoint supersedes the generation. A log *tail* cut short is
//!   not a failure — the replica stops before it and resumes when the
//!   rest arrives.
//!
//! Replication is asynchronous and pull-based: call `sync` on whatever
//! cadence fits (a serving loop tick, a timer thread). Reads between
//! syncs serve the replica's epoch-consistent snapshot — stale but
//! internally consistent, and [`ExecutorHandle::execute_read`]'s
//! `min_epoch` floor lets callers demand freshness explicitly.
//!
//! Writes through the [`ExecutorHandle`] surface report kind
//! `"unsupported"`: a replica is read-only by construction (its only
//! writer is the shipping stream).
//!
//! [`Catalog::apply_mutation`]: hrdm_core::prelude::Catalog::apply_mutation

use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hrdm_obs::metrics::{self, Counter, Gauge, Histogram};
use hrdm_persist::ship::{ShipBatch, WalTailer};

use crate::engine::Engine;
use crate::error::HqlError;
use crate::executor::{ExecError, ExecResult, ExecutorHandle};

/// Most mutation records one write transaction of a
/// [`sync`](Replica::sync) applies, and so the most a replica holds
/// decoded at once however long the log it attached to.
pub const SYNC_BATCH: usize = 8192;

struct ReplicaObs {
    /// LSN of the state the replica serves.
    applied_lsn: Gauge,
    /// Records each successful sync applied — how far behind it was.
    sync_records: Histogram,
    /// Syncs that failed applying a batch.
    apply_errors: Counter,
}

fn obs() -> &'static ReplicaObs {
    static M: OnceLock<ReplicaObs> = OnceLock::new();
    M.get_or_init(|| ReplicaObs {
        applied_lsn: metrics::gauge("replica.applied_lsn"),
        sync_records: metrics::histogram("replica.sync_records"),
        apply_errors: metrics::counter("replica.apply_errors"),
    })
}

/// The shipping stream and what the last sync made of it.
struct Feed {
    tailer: WalTailer,
    /// Records the last successful sync applied, and when it finished.
    last_sync: Option<(u64, Instant)>,
}

/// A read-only engine fed by a primary's WAL.
pub struct Replica {
    engine: Engine,
    feed: Mutex<Feed>,
}

impl Replica {
    /// Attach a fresh replica to a primary's store directory. The
    /// directory need not exist yet; the first [`sync`](Replica::sync)
    /// after the primary opens it catches up from the initial
    /// checkpoint.
    pub fn attach(dir: impl AsRef<Path>) -> Replica {
        Replica {
            engine: Engine::new(),
            feed: Mutex::new(Feed {
                tailer: WalTailer::attach(dir.as_ref()),
                last_sync: None,
            }),
        }
    }

    /// The replica's engine — read it like any engine (snapshots, read
    /// views); don't write to it.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Pull everything newly committed on the primary and apply it, a
    /// batch of at most [`SYNC_BATCH`] records per write transaction.
    /// Returns the shipped LSN after the pull (mutations applied since
    /// the primary store was born). On `Err` the replica serves the
    /// last batch that applied whole, and the next call starts again
    /// from there (see the module docs).
    pub fn sync(&self) -> ExecResult<u64> {
        let mut feed = self.feed.lock().expect("feed lock poisoned");
        let tailer = &mut feed.tailer;
        // Every poll of this sync refills the same batch, so a catch-up
        // allocates nothing per record; it is dropped when the sync
        // ends, so a replica keeps no log bytes between syncs.
        let mut batch = ShipBatch::new();
        let mut records = 0u64;
        let outcome = loop {
            let batch_start = tailer.cursor();
            match tailer.poll_into(&mut batch, SYNC_BATCH) {
                Ok(()) if batch.is_empty() => break Ok(()),
                Ok(()) => {}
                Err(e) => break Err(ExecError::from(HqlError::from(e))),
            }
            let base = batch.take_rollover().map(|(_, image)| image);
            let applied = self
                .engine
                .apply_mutations(base, |apply| batch.try_for_each(apply));
            if let Err(e) = applied {
                tailer.rewind(batch_start);
                obs().apply_errors.incr();
                break Err(e.into());
            }
            records += batch.len() as u64;
        };
        let lsn = feed.tailer.shipped_lsn();
        obs().applied_lsn.set(lsn);
        outcome?;
        obs().sync_records.observe(records);
        feed.last_sync = Some((records, Instant::now()));
        Ok(lsn)
    }

    /// LSN of the last shipped event applied (0 before the first sync
    /// observes the store).
    pub fn shipped_lsn(&self) -> u64 {
        let feed = self.feed.lock().expect("feed lock poisoned");
        feed.tailer.shipped_lsn()
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
        let feed = self.feed.lock().expect("feed lock poisoned");
        let (records, ms) = match feed.last_sync {
            Some((records, at)) => (records.to_string(), at.elapsed().as_millis().to_string()),
            None => ("-".into(), "-".into()),
        };
        Ok(format!(
            "epoch: {}\nshipped-lsn: {}\nlast-sync-records: {records}\nms-since-sync: {ms}\nrole: replica",
            self.engine.epoch(),
            feed.tailer.shipped_lsn(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_refuses_writes_and_serves_reads() {
        let replica = Replica::attach(std::env::temp_dir().join("hrdm_replica_never_created"));
        assert!(replica.probe().unwrap().contains("ms-since-sync: -"));
        assert_eq!(replica.sync().unwrap(), 0, "store not born yet");
        let e = replica.execute("CREATE DOMAIN D;").unwrap_err();
        assert_eq!(e.kind(), "unsupported");
        assert_eq!(replica.last_epoch().unwrap(), 0);
        let probe = replica.probe().unwrap();
        assert!(probe.contains("last-sync-records: 0"), "{probe}");
        assert!(probe.ends_with("role: replica"), "{probe}");
    }
}
