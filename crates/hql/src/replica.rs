//! WAL-fed read replicas.
//!
//! A [`Replica`] is an embedded [`Engine`] kept current by tailing a
//! primary's store directory (`hrdm-persist`'s [`WalTailer`]): each
//! delivery of the tailer — a checkpoint image if the primary rolled
//! over, then the mutations past what was already shipped — is applied
//! by [`Engine::apply_mutations`] as one write, through the same
//! [`Catalog::apply_mutation`] interpreter the primary's own writes and
//! recovery run — live views included: a `LET` ships as a record and a
//! base image carries view definitions, so the replica's views follow
//! their sources as the primary's do. So a replica at shipped LSN *L*
//! renders reads **byte-identically** to the primary at LSN *L* (the
//! replica-parity harness pins this across randomized histories). The tailer reads the
//! log inside that write and hands it each record as soon as it is
//! decoded, so a sync holds one decoded record, never a batch of
//! records or of their bytes.
//!
//! # What a reader may observe
//!
//! * **An epoch is a transaction.** One [`sync`](Replica::sync) drains
//!   the log in write transactions of at most [`SYNC_BATCH`] records
//!   and publishes one epoch per transaction — never one per record,
//!   and none when there is nothing new.
//! * **Every published state is the primary's at some LSN** — a prefix
//!   of the history the primary has flushed, though not every prefix; the last
//!   one a `sync` publishes is the LSN it returns.
//! * **A transaction is all or nothing.** If the replica cannot apply a
//!   record, `sync` fails, nothing of that transaction is published,
//!   and nothing is skipped: the tailer moves only past records a
//!   transaction applied, so [`shipped_lsn`](Replica::shipped_lsn)
//!   keeps naming the state the replica serves and the next `sync`
//!   re-reads the same records and fails at the same one. Mid-log
//!   damage is kind `corrupt`, once the intact records before it are
//!   applied; it clears when the primary's next checkpoint supersedes
//!   the generation. A log *tail* cut short is not a failure — the
//!   replica stops before it and resumes when the rest arrives.
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
use std::sync::Mutex;
use std::time::Instant;

use hrdm_obs::metrics::{Counter, Gauge, Histogram};
use hrdm_persist::ship::WalTailer;

use crate::engine::Engine;
use crate::error::HqlError;
use crate::executor::{ExecError, ExecResult, ExecutorHandle};

/// Most mutation records one write transaction of a
/// [`sync`](Replica::sync) applies, and so the longest a replica holds
/// its engine's writer lock however long the log it attached to.
pub const SYNC_BATCH: usize = 8192;

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
    /// LSN of the state the replica serves (in its engine's scope, as
    /// are the next two).
    applied_lsn: Gauge,
    /// Records each successful sync applied — how far behind it was.
    sync_records: Histogram,
    /// Syncs whose write transaction refused what it was delivered.
    apply_errors: Counter,
}

impl Replica {
    /// Attach a fresh replica to a primary's store directory. The
    /// directory need not exist yet; the first [`sync`](Replica::sync)
    /// after the primary opens it catches up from the initial
    /// checkpoint.
    pub fn attach(dir: impl AsRef<Path>) -> Replica {
        let engine = Engine::new();
        let metrics = engine.metrics();
        Replica {
            applied_lsn: metrics.gauge("replica.applied_lsn"),
            sync_records: metrics.histogram("replica.sync_records"),
            apply_errors: metrics.counter("replica.apply_errors"),
            engine,
            feed: Mutex::new(Feed {
                tailer: WalTailer::attach(dir.as_ref()),
                last_sync: None,
            }),
        }
    }

    /// The replica's engine — read it like any engine (snapshots, read
    /// views); don't write to it. Its [`metrics`](Engine::metrics) hold
    /// the replica's `replica.*` series too.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Pull everything the primary has newly flushed to its log and
    /// apply it, at most [`SYNC_BATCH`] records per write transaction.
    /// Returns the shipped LSN after the pull (mutations applied since
    /// the primary store was born). On `Err` the replica serves the
    /// last transaction that applied whole, and the next call starts
    /// again from there (see the module docs).
    pub fn sync(&self) -> ExecResult<u64> {
        let mut feed = self.feed.lock().expect("feed lock poisoned");
        let mut applied = 0u64;
        let outcome = loop {
            // Each record is applied inside the write as it is read.
            let delivered = feed.tailer.deliver(SYNC_BATCH, |rollover, records| {
                let base = rollover.map(|(_, image)| image);
                self.engine.apply_mutations(base, |apply| records(apply))
            });
            match delivered {
                Ok(Ok(Some(n))) => applied += n,
                Ok(Ok(None)) => break Ok(()),
                Ok(Err(e)) => {
                    self.apply_errors.incr();
                    break Err(e.into());
                }
                Err(e) => break Err(ExecError::from(HqlError::from(e))),
            }
        };
        let lsn = feed.tailer.shipped_lsn();
        self.applied_lsn.set(lsn);
        outcome?;
        self.sync_records.observe(applied);
        feed.last_sync = Some((applied, Instant::now()));
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
