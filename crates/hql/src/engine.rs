//! The concurrent HQL engine: snapshot reads, serialized writes.
//!
//! An [`Engine`] is the shared, thread-safe core embedders and the
//! `hrdm-server` serving layer execute against. It splits the
//! statement vocabulary by effect:
//!
//! * **Read-only statements** (`HOLDS`, `SHOW`, `EXPLAIN`, …) grab one
//!   [`Snapshot`] of the [`World`] and evaluate with no lock held —
//!   arbitrarily many can run in parallel, and each sees a state that
//!   equals the state after some serial prefix of the write history.
//! * **Mutating statements** funnel through the single writer: a
//!   `Mutex` serializes them, each clones the world (constant work: the
//!   catalog's maps are persistent), applies its change — copying the
//!   one path of each map it walks, nothing else — stages it on the
//!   write-ahead log of the `OPEN`ed store (if any), appends what it
//!   staged once view maintenance has accepted the write, and publishes
//!   the fresh world as the next **epoch**. Where that time goes is
//!   recorded per write in the `engine.write.{clone, apply, journal,
//!   net_delta, maintain, publish}` histograms, six stages that add up
//!   to the time under the lock. A failed statement publishes nothing
//!   and journals nothing, so errors are atomic — neither readers nor
//!   a restart can observe a half-applied or refused write. A
//!   statement in the WAL vocabulary resolves to one
//!   [`CatalogMutation`], and that one value is both applied (through
//!   [`Catalog::apply_mutation`], the interpreter recovery replays
//!   with) and logged; [`Engine::apply_mutations`] is the same path for
//!   mutations that arrive already resolved (a replica's feed), a
//!   whole batch of them as one write.
//!
//! Statements dispatch through a table indexed by
//! [`StatementKind`](crate::ast::StatementKind): one handler function
//! per statement, declared read or write by construction (the private
//! `Handler` enum).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hrdm_core::delta::{Delta, RelationChange, RelationDelta};
use hrdm_core::justify::justify;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::*;
use hrdm_core::render::render_table;
use hrdm_obs::metrics::{self, Counter, Gauge, Histogram};
use hrdm_persist::{Image, Journal, LsnMarks};

use crate::ast::{names, Statement, ValueRef, STATEMENT_KINDS};
use crate::error::{HqlError, Result};
use crate::exec::Response;
use crate::parser::parse;
use crate::world::{signature, World};

/// A shared, thread-safe HQL engine.
///
/// `Engine` is `Clone` (handles share one underlying state): clone it
/// into as many threads as you like. Reads never block other reads;
/// writes serialize among themselves and publish atomically.
#[derive(Clone, Default)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

#[derive(Default)]
struct EngineInner {
    /// The published world; advances only under the writer lock.
    state: SnapshotCell<World>,
    /// Serializes mutating statements and owns the WAL handle.
    writer: Mutex<Writer>,
    /// The most recent committed write's structured delta, published
    /// alongside its epoch (under the writer lock, so it always pairs
    /// with the epoch it produced).
    last_delta: Mutex<Option<(u64, Arc<Delta>)>>,
    /// Writers currently queued on (or holding) the writer mutex.
    /// Sampled into the `engine.write_queue_depth` gauge at lock
    /// acquisition, so the gauge reports contention a writer actually
    /// observed rather than a racy instantaneous count.
    write_queue: AtomicU64,
    /// The open store's LSN marks, readable without the writer lock
    /// (the server's `STATS` answers on its event loop); replaced when
    /// `OPEN` attaches a journal.
    marks: Mutex<Option<Arc<LsnMarks>>>,
}

struct IvmMetrics {
    maintained: Counter,
    fallback: Counter,
    detached: Counter,
}

fn ivm_obs() -> &'static IvmMetrics {
    static M: OnceLock<IvmMetrics> = OnceLock::new();
    M.get_or_init(|| IvmMetrics {
        maintained: metrics::counter("ivm.maintained"),
        fallback: metrics::counter("ivm.fallback"),
        detached: metrics::counter("ivm.detached"),
    })
}

/// Write-path contention telemetry, sampled at writer-lock
/// acquisition (the `engine.epoch` gauge itself is maintained by the
/// snapshot cell at publish time).
struct WriteObs {
    /// Writers queued on or holding the writer mutex, as seen by the
    /// writer that just acquired it.
    queue_depth: Gauge,
    /// Epochs published between this writer enqueueing and acquiring
    /// the lock — how stale the snapshot it cloned at enqueue time
    /// would have been.
    epoch_lag: Gauge,
    /// Lock acquisitions that found at least one other writer queued.
    contended: Counter,
    /// Wall time spent waiting for the writer mutex.
    wait: Histogram,
    /// Where a committed write's time under the lock went, one
    /// observation per write in each: `engine.write.clone` (snapshot
    /// load + world clone), `.apply` (the statement handler — name
    /// resolution, the catalog interpreter with whatever it copies on
    /// write, reply formatting — minus the journal time inside it),
    /// `.journal` (staging the WAL records, then appending them at
    /// commit, incl. any wait for the syncer the loss bound imposes),
    /// `.net_delta`, `.maintain` (live views, incl. their implicit
    /// checkpoint), `.publish` (epoch swap, delta hand-over, release of
    /// the previous epoch's world). The six are differences of
    /// consecutive readings of one clock, so per write they add up to
    /// the time from lock acquisition to publication exactly. A refused
    /// write observes nothing.
    stages: [Histogram; 6],
}

/// Indexes into [`WriteObs::stages`].
const CLONE: usize = 0;
const APPLY: usize = 1;
const JOURNAL: usize = 2;
const NET_DELTA: usize = 3;
const MAINTAIN: usize = 4;
const PUBLISH: usize = 5;

fn write_obs() -> &'static WriteObs {
    static M: OnceLock<WriteObs> = OnceLock::new();
    M.get_or_init(|| WriteObs {
        queue_depth: metrics::gauge("engine.write_queue_depth"),
        epoch_lag: metrics::gauge("engine.epoch_lag"),
        contended: metrics::counter("engine.write_contended"),
        wait: metrics::histogram("engine.write_wait"),
        stages: [
            metrics::histogram("engine.write.clone"),
            metrics::histogram("engine.write.apply"),
            metrics::histogram("engine.write.journal"),
            metrics::histogram("engine.write.net_delta"),
            metrics::histogram("engine.write.maintain"),
            metrics::histogram("engine.write.publish"),
        ],
    })
}

/// Close the write stage that began at `*boundary` and open the next:
/// one clock reading serves as both ends.
fn lap(boundary: &mut Instant) -> Duration {
    let now = Instant::now();
    now - std::mem::replace(boundary, now)
}

/// Decrements the write-queue count on drop, so error paths out of a
/// write statement can't leak a phantom queued writer.
struct QueueGuard<'a>(&'a AtomicU64);

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[derive(Default)]
struct Writer {
    /// The write-ahead journal of an `OPEN`ed durable store, if any.
    /// Statements in the WAL vocabulary (DDL, assertions, retractions,
    /// preemption changes) append mutation records; whole-state changes
    /// (`LET`, in-place `CONSOLIDATE`/`EXPLICATE`, `LOAD`) take an
    /// implicit checkpoint instead.
    journal: Option<Journal>,
}

/// One mutating statement's workspace: a private copy-on-write clone
/// of the world plus the journal handle. The engine publishes
/// `txn.world` only if the handler returns `Ok`, so a failed write is
/// invisible — readers and later writers keep the previous epoch.
pub struct WriteTxn<'a> {
    /// The private world copy this transaction mutates.
    pub world: World,
    /// The structured effect of this write: the relations it asserted
    /// into or retracted from (their rows are diffed in at commit),
    /// resets, and domain-graph edits. Handlers record into it; the
    /// engine feeds it to view maintenance and publishes it alongside
    /// the new epoch.
    pub delta: Delta,
    journal: &'a mut Option<Journal>,
    marks: &'a Mutex<Option<Arc<LsnMarks>>>,
    /// Time this write has spent staging WAL records so far.
    journal_time: Duration,
}

/// Fill in the row-level entries of a write's `delta`: each relation
/// the write asserted into or retracted from gets the
/// [`RelationDelta::diff`] of its tuples before and after — the net
/// effect, however many times the write touched an item, found by
/// comparing the paths the write copied.
fn net_rows(delta: &mut Delta, pre: &World, post: &World) {
    for (name, change) in &mut delta.relations {
        if let RelationChange::Rows(rows) = change {
            match (pre.relation(name), post.relation(name)) {
                (Ok(pre), Ok(post)) => *rows = RelationDelta::diff(pre, post),
                _ => *change = RelationChange::Reset,
            }
        }
    }
}

impl WriteTxn<'_> {
    /// Apply one WAL-vocabulary mutation: apply it to the private world
    /// through the catalog's interpreter, record what it touched in the
    /// write's delta, and stage it on the open store's WAL (skipped
    /// when detached) — the value that is applied is the value that is
    /// logged, once the write commits. An `Assert`/`Retract` records
    /// only its relation (its rows are diffed at commit); the item the
    /// interpreter resolved is the return value (`None` for every other
    /// mutation).
    fn apply(&mut self, m: &CatalogMutation) -> Result<Option<Item>> {
        use CatalogMutation::*;
        let resolved = self.world.apply(m)?;
        match m {
            CreateDomain { name } | DropDomain { name } => self.delta.record_domain(name),
            AddClass { domain, .. } | AddInstance { domain, .. } | Prefer { domain, .. } => {
                self.delta.record_domain(domain)
            }
            // Dropping resets too: any view depending on the dropped
            // relation fails its maintenance pass — and therefore this
            // write — atomically.
            CreateRelation { name, .. } | DropRelation { name } => self.delta.record_reset(name),
            SetPreemption { relation, .. } => self.delta.record_reset(relation),
            Assert { relation, .. } | Retract { relation, .. } => self.delta.record_rows(relation),
        }
        if let Some(j) = self.journal.as_mut() {
            let started = Instant::now();
            j.stage(m)?;
            self.journal_time += started.elapsed();
        }
        Ok(resolved)
    }

    /// Drop the mutations this write staged: it was refused.
    fn discard_staged(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.discard();
        }
    }

    /// Make `journal` the open store's, and publish its LSN marks.
    fn attach(&mut self, journal: Journal) {
        *self.marks.lock().expect("marks lock poisoned") = Some(Arc::clone(journal.marks()));
        *self.journal = Some(journal);
    }

    /// Apply a tuple mutation of `relation` and render the item it
    /// wrote, the way its reply names it.
    fn apply_tuple(&mut self, relation: &str, m: &CatalogMutation) -> Result<String> {
        let item = self
            .apply(m)?
            .expect("the interpreter returns the item of every tuple mutation");
        Ok(self.world.relation(relation)?.schema().display_item(&item))
    }

    /// Replace the whole world (`LOAD`, `OPEN`, a shipped checkpoint
    /// image): every relation of the world replaced and of the new one
    /// resets — one the new world lacks is gone, as if dropped — and
    /// live views are gone: images carry relations, not view
    /// definitions.
    fn replace_world(&mut self, world: World) {
        let replaced = std::mem::replace(&mut self.world, world);
        for name in replaced.relation_names().chain(self.world.relation_names()) {
            self.delta.record_reset(name);
        }
    }

    /// Checkpoint the open store from the transaction's current world —
    /// used after changes outside the WAL vocabulary (`LET`, in-place
    /// operators, `LOAD`), which only an image can carry.
    fn checkpoint(&mut self) -> Result<()> {
        if let Some(j) = self.journal.as_mut() {
            j.checkpoint(&self.world.to_image())?;
        }
        Ok(())
    }
}

/// A dispatch-table entry: the effect class is part of the handler's
/// type, so a statement cannot accidentally mutate through the read
/// path or dodge the writer lock.
enum Handler {
    /// Runs against an immutable snapshot; many in parallel.
    Read(fn(&World, Statement) -> Result<Response>),
    /// Runs under the writer lock against a COW clone.
    Write(fn(&mut WriteTxn<'_>, Statement) -> Result<Response>),
}

/// One handler per [`StatementKind`], indexed by its discriminant.
const DISPATCH: [Handler; STATEMENT_KINDS] = [
    Handler::Write(exec_create_domain),   // CreateDomain
    Handler::Write(exec_create_class),    // CreateClass
    Handler::Write(exec_create_instance), // CreateInstance
    Handler::Write(exec_prefer),          // Prefer
    Handler::Write(exec_create_relation), // CreateRelation
    Handler::Write(exec_assert),          // Assert
    Handler::Write(exec_retract),         // Retract
    Handler::Read(exec_holds),            // Holds
    Handler::Read(exec_holds3),           // Holds3
    Handler::Read(exec_why),              // Why
    Handler::Read(exec_check),            // Check
    Handler::Read(exec_show),             // Show
    Handler::Read(exec_show_domain),      // ShowDomain
    Handler::Write(exec_consolidate),     // Consolidate
    Handler::Write(exec_explicate),       // Explicate
    Handler::Write(exec_set_preemption),  // SetPreemption
    Handler::Read(exec_count),            // Count
    Handler::Read(exec_save),             // Save
    Handler::Write(exec_load),            // Load
    Handler::Write(exec_open),            // Open
    Handler::Write(exec_checkpoint),      // Checkpoint
    Handler::Write(exec_let),             // Let
    Handler::Read(exec_explain),          // Explain
    Handler::Read(exec_trace),            // Trace
    Handler::Write(exec_drop_domain),     // DropDomain
    Handler::Write(exec_drop_relation),   // DropRelation
    Handler::Write(exec_rename_relation), // RenameRelation
    Handler::Read(exec_show_relations),   // ShowRelations
    Handler::Read(exec_dump),             // Dump
];

/// A pinned, shareable read-only view of the engine: one snapshot
/// acquisition serving arbitrarily many read-only scripts.
///
/// The serving tier's event loop acquires one `ReadView` per loop tick,
/// answers that tick's point reads through it and hands clones of it
/// to every worker executing a read-only script dispatched in that
/// tick, so a batch of independent queries from many connections costs
/// a **single** snapshot load instead of one per statement. Cloning is an `Arc` bump; the view keeps its world alive
/// (and byte-stable) for as long as any clone exists, exactly like a
/// reader inside [`Engine::execute`].
#[derive(Clone)]
pub struct ReadView {
    snap: Snapshot<World>,
}

impl ReadView {
    /// The epoch this view was pinned at: its state equals the state
    /// after exactly this many committed writes.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// Execute already-parsed read-only `statements` against the
    /// pinned snapshot, one response per statement, stopping at the
    /// first that fails.
    ///
    /// The view cannot write: if any statement mutates, nothing runs
    /// and the call fails with kind `unsupported`. A caller that routes
    /// writes elsewhere asks [`Statement::is_read_only`] first and sends
    /// such a script through [`Engine::execute_statement`] instead.
    pub fn execute(&self, statements: Vec<Statement>) -> Result<Vec<Response>> {
        self.execute_each(statements, |r| r)
    }

    /// [`execute`](ReadView::execute), each response passed through
    /// `reply` as it is made: a backend replying in text keeps no
    /// response list.
    pub(crate) fn execute_each<T>(
        &self,
        statements: Vec<Statement>,
        reply: impl Fn(Response) -> T,
    ) -> Result<Vec<T>> {
        if !statements.iter().all(Statement::is_read_only) {
            return Err(HqlError::Unsupported(
                "a read view cannot run a mutating statement".into(),
            ));
        }
        statements
            .into_iter()
            .map(|stmt| {
                let Handler::Read(h) = &DISPATCH[stmt.kind() as usize] else {
                    unreachable!("read-only statements dispatch to read handlers");
                };
                h(&self.snap, stmt).map(&reply)
            })
            .collect()
    }
}

impl Engine {
    /// A fresh engine over an empty world.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Grab the current published snapshot (epoch + shared world).
    pub fn snapshot(&self) -> Snapshot<World> {
        self.inner.state.load()
    }

    /// Pin a shareable [`ReadView`] of the current state — one snapshot
    /// acquisition that can serve many read-only scripts (the serving
    /// tier's per-tick read batch).
    pub fn read_view(&self) -> ReadView {
        ReadView {
            snap: self.inner.state.load(),
        }
    }

    /// Writers currently queued on (or holding) the writer mutex.
    ///
    /// This is the live admission-control signal behind the
    /// `engine.write_queue_depth` gauge: unlike the gauge (which is
    /// sampled at lock acquisition), this reads the atomic directly, so
    /// backpressure policies see the depth at the moment they act.
    pub fn write_queue_depth(&self) -> u64 {
        self.inner.write_queue.load(Ordering::SeqCst)
    }

    /// The current epoch (number of successful writes published).
    pub fn epoch(&self) -> u64 {
        self.inner.state.epoch()
    }

    /// The most recent committed write's structured [`Delta`], paired
    /// with the epoch it produced; `None` until the first write. Its
    /// row-level entries are *net*: applying one to the relation as it
    /// stood before the write yields the relation after it, however
    /// many mutations the write ran.
    pub fn last_delta(&self) -> Option<(u64, Arc<Delta>)> {
        self.inner
            .last_delta
            .lock()
            .expect("delta lock poisoned")
            .clone()
    }

    /// Parse and execute a script; returns one response per statement.
    ///
    /// Statements run in order; within one call, a read after a write
    /// sees that write (the write publishes before the read loads its
    /// snapshot). A parse error anywhere aborts the whole script before
    /// any statement runs; an execution error stops the script at the
    /// failing statement, keeping earlier (published) effects.
    pub fn execute(&self, script: &str) -> Result<Vec<Response>> {
        let statements = parse(script)?;
        let mut out = Vec::with_capacity(statements.len());
        for stmt in statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Execute one parsed statement through the dispatch table.
    pub fn execute_statement(&self, stmt: Statement) -> Result<Response> {
        match &DISPATCH[stmt.kind() as usize] {
            Handler::Read(h) => {
                let snap = self.inner.state.load();
                h(&snap, stmt)
            }
            Handler::Write(h) => self.write(|txn| h(txn, stmt)),
        }
    }

    /// Apply a batch of logical mutations as **one** write — the entry
    /// a WAL-fed [`Replica`](crate::Replica) feeds each poll of shipped
    /// history to: an optional checkpoint image to start over from
    /// (`base`), then the batch in order. It is the write path of a
    /// mutating statement minus the parsing, run once for the lot: one
    /// world clone (each map node a mutation walks is copied once, then
    /// edited in place), one view-maintenance pass, one published epoch, one
    /// net [`Delta`]. All or nothing: if any mutation is refused the
    /// engine publishes nothing and stays on the epoch it had. If a
    /// store is `OPEN` the mutations are journaled (and a `base`
    /// checkpointed, as `LOAD` is).
    ///
    /// `batch` is handed the function that applies one mutation and
    /// calls it on each, in order, passing on its first error. Each
    /// mutation is only lent for its own call, so a replica decodes its
    /// batch one record at a time into the record its `ShipBatch` keeps;
    /// a slice is `|apply| mutations.iter().try_for_each(apply)`.
    pub fn apply_mutations(
        &self,
        base: Option<Image>,
        batch: impl FnOnce(&mut dyn FnMut(&CatalogMutation) -> Result<()>) -> Result<()>,
    ) -> Result<()> {
        self.write(|txn| {
            if let Some(image) = base {
                txn.replace_world(World::from_image(image));
                txn.checkpoint()?;
            }
            batch(&mut |m| txn.apply(m).map(drop))
        })
    }

    /// Run one write under the writer lock against a copy-on-write
    /// clone of the published world, and publish the clone as the next
    /// epoch iff `f` (and view maintenance) succeed.
    fn write<T>(&self, f: impl FnOnce(&mut WriteTxn<'_>) -> Result<T>) -> Result<T> {
        let wobs = write_obs();
        let enqueue_epoch = self.inner.state.epoch();
        let queued = self.inner.write_queue.fetch_add(1, Ordering::SeqCst) + 1;
        let _queue_guard = QueueGuard(&self.inner.write_queue);
        let wait_started = Instant::now();
        let mut writer = self.inner.writer.lock().expect("writer lock poisoned");
        let mut boundary = Instant::now();
        wobs.wait
            .observe_ns((boundary - wait_started).as_nanos() as u64);
        // Fresh load at acquisition: this writer plus anyone who queued
        // behind it while it waited.
        wobs.queue_depth
            .set(self.inner.write_queue.load(Ordering::SeqCst));
        if queued > 1 {
            // Someone was already queued (or writing) when this writer
            // enqueued.
            wobs.contended.incr();
        }
        wobs.epoch_lag
            .set(self.inner.state.epoch().saturating_sub(enqueue_epoch));
        let snap = self.inner.state.load();
        let mut txn = WriteTxn {
            world: (*snap).clone(),
            delta: Delta::new(),
            journal: &mut writer.journal,
            marks: &self.inner.marks,
            journal_time: Duration::ZERO,
        };
        let mut spent = [Duration::ZERO; 6];
        spent[CLONE] = lap(&mut boundary);
        let response = f(&mut txn).inspect_err(|_| txn.discard_staged())?;
        spent[APPLY] = lap(&mut boundary).saturating_sub(txn.journal_time);
        // Bring live views up to date with this write's delta before
        // anything publishes: a maintenance failure (the fallback
        // recomputation erroring) fails the write atomically, so
        // readers never see a world whose views disagree with their
        // definitions.
        let mut delta = std::mem::take(&mut txn.delta);
        net_rows(&mut delta, &snap, &txn.world);
        spent[NET_DELTA] = lap(&mut boundary);
        let summary = txn
            .world
            .maintain_views(&mut delta)
            .inspect_err(|_| txn.discard_staged())?;
        // The write can no longer be refused: its staged mutations reach
        // the log — before the implicit checkpoint, whose image holds
        // them, and before publication.
        spent[JOURNAL] = txn.journal_time;
        if let Some(j) = txn.journal.as_mut() {
            spent[MAINTAIN] = lap(&mut boundary);
            j.commit()?;
            spent[JOURNAL] += lap(&mut boundary);
        }
        if summary.changed() {
            // View relations changed outside the WAL mutation
            // vocabulary; only an image carries them.
            txn.checkpoint()?;
        }
        let m = ivm_obs();
        m.maintained.add(summary.maintained as u64);
        m.fallback.add(summary.fallback as u64);
        m.detached.add(summary.detached as u64);
        spent[MAINTAIN] += lap(&mut boundary);
        let epoch = self.inner.state.publish(Arc::new(txn.world));
        *self.inner.last_delta.lock().expect("delta lock poisoned") =
            Some((epoch, Arc::new(delta)));
        // Usually the last handle on the previous epoch's world: freeing
        // the nodes this write copied out of it is this write's cost.
        drop(snap);
        spent[PUBLISH] = lap(&mut boundary);
        for (histogram, spent) in wobs.stages.iter().zip(spent) {
            histogram.observe_ns(spent.as_nanos() as u64);
        }
        Ok(response)
    }

    /// The open store's LSN marks, if a store is `OPEN`.
    fn marks(&self) -> Option<Arc<LsnMarks>> {
        self.inner
            .marks
            .lock()
            .expect("marks lock poisoned")
            .clone()
    }

    /// LSN of the attached store, if one is `OPEN` (= mutations recorded
    /// since the store's birth). Read without the writer lock.
    pub fn journal_lsn(&self) -> Option<u64> {
        self.marks().map(|m| m.next())
    }

    /// Mutations of the attached store a completed `fdatasync` covers,
    /// if one is `OPEN`: under `SYNC EVERY n`, every acknowledged write's
    /// LSN is below `durable_lsn + n`. Read without the writer lock.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.marks().map(|m| m.durable())
    }

    /// `journal-lsn: …` and `durable-lsn: …` lines for a probe or the
    /// server's `STATS`, if a store is `OPEN`. The durable LSN is read
    /// first, so it never exceeds the journal LSN beside it.
    pub fn lsn_probe(&self) -> Option<String> {
        let marks = self.marks()?;
        let durable = marks.durable();
        Some(format!(
            "journal-lsn: {}\ndurable-lsn: {durable}",
            marks.next()
        ))
    }

    /// Return once every WAL record of the open store is durable
    /// (`durable_lsn == journal_lsn`). A no-op when no store is
    /// attached.
    pub fn sync(&self) -> Result<()> {
        let mut writer = self.inner.writer.lock().expect("writer lock poisoned");
        if let Some(j) = writer.journal.as_mut() {
            j.sync()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Write handlers
// ---------------------------------------------------------------------

fn exec_create_domain(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::CreateDomain { name } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::CreateDomain { name: name.clone() })?;
    Ok(Response::Ok(format!("domain {name} created")))
}

fn exec_create_class(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::CreateClass { name, parents } = stmt else {
        unreachable!("dispatched by kind")
    };
    let domain = txn.world.domain_containing(&parents)?;
    txn.apply(&CatalogMutation::AddClass {
        domain: domain.clone(),
        name: name.clone(),
        parents,
    })?;
    Ok(Response::Ok(format!("class {name} created in {domain}")))
}

fn exec_create_instance(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::CreateInstance { name, parents } = stmt else {
        unreachable!("dispatched by kind")
    };
    let domain = txn.world.domain_containing(&parents)?;
    txn.apply(&CatalogMutation::AddInstance {
        domain: domain.clone(),
        name: name.clone(),
        parents,
    })?;
    Ok(Response::Ok(format!("instance {name} created in {domain}")))
}

fn exec_prefer(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Prefer {
        stronger,
        weaker,
        domain,
    } = stmt
    else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::Prefer {
        domain: domain.clone(),
        stronger: stronger.clone(),
        weaker: weaker.clone(),
    })?;
    Ok(Response::Ok(format!(
        "{stronger} now dominates {weaker} in {domain}"
    )))
}

fn exec_create_relation(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::CreateRelation { name, attributes } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::CreateRelation {
        name: name.clone(),
        attributes,
    })?;
    Ok(Response::Ok(format!("relation {name} created")))
}

fn exec_assert(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Assert {
        relation,
        negated,
        values,
    } = stmt
    else {
        unreachable!("dispatched by kind")
    };
    let truth = if negated {
        Truth::Negative
    } else {
        Truth::Positive
    };
    let values: Vec<String> = values.into_iter().map(|v| v.name).collect();
    let rendered = txn.apply_tuple(
        &relation,
        &CatalogMutation::Assert {
            relation: relation.clone(),
            values,
            truth,
        },
    )?;
    Ok(Response::Ok(format!(
        "asserted {} {rendered} in {relation}",
        truth.sign()
    )))
}

fn exec_retract(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Retract { relation, values } = stmt else {
        unreachable!("dispatched by kind")
    };
    let values: Vec<String> = values.into_iter().map(|v| v.name).collect();
    let rendered = txn.apply_tuple(
        &relation,
        &CatalogMutation::Retract {
            relation: relation.clone(),
            values,
        },
    )?;
    Ok(Response::Ok(format!(
        "retracted {rendered} from {relation}"
    )))
}

fn exec_consolidate(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Consolidate { relation } = stmt else {
        unreachable!("dispatched by kind")
    };
    let removed = txn.world.consolidate_in_place(&relation)?;
    txn.delta.record_reset(&relation);
    txn.checkpoint()?;
    Ok(Response::Ok(format!(
        "consolidated {relation}: removed {removed} redundant tuple(s)"
    )))
}

fn exec_explicate(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Explicate { relation, attrs } = stmt else {
        unreachable!("dispatched by kind")
    };
    let tuples = txn.world.explicate_in_place(&relation, &attrs)?;
    txn.delta.record_reset(&relation);
    txn.checkpoint()?;
    Ok(Response::Ok(format!(
        "explicated {relation}: now {tuples} tuple(s)"
    )))
}

fn exec_set_preemption(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::SetPreemption { relation, mode } = stmt else {
        unreachable!("dispatched by kind")
    };
    let preemption = match mode.to_ascii_uppercase().as_str() {
        "OFF-PATH" => Preemption::OffPath,
        "ON-PATH" => Preemption::OnPath,
        "NONE" | "NO-PREEMPTION" => Preemption::NoPreemption,
        other => {
            return Err(HqlError::Parse {
                found: other.to_string(),
                expected: "OFF-PATH, ON-PATH, or NONE".into(),
            })
        }
    };
    txn.apply(&CatalogMutation::SetPreemption {
        relation: relation.clone(),
        mode: preemption,
    })?;
    Ok(Response::Ok(format!(
        "{relation} now uses {preemption} preemption"
    )))
}

fn exec_let(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Let { name, derivation } = stmt else {
        unreachable!("dispatched by kind")
    };
    // The fresh binding is a live view: from now on the writer
    // maintains it per-delta at commit. Its own birth is deliberately
    // not recorded in the delta — nothing can depend on it yet, and a
    // row entry under its name would read as a direct write (detach).
    let tuples = txn.world.define_view(&name, derivation)?;
    txn.checkpoint()?;
    Ok(Response::Ok(format!(
        "relation {name} defined ({tuples} tuples)"
    )))
}

fn exec_load(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Load { path } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.replace_world(World::from_image(Image::load(&path)?));
    txn.checkpoint()?;
    Ok(Response::Ok(format!(
        "session restored from {path} ({} domain(s), {} relation(s))",
        txn.world.domain_count(),
        txn.world.relation_count()
    )))
}

fn exec_open(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Open { dir, sync_every } = stmt else {
        unreachable!("dispatched by kind")
    };
    let path = Path::new(&dir);
    std::fs::create_dir_all(path).map_err(hrdm_persist::PersistError::from)?;
    let hrdm_persist::Recovered { catalog, report: r } = hrdm_persist::recover(path)?;
    // The recovered catalog becomes the world as it stands: no image
    // round trip, no relation copied.
    let world = World::from(catalog);
    let group = sync_every.unwrap_or(1) as usize;
    // Start a fresh generation at the recovered LSN: the checkpoint
    // makes the replayed tail durable and drops any torn bytes, so a
    // re-crash cannot regress.
    let journal = Journal::begin(path, r.next_lsn(), &world.to_image(), group)?;
    txn.replace_world(world);
    txn.attach(journal);
    Ok(Response::Ok(format!(
        "store {dir} open at lsn {} ({} domain(s), {} relation(s); \
         {} record(s) replayed, {} byte(s) truncated)",
        r.next_lsn(),
        txn.world.domain_count(),
        txn.world.relation_count(),
        r.records_replayed,
        r.truncated_bytes
    )))
}

fn exec_checkpoint(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Checkpoint = stmt else {
        unreachable!("dispatched by kind")
    };
    let Some(j) = txn.journal.as_mut() else {
        return Err(HqlError::Execution(
            "no store open; use OPEN \"dir\" first".into(),
        ));
    };
    let lsn = j.checkpoint(&txn.world.to_image())?;
    Ok(Response::Ok(format!("checkpoint written at lsn {lsn}")))
}

fn exec_drop_domain(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::DropDomain { name } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::DropDomain { name: name.clone() })?;
    Ok(Response::Ok(format!("domain {name} dropped")))
}

fn exec_drop_relation(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::DropRelation { name } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::DropRelation { name: name.clone() })?;
    Ok(Response::Ok(format!("relation {name} dropped")))
}

fn exec_rename_relation(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::RenameRelation { from, to } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.world.rename_relation(&from, &to)?;
    // Both names reset: views depending on the old name fail atomically
    // (their derivations no longer resolve), and consumers of the new
    // name rebuild from scratch. A rename is outside the WAL mutation
    // vocabulary, so durability takes an implicit checkpoint.
    txn.delta.record_reset(&from);
    txn.delta.record_reset(&to);
    txn.checkpoint()?;
    Ok(Response::Ok(format!("relation {from} renamed to {to}")))
}

// ---------------------------------------------------------------------
// Read handlers
// ---------------------------------------------------------------------

fn exec_holds(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Holds { relation, values } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    let item = rel.item(&values)?;
    let value = match rel.verdict(&item) {
        Verdict::Conflict => None,
        v => Some(v.truth() == Some(Truth::Positive)),
    };
    Ok(Response::Truth {
        item: rel
            .schema()
            .display_item_with_room(&item, Response::VERDICT_ROOM),
        value,
    })
}

fn exec_holds3(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Holds3 { relation, values } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    let item = rel.item(&values)?;
    let mut reply = rel
        .schema()
        .display_item_with_room(&item, Response::VERDICT_ROOM);
    reply.push_str(match hrdm_core::three_valued::holds3(rel, &item) {
        hrdm_core::three_valued::Truth3::True => ": true",
        hrdm_core::three_valued::Truth3::False => ": false",
        hrdm_core::three_valued::Truth3::Unknown => ": unknown",
    });
    Ok(Response::Ok(reply))
}

fn exec_why(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Why { relation, values } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    let item = rel.item(&values)?;
    let j = justify(rel, &item);
    let mut out = format!(
        "{}: {:?}\napplicable:\n",
        rel.schema().display_item(&item),
        j.binding.truth().map(Truth::holds)
    );
    for t in &j.applicable {
        out.push_str(&format!(
            "    {} {}\n",
            t.truth.sign(),
            rel.schema().display_item(&t.item)
        ));
    }
    out.push_str("decisive:\n");
    for t in &j.decisive {
        out.push_str(&format!(
            "    {} {}\n",
            t.truth.sign(),
            rel.schema().display_item(&t.item)
        ));
    }
    Ok(Response::Justification(out))
}

fn exec_check(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Check { relation } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    let conflicts = hrdm_core::conflict::find_conflicts(rel)
        .into_iter()
        .map(|c| rel.schema().display_item(&c.item))
        .collect();
    Ok(Response::Conflicts(conflicts))
}

fn exec_show(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Show { relation } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    Ok(Response::Table(render_table(rel)))
}

fn exec_show_domain(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::ShowDomain { name } = stmt else {
        unreachable!("dispatched by kind")
    };
    let g = world.domain(&name)?;
    Ok(Response::Dot(hrdm_hierarchy::dot::to_dot(g, &name)))
}

fn exec_show_relations(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::ShowRelations { over } = stmt else {
        unreachable!("dispatched by kind")
    };
    let listed: Vec<String> = match &over {
        Some(domain) => {
            world.domain(domain)?;
            world.relations_over(domain).map(String::from).collect()
        }
        None => world.relation_names().map(String::from).collect(),
    };
    Ok(Response::Table(names(&listed)))
}

fn exec_dump(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Dump { relation, to } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    if world.is_view(&relation) {
        // A view's tuples are derived state: a script of its rows would
        // recreate a plain relation that no longer follows its sources.
        return Err(HqlError::Unsupported(format!(
            "{relation} is a live view; dump its sources, or drop or detach it first"
        )));
    }
    let mut script = vec![
        Statement::CreateRelation {
            name: to.clone(),
            attributes: signature(rel),
        },
        Statement::SetPreemption {
            relation: to.clone(),
            mode: rel.preemption().to_string().to_ascii_uppercase(),
        },
    ];
    let attrs = rel.schema().attributes();
    for (item, truth) in rel.iter() {
        let values = item
            .components()
            .iter()
            .zip(attrs)
            .map(|(&id, a)| ValueRef {
                name: a.domain().name(id).to_string(),
                all: !a.domain().is_instance(id),
            });
        script.push(Statement::Assert {
            relation: to.clone(),
            negated: truth == Truth::Negative,
            values: values.collect(),
        });
    }
    let lines: Vec<String> = script.iter().map(ToString::to_string).collect();
    Ok(Response::Script(lines.join("\n")))
}

fn exec_count(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Count { relation, by } = stmt else {
        unreachable!("dispatched by kind")
    };
    let rel = world.relation(&relation)?;
    match by {
        None => {
            let n = hrdm_core::ops::cardinality(rel);
            Ok(Response::Ok(format!(
                "{relation} has {n} atom(s) in its extension"
            )))
        }
        Some(attr) => {
            let rows = hrdm_core::ops::group_count_by_name(rel, &attr)?;
            let mut out = format!("{relation} grouped by {attr}:\n");
            for (name, count) in rows {
                out.push_str(&format!("    {name}: {count}\n"));
            }
            Ok(Response::Table(out))
        }
    }
}

fn exec_save(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Save { path } = stmt else {
        unreachable!("dispatched by kind")
    };
    world.to_image().save(&path)?;
    Ok(Response::Ok(format!("session saved to {path}")))
}

fn exec_explain(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Explain { derivation } = stmt else {
        unreachable!("dispatched by kind")
    };
    Ok(Response::Plan(world.plan(&derivation)?.explain()))
}

fn exec_trace(world: &World, stmt: Statement) -> Result<Response> {
    let Statement::Trace { derivation } = stmt else {
        unreachable!("dispatched by kind")
    };
    let planned = world.plan(&derivation)?;
    let executed = planned.execute()?;
    let mut out = executed.trace.render();
    out.push_str(&planned.rewrites());
    out.push_str(&format!(
        "result: {} stored tuple(s), {} canonicalized away\n",
        executed.relation.len(),
        executed.canonicalized_away
    ));
    Ok(Response::Trace(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StatementKind;
    use crate::executor::ExecutorHandle;

    /// The dispatch table's effect classes must agree with the
    /// [`StatementKind::is_read_only`] classification the engine (and
    /// the server's admission logic) relies on.
    #[test]
    fn dispatch_table_matches_read_write_classification() {
        use StatementKind::*;
        let kinds = [
            CreateDomain,
            CreateClass,
            CreateInstance,
            Prefer,
            CreateRelation,
            Assert,
            Retract,
            Holds,
            Holds3,
            Why,
            Check,
            Show,
            ShowDomain,
            Consolidate,
            Explicate,
            SetPreemption,
            Count,
            Save,
            Load,
            Open,
            Checkpoint,
            Let,
            Explain,
            Trace,
            DropDomain,
            DropRelation,
            RenameRelation,
            ShowRelations,
            Dump,
        ];
        assert_eq!(kinds.len(), STATEMENT_KINDS);
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "discriminants are table indexes");
            let is_read = matches!(DISPATCH[i], Handler::Read(_));
            assert_eq!(
                is_read,
                kind.is_read_only(),
                "{kind:?} handler class disagrees with its classification"
            );
            assert!(
                !kind.is_point_read() || is_read,
                "{kind:?} is a point read, so it must be read-only"
            );
        }
    }

    #[test]
    fn reads_do_not_advance_the_epoch_and_writes_do() {
        let engine = Engine::new();
        assert_eq!(engine.epoch(), 0);
        engine.execute("CREATE DOMAIN D;").unwrap();
        assert_eq!(engine.epoch(), 1);
        engine
            .execute("CREATE CLASS A UNDER D; CREATE RELATION R (V: D);")
            .unwrap();
        assert_eq!(engine.epoch(), 3);
        engine.execute("SHOW R; CHECK R; SHOW DOMAIN D;").unwrap();
        assert_eq!(engine.epoch(), 3, "reads publish nothing");
    }

    #[test]
    fn failed_writes_publish_nothing() {
        let engine = Engine::new();
        engine.execute("CREATE DOMAIN D;").unwrap();
        let epoch = engine.epoch();
        assert!(engine.execute("CREATE DOMAIN D;").is_err());
        assert_eq!(engine.epoch(), epoch, "duplicate DDL left no trace");
        // A half-failing script keeps the statements before the failure.
        let r = engine.execute("CREATE CLASS A UNDER D; CREATE CLASS A UNDER D;");
        assert!(r.is_err());
        assert_eq!(engine.epoch(), epoch + 1);
        assert!(engine.snapshot().domain("D").unwrap().node("A").is_ok());
    }

    #[test]
    fn old_snapshots_stay_valid_while_writes_continue() {
        let engine = Engine::new();
        engine
            .execute(
                "CREATE DOMAIN D; CREATE CLASS A UNDER D;\
                 CREATE RELATION R (V: D); ASSERT R (ALL A);",
            )
            .unwrap();
        let before = engine.snapshot();
        engine
            .execute("CREATE INSTANCE x OF A; ASSERT NOT R (x);")
            .unwrap();
        let after = engine.snapshot();
        assert_eq!(before.relation("R").unwrap().len(), 1);
        assert_eq!(after.relation("R").unwrap().len(), 2);
        assert!(after.epoch() > before.epoch());
    }

    #[test]
    fn engine_handles_share_state() {
        let a = Engine::new();
        let b = a.clone();
        a.execute("CREATE DOMAIN D;").unwrap();
        assert_eq!(b.epoch(), 1);
        assert!(b.snapshot().domain("D").is_ok());
    }

    /// A closure lives in its graph, so it is freed when the last
    /// holder of the graph goes: the snapshot that `DROP DOMAIN`
    /// supersedes for one domain, the engine itself for the rest.
    #[test]
    fn closures_die_with_drop_domain_and_with_the_engine() {
        let engine = Engine::new();
        engine
            .execute(
                "CREATE DOMAIN D; CREATE CLASS A UNDER D; \
                 CREATE DOMAIN E; CREATE INSTANCE e OF E; \
                 CREATE RELATION R (x: E); ASSERT R (e);",
            )
            .unwrap();
        let closure_of = |domain: &str| {
            let closure = engine.snapshot().domain(domain).unwrap().closure();
            Arc::downgrade(&closure)
        };
        let (d, e) = (closure_of("D"), closure_of("E"));
        assert!(d.upgrade().is_some() && e.upgrade().is_some());
        engine.execute("DROP DOMAIN D;").unwrap();
        assert!(d.upgrade().is_none(), "D's closure outlived DROP DOMAIN");
        assert!(e.upgrade().is_some());
        drop(engine);
        assert!(e.upgrade().is_none(), "E's closure outlived the engine");
    }

    /// One interpreter, one failure: a relation over a missing domain
    /// is refused with the same kind and name as a statement, as a
    /// shipped mutation, and as a replayed WAL record.
    #[test]
    fn create_relation_over_a_missing_domain_fails_alike_live_and_in_replay() {
        let m = CatalogMutation::CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "Nope".into())],
        };
        let replayed = Catalog::new().apply_mutation(&m).unwrap_err();
        assert_eq!(
            replayed,
            CoreError::NotFound {
                kind: "domain",
                name: "Nope".into()
            }
        );
        let live = Engine::new()
            .execute("CREATE RELATION R (V: Nope);")
            .unwrap_err();
        assert_eq!(live, HqlError::from_catalog(replayed));
        assert_eq!(live.to_string(), "unknown domain \"Nope\"");
        assert_eq!(
            Engine::new()
                .apply_mutations(None, |apply| apply(&m))
                .unwrap_err(),
            live
        );
    }

    /// [`Engine::apply_mutations`] is the statement write path minus the
    /// parsing, once per batch: one epoch and one net delta however
    /// many mutations, and nothing published — not even the mutations
    /// before it — when one is refused.
    #[test]
    fn a_batch_of_mutations_publishes_one_epoch_or_nothing() {
        let assert = |value: &str, truth| CatalogMutation::Assert {
            relation: "R".into(),
            values: vec![value.into()],
            truth,
        };
        let engine = Engine::new();
        let apply_all = |batch: &[CatalogMutation]| {
            engine.apply_mutations(None, |apply| batch.iter().try_for_each(apply))
        };
        apply_all(&[
            CatalogMutation::CreateDomain { name: "D".into() },
            CatalogMutation::AddClass {
                domain: "D".into(),
                name: "A".into(),
                parents: vec!["D".into()],
            },
            CatalogMutation::CreateRelation {
                name: "R".into(),
                attributes: vec![("V".into(), "D".into())],
            },
            assert("D", Truth::Negative),
        ])
        .unwrap();
        assert_eq!(engine.epoch(), 1, "one epoch for the whole batch");
        let (epoch, delta) = engine.last_delta().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(
            delta.relations["R"],
            RelationChange::Reset,
            "a relation created in the batch resets, rows and all"
        );

        // Assert-then-retract nets to nothing; a row that stays is one
        // row, and the batch is still one epoch.
        apply_all(&[
            assert("A", Truth::Positive),
            CatalogMutation::Retract {
                relation: "R".into(),
                values: vec!["A".into()],
            },
            assert("A", Truth::Positive),
            assert("D", Truth::Negative),
        ])
        .unwrap();
        let (epoch, delta) = engine.last_delta().unwrap();
        assert_eq!((epoch, engine.epoch(), delta.row_count()), (2, 2, 1));

        // A refused record takes the whole batch with it.
        let before = engine.execute_read("SHOW R;", 0).unwrap();
        assert!(apply_all(&[
            assert("A", Truth::Positive),
            CatalogMutation::DropDomain { name: "D".into() },
        ])
        .is_err());
        assert_eq!(engine.epoch(), 2, "a refused batch publishes nothing");
        assert_eq!(engine.execute_read("SHOW R;", 0).unwrap(), before);

        let by_statement = Engine::new();
        by_statement
            .execute(
                "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE RELATION R (V: D); \
                 ASSERT NOT R (ALL D); ASSERT R (ALL A);",
            )
            .unwrap();
        assert_eq!(before, by_statement.execute_read("SHOW R;", 0).unwrap());
    }

    /// A pinned [`ReadView`] serves read-only scripts byte-identically
    /// to [`Engine::execute`] at the same epoch, refuses scripts with
    /// writes, and stays byte-stable while writes continue publishing.
    #[test]
    fn read_views_pin_one_snapshot_for_many_read_scripts() {
        let engine = Engine::new();
        engine
            .execute(
                "CREATE DOMAIN D; CREATE CLASS A UNDER D; \
                 CREATE RELATION R (V: D); ASSERT R (ALL A);",
            )
            .unwrap();
        let view = engine.read_view();
        assert_eq!(view.epoch(), engine.epoch());
        let render =
            |rs: Vec<Response>| -> Vec<String> { rs.iter().map(ToString::to_string).collect() };
        let on = |view: &ReadView, script: &str| view.execute(parse(script).unwrap()).map(render);
        for script in ["SHOW R;", "CHECK R; COUNT R;", "HOLDS R (ALL A);"] {
            let via_engine = render(engine.execute(script).unwrap());
            assert_eq!(on(&view, script).unwrap(), via_engine, "{script}");
        }
        // A mutating statement anywhere in the script refuses the view
        // before anything runs.
        for script in ["CREATE CLASS B UNDER D;", "SHOW R; ASSERT R (ALL A);"] {
            assert_eq!(on(&view, script).unwrap_err().kind(), "unsupported");
        }
        assert_eq!(
            engine.epoch(),
            view.epoch(),
            "a refused script wrote nothing"
        );
        // The view is immune to later writes; a fresh view sees them.
        let before = on(&view, "COUNT R;").unwrap();
        engine
            .execute("CREATE INSTANCE x OF A; ASSERT NOT R (x);")
            .unwrap();
        assert_eq!(
            on(&view, "COUNT R;").unwrap(),
            before,
            "pinned views are byte-stable across writes"
        );
        assert_ne!(
            on(&engine.read_view(), "SHOW R;").unwrap(),
            on(&view, "SHOW R;").unwrap(),
        );
        // The queue-depth signal reads zero when no writer is queued.
        assert_eq!(engine.write_queue_depth(), 0);
    }

    /// The write-contention telemetry moves under concurrent writers:
    /// `engine.write_contended` counts acquisitions that found the
    /// writer mutex occupied, `engine.write_wait` samples every lock
    /// wait, and the `engine.write_queue_depth` gauge reports observed
    /// depth. Contention is inherently timing-dependent, so the test
    /// retries rounds of parallel writers until the counter moves
    /// (with a generous deadline) instead of asserting on one race.
    #[test]
    fn write_contention_telemetry_moves_under_concurrent_writers() {
        let wobs = write_obs();
        let wait_before = wobs.wait.count();
        let contended_before = wobs.contended.get();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let mut round = 0u32;
        while wobs.contended.get() == contended_before {
            assert!(
                Instant::now() < deadline,
                "no contended write-lock acquisition after {round} rounds"
            );
            let engine = Engine::new();
            engine.execute("CREATE DOMAIN D;").unwrap();
            std::thread::scope(|s| {
                for t in 0..4 {
                    let engine = engine.clone();
                    s.spawn(move || {
                        for i in 0..50 {
                            engine
                                .execute(&format!("CREATE CLASS C_{round}_{t}_{i} UNDER D;"))
                                .unwrap();
                        }
                    });
                }
            });
            assert_eq!(engine.epoch(), 1 + 4 * 50, "every write published");
            round += 1;
        }
        assert!(
            wobs.wait.count() >= wait_before + 200,
            "every write-lock wait is sampled"
        );
        // The depth gauge was last set by some writer that held the
        // lock; whatever it saw, at least itself was queued.
        assert!(wobs.queue_depth.get() >= 1);
        // The lag gauge was set alongside it and is bounded by the
        // writes a round publishes.
        assert!(wobs.epoch_lag.get() <= 4 * 50);
    }
}
