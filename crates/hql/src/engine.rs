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
//!   staged once the write can no longer be refused, and publishes
//!   the fresh world as the next **epoch**. Where that time goes is
//!   recorded per write in the `engine.write.{clone, apply, journal,
//!   maintain, publish}` histograms, five stages that add up to the
//!   time under the lock. A failed statement publishes nothing
//!   and journals nothing, so errors are atomic — neither readers nor
//!   a restart can observe a half-applied or refused write. Every
//!   write statement but `OPEN`, `LOAD` and `CHECKPOINT` resolves to
//!   one [`CatalogMutation`], and that one value is both applied
//!   (through [`Catalog::apply_mutation_to`], the interpreter recovery
//!   replays with, which also keeps the live views current) and
//!   logged; [`Engine::apply_mutations`] is the same path for
//!   mutations that arrive already resolved (a replica's feed), a
//!   whole batch of them as one write.
//!
//! Statements dispatch through a table indexed by
//! [`StatementKind`](crate::ast::StatementKind): one handler function
//! per statement, declared read or write by construction (the private
//! `Handler` enum).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hrdm_core::catalog::Effect;
use hrdm_core::derivation::names;
use hrdm_core::justify::justify;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::*;
use hrdm_core::render::render_table;
use hrdm_obs::metrics::{Counter, Gauge, Histogram, Registry};
use hrdm_persist::{Image, Journal, LsnMarks};

use crate::ast::{Statement, ValueRef, STATEMENT_KINDS};
use crate::error::{HqlError, Result};
use crate::exec::Response;
use crate::parser::parse;
use crate::world::World;

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
    /// Writers currently queued on (or holding) the writer mutex.
    /// Sampled into the `engine.write_queue_depth` gauge at lock
    /// acquisition, so the gauge reports contention a writer actually
    /// observed rather than a racy instantaneous count.
    write_queue: AtomicU64,
    /// The open store's LSN marks, readable without the writer lock
    /// (the server's `STATS` answers on its event loop); replaced when
    /// `OPEN` attaches a journal.
    marks: Mutex<Option<Arc<LsnMarks>>>,
    obs: EngineObs,
}

/// The engine's own metrics scope ([`Engine::metrics`]) and the
/// handles its writer records into, resolved when the engine is built.
struct EngineObs {
    metrics: Registry,
    /// `engine.epoch`: the epoch this engine published last.
    epoch: Gauge,
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
    /// `.maintain` (keeping the live views current, which the
    /// interpreter does for each mutation it applies), `.publish`
    /// (epoch swap, release of the previous epoch's world). The five
    /// are differences of consecutive readings of one clock, so per
    /// write they add up to the time from lock acquisition to
    /// publication exactly. A refused write observes nothing.
    stages: [Histogram; 5],
    /// Live-view maintenance outcomes (`ivm.maintained`, `.fallback`,
    /// `.detached`), one add each per write.
    ivm: [Counter; 3],
}

/// The names of the five write-stage histograms each engine keeps in
/// its [`metrics`](Engine::metrics), in the order a write runs the
/// stages.
pub const WRITE_STAGES: [&str; 5] = [
    "engine.write.clone",
    "engine.write.apply",
    "engine.write.journal",
    "engine.write.maintain",
    "engine.write.publish",
];

/// Indexes into `EngineObs::stages`.
const CLONE: usize = 0;
const APPLY: usize = 1;
const JOURNAL: usize = 2;
const MAINTAIN: usize = 3;
const PUBLISH: usize = 4;

impl Default for EngineObs {
    fn default() -> EngineObs {
        let metrics = Registry::scope();
        EngineObs {
            epoch: metrics.gauge("engine.epoch"),
            queue_depth: metrics.gauge("engine.write_queue_depth"),
            epoch_lag: metrics.gauge("engine.epoch_lag"),
            contended: metrics.counter("engine.write_contended"),
            wait: metrics.histogram("engine.write_wait"),
            stages: WRITE_STAGES.map(|name| metrics.histogram(name)),
            ivm: ["ivm.maintained", "ivm.fallback", "ivm.detached"].map(|n| metrics.counter(n)),
            metrics,
        }
    }
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
    /// Every write statement appends its mutation record — `LET`,
    /// `RENAME`, in-place `CONSOLIDATE`/`EXPLICATE` and writes under
    /// live views included. Only a change no record carries, a whole
    /// new world (`LOAD`, a replica's shipped base), writes a
    /// checkpoint, as `CHECKPOINT` does.
    journal: Option<Journal>,
}

/// One mutating statement's workspace: a private copy-on-write clone
/// of the world plus the journal handle. The engine publishes
/// `txn.world` only if the handler returns `Ok`, so a failed write is
/// invisible — readers and later writers keep the previous epoch.
pub struct WriteTxn<'a> {
    /// The private world copy this transaction mutates.
    pub world: World,
    /// What keeping the views current did over this write's mutations.
    effect: Effect,
    journal: &'a mut Option<Journal>,
    marks: &'a Mutex<Option<Arc<LsnMarks>>>,
    /// The engine's registry, which a journal `OPEN` attaches counts into.
    metrics: &'a Registry,
    /// Time this write has spent staging WAL records so far.
    journal_time: Duration,
}

impl WriteTxn<'_> {
    /// Apply one mutation: apply it to the private world through the
    /// catalog's interpreter, which keeps the views current and counts
    /// what that did in the write's effect, and stage it on the
    /// open store's WAL (skipped when detached) — the value that is
    /// applied is the value that is logged, once the write commits. The
    /// item the interpreter resolved is the return value (`None` for
    /// every mutation but `Assert`/`Retract`).
    fn apply(&mut self, m: &CatalogMutation) -> Result<Option<Item>> {
        let resolved = self.world.apply_mutation_to(m, &mut self.effect)?;
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

    /// Checkpoint the open store from the transaction's current world —
    /// used after a whole new world (`LOAD`, a shipped base), which no
    /// log record carries.
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

/// A pinned read-only view of the engine: one snapshot acquisition
/// serving every statement of a read-only script.
///
/// The serving tier takes one `ReadView` per read-only script, when the
/// script runs, so each statement of it reads the same state. Cloning
/// is an `Arc` bump; the view keeps its world alive (and byte-stable)
/// for as long as any clone exists, exactly like a reader inside
/// [`Engine::execute`].
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

    /// Pin a [`ReadView`] of the current state — one snapshot
    /// acquisition for a read-only script.
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

    /// This engine's own metrics scope: its writes (`engine.*`), live
    /// views (`ivm.maintained`/`fallback`/`detached`), open journal
    /// (`wal.*`, `persist.*`) and, for a replica, `replica.*`.
    pub fn metrics(&self) -> &Registry {
        &self.inner.obs.metrics
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
    /// a WAL-fed [`Replica`](crate::Replica) feeds each delivery of
    /// shipped history to: an optional checkpoint image to start over
    /// from (`base`), then the batch in order. It is the write path of a
    /// mutating statement minus the parsing, run once for the lot: one
    /// world clone (each map node a mutation walks is copied once, then
    /// edited in place), one published epoch. The interpreter keeps the
    /// views current after each mutation, as it did after each
    /// statement on the primary, so a view reaches the state the
    /// primary's reached. All or nothing: if any mutation is refused the
    /// engine publishes nothing and stays on the epoch it had. If a
    /// store is `OPEN` the mutations are journaled (and a `base`
    /// checkpointed, as `LOAD` is).
    ///
    /// `batch` is handed the function that applies one mutation and
    /// calls it on each, in order, passing on its first error. Each
    /// mutation is only lent for its own call, so a replica applies each
    /// shipped record as it is decoded (`|apply| records(apply)`);
    /// a slice is `|apply| mutations.iter().try_for_each(apply)`.
    pub fn apply_mutations(
        &self,
        base: Option<Image>,
        batch: impl FnOnce(&mut dyn FnMut(&CatalogMutation) -> Result<()>) -> Result<()>,
    ) -> Result<()> {
        self.write(|txn| {
            if let Some(image) = base {
                txn.world = World::from_image(image);
                txn.checkpoint()?;
            }
            batch(&mut |m| txn.apply(m).map(drop))
        })
    }

    /// Run one write under the writer lock against a copy-on-write
    /// clone of the published world, and publish the clone as the next
    /// epoch iff `f` (and view maintenance) succeed.
    fn write<T>(&self, f: impl FnOnce(&mut WriteTxn<'_>) -> Result<T>) -> Result<T> {
        let wobs = &self.inner.obs;
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
            effect: Effect::default(),
            journal: &mut writer.journal,
            marks: &self.inner.marks,
            metrics: &self.inner.obs.metrics,
            journal_time: Duration::ZERO,
        };
        let mut spent = [Duration::ZERO; 5];
        spent[CLONE] = lap(&mut boundary);
        // The interpreter keeps the views current with each mutation:
        // one a view refuses (its derivation no longer runs) fails the
        // write atomically, so readers never see a world whose views
        // disagree with their definitions.
        let response = f(&mut txn).inspect_err(|_| txn.discard_staged())?;
        let Effect { views, maintain } = txn.effect;
        spent[APPLY] = lap(&mut boundary).saturating_sub(txn.journal_time + maintain);
        spent[MAINTAIN] = maintain;
        // The write can no longer be refused: its staged mutations reach
        // the log before publication.
        spent[JOURNAL] = txn.journal_time;
        if let Some(j) = txn.journal.as_mut() {
            j.commit()?;
            spent[JOURNAL] += lap(&mut boundary);
        }
        let [maintained, fallback, detached] = &wobs.ivm;
        maintained.add(views.maintained as u64);
        fallback.add(views.fallback as u64);
        detached.add(views.detached as u64);
        let epoch = self.inner.state.publish(Arc::new(txn.world));
        wobs.epoch.set(epoch);
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

/// The domain that contains all the given node names (for resolving
/// `UNDER`/`OF` parents).
fn domain_containing(world: &World, names: &[String]) -> Result<String> {
    let mut hits = world
        .domains()
        .filter(|(_, g)| names.iter().all(|n| g.node(n).is_ok()))
        .map(|(d, _)| d);
    match (hits.next(), hits.next()) {
        (Some(only), None) => Ok(only.to_string()),
        (None, _) => Err(HqlError::Unknown {
            kind: "class",
            name: names.join(", "),
        }),
        _ => Err(HqlError::Execution(format!(
            "parents {names:?} exist in several domains; qualify with distinct names"
        ))),
    }
}

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
    let domain = domain_containing(&txn.world, &parents)?;
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
    let domain = domain_containing(&txn.world, &parents)?;
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
    let before = txn.world.relation(&relation)?.len();
    txn.apply(&CatalogMutation::Consolidate {
        relation: relation.clone(),
    })?;
    // Consolidation only removes tuples (§3.3.1).
    let removed = before - txn.world.relation(&relation)?.len();
    Ok(Response::Ok(format!(
        "consolidated {relation}: removed {removed} redundant tuple(s)"
    )))
}

fn exec_explicate(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Explicate { relation, attrs } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.apply(&CatalogMutation::Explicate {
        relation: relation.clone(),
        attrs,
    })?;
    let tuples = txn.world.relation(&relation)?.len();
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
    // The fresh binding is a live view: from now on every mutation
    // keeps it current.
    txn.apply(&CatalogMutation::DefineView {
        name: name.clone(),
        derivation,
    })?;
    let tuples = txn.world.relation(&name)?.len();
    Ok(Response::Ok(format!(
        "relation {name} defined ({tuples} tuples)"
    )))
}

fn exec_load(txn: &mut WriteTxn<'_>, stmt: Statement) -> Result<Response> {
    let Statement::Load { path } = stmt else {
        unreachable!("dispatched by kind")
    };
    txn.world = World::from_image(Image::load(&path)?);
    txn.checkpoint()?;
    Ok(Response::Ok(format!(
        "session restored from {path} ({} domain(s), {} relation(s))",
        txn.world.domain_names().count(),
        txn.world.relation_names().count()
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
    let journal = Journal::begin(path, r.next_lsn(), &world.to_image(), group, txn.metrics)?;
    txn.world = world;
    txn.attach(journal);
    Ok(Response::Ok(format!(
        "store {dir} open at lsn {} ({} domain(s), {} relation(s); \
         {} record(s) replayed, {} byte(s) truncated)",
        r.next_lsn(),
        txn.world.domain_names().count(),
        txn.world.relation_names().count(),
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
    txn.apply(&CatalogMutation::RenameRelation {
        from: from.clone(),
        to: to.clone(),
    })?;
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
            attributes: rel.schema().signature(),
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
        assert_eq!(live, HqlError::from(replayed));
        assert_eq!(live.to_string(), "unknown domain \"Nope\"");
        assert_eq!(
            Engine::new()
                .apply_mutations(None, |apply| apply(&m))
                .unwrap_err(),
            live
        );
    }

    /// [`Engine::apply_mutations`] is the statement write path minus the
    /// parsing, once per batch: one epoch however many mutations, and
    /// nothing published — not even the mutations before it — when one
    /// is refused.
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

        // A batch that writes one item three times is still one epoch.
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
        assert_eq!(engine.epoch(), 2);

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
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let mut round = 0u32;
        let engine = loop {
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
            // This engine's own scope: no other engine records into it.
            if engine.inner.obs.contended.get() > 0 {
                break engine;
            }
        };
        let wobs = &engine.inner.obs;
        assert_eq!(wobs.wait.count(), 1 + 4 * 50, "every lock wait is sampled");
        // The depth gauge was last set by some writer that held the
        // lock; whatever it saw, at least itself was queued.
        assert!(wobs.queue_depth.get() >= 1);
        // The lag gauge was set alongside it and is bounded by the
        // writes a round publishes.
        assert!(wobs.epoch_lag.get() <= 4 * 50);
        assert_eq!(wobs.epoch.get(), engine.epoch());
    }
}
