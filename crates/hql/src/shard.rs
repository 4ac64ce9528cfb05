//! One sharded coordinator over N [`ExecutorHandle`] shards.
//!
//! [`Router`] hash-partitions the catalog by **relation name**
//! ([`default_shard`]) across N shards, while staying **domain-subtree
//! aware**: domain hierarchies are replicated to every shard (domain
//! DDL — `CREATE DOMAIN`/`CLASS`/`INSTANCE`, `PREFER`, `DROP DOMAIN` —
//! broadcasts), so the name-hash partition never splits a domain's
//! subsumption structure and any relation can resolve its values on
//! whichever shard owns it. A shard is anything behind the trait: an
//! in-process [`Engine`] ([`ShardedEngine`]), a wire client to a shard
//! server (`hrdm-server`'s `WireRouter`), or a test's fake. The router
//! talks to its shards in HQL alone, so every backend gets the same
//! rules:
//!
//! * **Statements route**: a relation-scoped statement, read or write,
//!   goes to the owning shard; `LET`, `EXPLAIN` and `TRACE` go to the
//!   (single) shard holding all their sources; `SHOW RELATIONS` gathers
//!   from every shard.
//! * **`RENAME RELATION` migrates** the relation when the name hash
//!   moves it to a different shard: the source shard's `DUMP` script is
//!   replayed on the destination, then the source is dropped.
//! * **`DROP DOMAIN` asks every shard** for `SHOW RELATIONS OVER` the
//!   domain first, so the in-use guard sees what the shards hold, not
//!   what this router happened to create.
//! * **Errors merge** under the existing stable wire codes: a shard's
//!   [`ExecError`] crosses the coordinator unchanged.
//!
//! A read that program-order follows a write through one router always
//! observes it, with no bookkeeping here: a shard acknowledges a write
//! only after publishing it (`Engine::execute_statement` returns after
//! the snapshot cell's publication; a shard server replies after it),
//! and a later statement to the same shard loads its snapshot after
//! that.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, RwLock};

use hrdm_core::derivation::names;
use hrdm_core::CoreError;

use crate::ast::{Derivation, Source, Statement};
use crate::engine::Engine;
use crate::error::HqlError;
use crate::executor::{ExecError, ExecResult, ExecutorHandle};
use crate::lexer::lex;
use crate::parser::parse;

/// The default placement of a relation name: FNV-1a over the name,
/// modulo the shard count. Routing-table entries (tracking `LET`
/// colocations and `RENAME` moves) override it.
pub fn default_shard(relation: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in relation.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Collect the named base relations a derivation scans (recursing into
/// nested derivations).
fn derivation_sources(derivation: &Derivation, out: &mut BTreeSet<String>) {
    let mut source = |s: &Source| match s {
        Source::Named(name) => {
            out.insert(name.clone());
        }
        Source::Derived(inner) => derivation_sources(inner, out),
    };
    match derivation {
        Derivation::Union(a, b)
        | Derivation::Intersect(a, b)
        | Derivation::Difference(a, b)
        | Derivation::Join(a, b) => {
            source(a);
            source(b);
        }
        Derivation::Project(a, _)
        | Derivation::Select(a, _)
        | Derivation::Consolidated(a)
        | Derivation::Explicated(a, _) => source(a),
    }
}

/// A failure on shard `k` after the step that decided the statement's
/// verdict: the shards no longer agree, or one became unreachable
/// mid-operation. The shard's own error rides along in the message.
fn diverged(k: usize, step: &str, e: &ExecError) -> ExecError {
    ExecError::new("execution", format!("shard {k} diverged on {step}: {e}"))
}

/// A coordinator that partitions one logical catalog across N shards
/// behind the same [`ExecutorHandle`] surface as a single [`Engine`].
/// See the module docs for the routing rules.
///
/// Statements that are inherently whole-catalog (`SAVE`, `LOAD`,
/// `OPEN`, `CHECKPOINT`) report kind `"unsupported"` through the
/// coordinator — durability composes per shard instead (each shard can
/// be `OPEN`ed individually before serving).
pub struct Router<H> {
    shards: Vec<H>,
    /// Where this router placed each relation it created, `LET`-bound
    /// or renamed; any other name lives at its hash.
    routes: RwLock<BTreeMap<String, usize>>,
    /// Serializes route-changing DDL (broadcasts, create/drop/rename
    /// relation, `LET`) so a `DROP DOMAIN` probe can't race a `CREATE
    /// RELATION` into an inconsistent cross-shard state. Row writes
    /// (`ASSERT`, …) and reads do not take it.
    ddl: Mutex<()>,
}

/// The single-process coordinator: N in-process engine shards.
pub type ShardedEngine = Router<Engine>;

impl Router<Engine> {
    /// A coordinator over `shards` fresh, empty engine shards (at
    /// least one).
    pub fn new(shards: usize) -> ShardedEngine {
        Router::over((0..shards.max(1)).map(|_| Engine::new()).collect())
    }
}

impl<H: ExecutorHandle> Router<H> {
    /// A coordinator over the given shards, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn over(shards: Vec<H>) -> Router<H> {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        Router {
            shards,
            routes: RwLock::new(BTreeMap::new()),
            ddl: Mutex::new(()),
        }
    }

    /// The shards, in shard order — e.g. to put each engine behind its
    /// own `hrdm-server` event loop.
    pub fn shards(&self) -> &[H] {
        &self.shards
    }

    /// The shard currently owning `relation`: its routing-table entry
    /// if the coordinator placed it, the name hash otherwise.
    pub fn owner_of(&self, relation: &str) -> usize {
        self.route_of(relation)
            .unwrap_or_else(|| default_shard(relation, self.shards.len()))
    }

    /// The routing-table entry for `relation`, if the coordinator has
    /// placed it (created, `LET`-bound, or renamed through here).
    pub fn route_of(&self, relation: &str) -> Option<usize> {
        let routes = self.routes.read().expect("routes lock poisoned");
        routes.get(relation).copied()
    }

    fn ddl_lock(&self) -> MutexGuard<'_, ()> {
        self.ddl.lock().expect("ddl lock poisoned")
    }

    /// The single shard holding **all** of a derivation's sources.
    /// Cross-shard derivations are not evaluated; colocate the sources
    /// (they hash together or were `LET` on one shard) or run the
    /// derivation against one shard directly.
    fn single_shard_of(&self, derivation: &Derivation) -> ExecResult<usize> {
        let mut sources = BTreeSet::new();
        derivation_sources(derivation, &mut sources);
        let shards: BTreeSet<usize> = sources.iter().map(|s| self.owner_of(s)).collect();
        match shards.len() {
            0 => Err(ExecError::new("unsupported", "derivation has no sources")),
            1 => Ok(shards.into_iter().next().expect("len checked")),
            _ => Err(ExecError::new(
                "unsupported",
                format!(
                    "derivation spans shards {shards:?} (sources {sources:?}); \
                     cross-shard derivations are not supported"
                ),
            )),
        }
    }

    /// Run a statement on every shard, in shard order, and return every
    /// response. Shard 0 goes first: since domain state is identical on
    /// every shard by induction, its verdict is the statement's
    /// verdict, and a failure there leaves all shards untouched. A
    /// later shard failing has [`diverged`]; shards before it keep the
    /// statement's effect. Callers that write hold the DDL lock.
    fn broadcast(&self, stmt: &Statement) -> ExecResult<Vec<String>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for (k, shard) in self.shards.iter().enumerate() {
            let response = shard.execute_statement(stmt.clone());
            out.push(match k {
                0 => response?,
                _ => response.map_err(|e| diverged(k, &format!("broadcast of `{stmt}`"), &e))?,
            });
        }
        Ok(out)
    }

    /// Run route-changing DDL on shard `k`; on success drop `remove`
    /// from the routing table and point `insert` at `k`. The caller
    /// holds the DDL lock.
    fn reroute(
        &self,
        k: usize,
        stmt: &Statement,
        remove: Option<&str>,
        insert: Option<&str>,
    ) -> ExecResult<String> {
        let response = self.shards[k].execute_statement(stmt.clone())?;
        let mut routes = self.routes.write().expect("routes lock poisoned");
        if let Some(name) = remove {
            routes.remove(name);
        }
        if let Some(name) = insert {
            routes.insert(name.to_string(), k);
        }
        Ok(response)
    }

    /// Rename, migrating the relation when the name hash places the new
    /// name on a different shard: the source shard's `DUMP` (schema,
    /// preemption mode, tuples — domains are already everywhere) is
    /// replayed on the destination, then the source is dropped. A
    /// failure before the source drop rolls the destination back, so
    /// the old name stays intact. If the source drop reports a failure,
    /// the source is asked whether it still holds the old name: if not,
    /// the drop applied and the rename completes; if so (or if it cannot
    /// say), both copies remain and the old name stays routed (never
    /// destroy what may be the only copy).
    fn rename(&self, stmt: &Statement, from: &str, to: &str) -> ExecResult<String> {
        let _ddl = self.ddl_lock();
        // The new name goes where it is routed (its hash, unless this
        // router placed that name elsewhere and must be told it exists).
        let (src, dst) = (self.owner_of(from), self.owner_of(to));
        if src == dst {
            return self.reroute(src, stmt, Some(from), Some(to));
        }
        // Kind "unknown" if `from` is missing, "unsupported" if it is a
        // live view (dropping it below would strand its definition).
        let dump = self.shards[src].execute_statement(Statement::Dump {
            relation: from.to_string(),
            to: to.to_string(),
        })?;
        let script = parse(&dump)?;
        let (create, rows) = script
            .split_first()
            .ok_or_else(|| ExecError::new("protocol", format!("shard {src} dumped nothing")))?;
        // Kind "duplicate" if the new name exists — source untouched.
        self.shards[dst].execute_statement(create.clone())?;
        let drop_relation = |name: &str| Statement::DropRelation {
            name: name.to_string(),
        };
        for step in rows {
            if let Err(e) = self.shards[dst].execute_statement(step.clone()) {
                let _ = self.shards[dst].execute_statement(drop_relation(to));
                return Err(diverged(dst, &format!("replay of `{step}`"), &e));
            }
        }
        if let Err(e) = self.shards[src].execute_statement(drop_relation(from)) {
            // The drop may have applied before its reply was lost.
            let kept = self
                .listed(src)
                .map_or(true, |names| names.iter().any(|n| n == from));
            if kept {
                let dropping = format!("dropping {from:?} (shard {dst} now holds {to:?} too)");
                return Err(diverged(src, &dropping, &e));
            }
        }
        let mut routes = self.routes.write().expect("routes lock poisoned");
        routes.remove(from);
        routes.insert(to.to_string(), dst);
        Ok(format!("relation {from} renamed to {to}"))
    }

    /// Route one statement. Reads and row writes take no coordinator
    /// lock beyond the routing-table read.
    fn run(&self, stmt: Statement) -> ExecResult<String> {
        let first = |mut responses: Vec<String>| responses.swap_remove(0);
        match &stmt {
            // Reads and writes in place on the one relation they name.
            Statement::Assert { relation, .. }
            | Statement::Retract { relation, .. }
            | Statement::Holds { relation, .. }
            | Statement::Holds3 { relation, .. }
            | Statement::Why { relation, .. }
            | Statement::Check { relation }
            | Statement::Show { relation }
            | Statement::Consolidate { relation }
            | Statement::Explicate { relation, .. }
            | Statement::SetPreemption { relation, .. }
            | Statement::Count { relation, .. }
            | Statement::Dump { relation, .. } => {
                let k = self.owner_of(relation);
                self.shards[k].execute_statement(stmt)
            }
            Statement::CreateDomain { .. }
            | Statement::CreateClass { .. }
            | Statement::CreateInstance { .. }
            | Statement::Prefer { .. } => {
                let _ddl = self.ddl_lock();
                self.broadcast(&stmt).map(first)
            }
            Statement::DropDomain { name } => {
                let _ddl = self.ddl_lock();
                // The in-use guard must see every shard's relations,
                // not just one's: ask them all before dropping anywhere.
                let users = self.gather(&Statement::ShowRelations {
                    over: Some(name.clone()),
                })?;
                if let Some(by) = users.into_iter().next() {
                    let (kind, name) = ("domain", name.clone());
                    return Err(HqlError::Core(CoreError::InUse { kind, name, by }).into());
                }
                self.broadcast(&stmt).map(first)
            }
            Statement::CreateRelation { name, .. } => {
                let _ddl = self.ddl_lock();
                self.reroute(self.owner_of(name), &stmt, None, Some(name))
            }
            Statement::DropRelation { name } => {
                let _ddl = self.ddl_lock();
                self.reroute(self.owner_of(name), &stmt, Some(name), None)
            }
            Statement::RenameRelation { from, to } => self.rename(&stmt, from, to),
            Statement::Let { name, derivation } => {
                let _ddl = self.ddl_lock();
                let k = self.single_shard_of(derivation)?;
                // The view lands with its sources; shard `k` refuses a
                // name it holds, but only the name's owner can refuse
                // one held elsewhere.
                let home = self.owner_of(name);
                if home != k && self.listed(home)?.iter().any(|n| n == name) {
                    let (kind, name) = ("relation", name.clone());
                    return Err(HqlError::Duplicate { kind, name }.into());
                }
                self.reroute(k, &stmt, None, Some(name))
            }
            Statement::Explain { derivation } | Statement::Trace { derivation } => {
                let k = self.single_shard_of(derivation)?;
                self.shards[k].execute_statement(stmt)
            }
            // Domains are on every shard.
            Statement::ShowDomain { .. } => self.shards[0].execute_statement(stmt),
            Statement::ShowRelations { .. } => Ok(names(&self.gather(&stmt)?)),
            Statement::Save { .. }
            | Statement::Load { .. }
            | Statement::Open { .. }
            | Statement::Checkpoint => Err(ExecError::new(
                "unsupported",
                format!(
                    "`{stmt}` is whole-catalog; it does not route through a sharded \
                     coordinator (open each shard individually)"
                ),
            )),
        }
    }

    /// The union of every shard's `SHOW RELATIONS` listing, in name
    /// order — the order one engine holding them all would list.
    fn gather(&self, listing: &Statement) -> ExecResult<Vec<String>> {
        let mut names = BTreeSet::new();
        for body in self.broadcast(listing)? {
            names.extend(listed_names(&body)?);
        }
        Ok(names.into_iter().collect())
    }

    /// The relations shard `k` holds.
    fn listed(&self, k: usize) -> ExecResult<Vec<String>> {
        let body = self.shards[k].execute_statement(Statement::ShowRelations { over: None })?;
        listed_names(&body)
    }
}

/// The names in a `SHOW RELATIONS` response.
fn listed_names(body: &str) -> ExecResult<Vec<String>> {
    Ok(lex(body)?
        .iter()
        .filter_map(|t| t.as_name().map(String::from))
        .collect())
}

impl<H: ExecutorHandle> ExecutorHandle for Router<H> {
    fn execute(&self, script: &str) -> ExecResult<Vec<String>> {
        parse(script)?.into_iter().map(|s| self.run(s)).collect()
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        let statements = parse(script)?;
        if !statements.iter().all(Statement::is_read_only) {
            return Err(ExecError::new(
                "unsupported",
                "script contains a mutating statement; route it through execute",
            ));
        }
        if min_epoch > 0 {
            let epoch = self.last_epoch()?;
            if epoch < min_epoch {
                return Err(ExecError::new(
                    "stale",
                    format!(
                        "coordinator at epoch {epoch} is below the requested floor {min_epoch}"
                    ),
                ));
            }
        }
        statements.into_iter().map(|s| self.run(s)).collect()
    }

    /// The coordinator epoch: the sum of the shard epochs (monotone —
    /// every routed or broadcast write advances it by at least one).
    fn last_epoch(&self) -> ExecResult<u64> {
        self.shards.iter().map(H::last_epoch).sum()
    }

    fn probe(&self) -> ExecResult<String> {
        // One read per shard, so the total is the sum of the lines
        // under it even while writes land.
        let epochs: Vec<u64> = self
            .shards
            .iter()
            .map(H::last_epoch)
            .collect::<ExecResult<_>>()?;
        let total: u64 = epochs.iter().sum();
        let mut out = format!("epoch: {total}\nshards: {}", epochs.len());
        for (k, epoch) in epochs.iter().enumerate() {
            out.push_str(&format!("\nshard-{k}-epoch: {epoch}"));
        }
        let routes = self.routes.read().expect("routes lock poisoned");
        out.push_str(&format!("\nrouted-relations: {}", routes.len()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shard_is_stable_and_in_range() {
        for n in 1..8 {
            for name in ["Flies", "Sizes", "Colors", "R1", "R2"] {
                let k = default_shard(name, n);
                assert!(k < n);
                assert_eq!(k, default_shard(name, n), "deterministic");
            }
        }
    }
}
