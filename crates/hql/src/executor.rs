//! Location-transparent execution: the [`ExecutorHandle`] trait.
//!
//! Callers that program against `ExecutorHandle` never assume a local
//! [`Engine`]: the same code drives
//!
//! * the embedded [`Engine`] (implemented here),
//! * a sharded coordinator ([`Router`](crate::shard::Router)) over
//!   any of the others,
//! * a WAL-fed read replica ([`Replica`](crate::replica::Replica)),
//! * a remote server over HRDM/1 (`hrdm-server`'s `proto::Client`).
//!
//! Responses cross the boundary **rendered**: one string per statement,
//! byte-identical whether the statement ran embedded or over the wire
//! (the wire protocol itself carries rendered responses). Failures
//! cross as [`ExecError`] — the stable machine-readable kind code
//! every backend already speaks ([`HqlError::kind`], the same codes
//! `hrdm-server` sends in `ERR` replies) plus the rendered message.
//!
//! Three transport-level kinds join the statement-level codes:
//! `"stale"` (a read pinned below the requested epoch floor),
//! `"unsupported"` (the backend cannot run the statement — e.g. a
//! mutating script through [`ExecutorHandle::execute_read`], a write
//! against a read replica, `OPEN` through a sharded coordinator), and
//! `"busy"`/`"io"` from remote transports.

use crate::ast::Statement;
use crate::engine::Engine;
use crate::error::HqlError;
use crate::exec::Response;
use crate::parser::parse;

/// Result alias for handle-level execution.
pub type ExecResult<T> = std::result::Result<T, ExecError>;

/// A location-independent execution failure: the stable kind code plus
/// the rendered message, exactly what the wire protocol's `ERR` reply
/// carries. Embedded backends build it from [`HqlError`]; remote
/// backends parse it off the wire — either way `kind()` is comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    kind: String,
    message: String,
}

impl ExecError {
    /// Build an error from a kind code and message.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> ExecError {
        ExecError {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// The stable machine-readable kind code (`"parse"`, `"unknown"`,
    /// `"duplicate"`, `"in-use"`, `"io"`, `"stale"`, `"unsupported"`, …).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The rendered, human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.kind)
    }
}

impl std::error::Error for ExecError {}

impl From<HqlError> for ExecError {
    fn from(e: HqlError) -> ExecError {
        ExecError {
            kind: e.kind().to_string(),
            message: e.to_string(),
        }
    }
}

/// Render responses the way the serving tier does: one string per
/// statement, via each [`Response`]'s `Display`. This is the byte
/// representation parity harnesses compare across backends.
pub fn render(responses: &[Response]) -> Vec<String> {
    responses.iter().map(ToString::to_string).collect()
}

/// A location-transparent execution endpoint.
///
/// All methods take `&self`: every implementation is internally
/// synchronized (the embedded engine's snapshot/writer split, a mutex
/// around a wire connection), so one handle can be shared across
/// threads like an [`Engine`] clone.
pub trait ExecutorHandle: Send + Sync {
    /// Execute a script — reads and writes — returning one rendered
    /// response per statement. Statement semantics (atomic failed
    /// writes, script stopping at the first error) are the backend's.
    fn execute(&self, script: &str) -> ExecResult<Vec<String>>;

    /// Execute a **read-only** script against a snapshot whose epoch is
    /// at least `min_epoch` (pass `0` for "any current snapshot").
    ///
    /// Errors with kind `"unsupported"` if the script mutates, and
    /// `"stale"` if the backend cannot observe `min_epoch` — a replica
    /// that has not caught up, or a future epoch nothing has published.
    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>>;

    /// The epoch of the most recent committed write this handle can
    /// observe (monotone per handle; comparable only within one
    /// backend's epoch space).
    fn last_epoch(&self) -> ExecResult<u64>;

    /// A small rendered telemetry report (`key: value` lines); the
    /// first line is always `epoch: <n>`.
    fn probe(&self) -> ExecResult<String>;

    /// Execute one parsed statement, returning its rendered response —
    /// what a coordinator calls per routed statement. The default
    /// renders the statement and goes through [`execute`](Self::execute)
    /// (`Display` → `parse` is a lossless round trip); a backend that
    /// holds the engine runs the AST directly instead.
    fn execute_statement(&self, stmt: Statement) -> ExecResult<String> {
        let mut out = self.execute(&stmt.to_string())?;
        match (out.pop(), out.is_empty()) {
            (Some(response), true) => Ok(response),
            _ => Err(ExecError::new(
                "protocol",
                format!("backend did not answer `{stmt}` with exactly one response"),
            )),
        }
    }
}

impl ExecutorHandle for Engine {
    fn execute(&self, script: &str) -> ExecResult<Vec<String>> {
        Engine::execute(self, script)
            .map(|rs| rs.into_iter().map(Response::into_text).collect())
            .map_err(ExecError::from)
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        let view = self.read_view();
        if view.epoch() < min_epoch {
            return Err(ExecError::new(
                "stale",
                format!(
                    "snapshot at epoch {} is below the requested floor {min_epoch}",
                    view.epoch()
                ),
            ));
        }
        let statements = parse(script)?;
        if !statements.iter().all(Statement::is_read_only) {
            return Err(ExecError::new(
                "unsupported",
                "script contains a mutating statement; route it through execute",
            ));
        }
        Ok(view.execute_each(statements, Response::into_text)?)
    }

    fn last_epoch(&self) -> ExecResult<u64> {
        Ok(self.epoch())
    }

    fn probe(&self) -> ExecResult<String> {
        let mut out = format!(
            "epoch: {}\nwrite-queue-depth: {}",
            self.epoch(),
            self.write_queue_depth()
        );
        if let Some(lsns) = self.lsn_probe() {
            out.push('\n');
            out.push_str(&lsns);
        }
        Ok(out)
    }

    fn execute_statement(&self, stmt: Statement) -> ExecResult<String> {
        Engine::execute_statement(self, stmt)
            .map(Response::into_text)
            .map_err(ExecError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_implements_the_handle() {
        let engine = Engine::new();
        let handle: &dyn ExecutorHandle = &engine;
        let out = handle
            .execute("CREATE DOMAIN D; CREATE CLASS A UNDER D;")
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], "domain D created");
        assert_eq!(handle.last_epoch().unwrap(), 2);
        assert_eq!(
            handle.probe().unwrap(),
            "epoch: 2\nwrite-queue-depth: 0",
            "no store open, no LSN lines"
        );
        // Rendered output through the handle equals the embedded render.
        let direct = render(&engine.execute("SHOW DOMAIN D;").unwrap());
        assert_eq!(handle.execute_read("SHOW DOMAIN D;", 2).unwrap(), direct);
    }

    #[test]
    fn probe_reports_the_open_stores_lsns() {
        let dir = std::env::temp_dir().join(format!("hrdm_probe_lsns_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new();
        engine
            .execute(&format!("OPEN \"{}\" SYNC EVERY 4;", dir.display()))
            .unwrap();
        let lsn_line = |name: &str| -> u64 {
            let probe = engine.probe().unwrap();
            let line = probe.lines().find_map(|l| l.strip_prefix(name));
            line.unwrap_or_else(|| panic!("no {name:?} in {probe}"))
                .parse()
                .unwrap()
        };
        for k in 1..=10u64 {
            engine.execute(&format!("CREATE DOMAIN D{k};")).unwrap();
            assert_eq!(lsn_line("journal-lsn: "), k);
            assert!(k - lsn_line("durable-lsn: ") < 4, "SYNC EVERY 4");
        }
        engine.sync().unwrap();
        assert!(engine
            .probe()
            .unwrap()
            .ends_with("\njournal-lsn: 10\ndurable-lsn: 10"));
        engine.execute("CHECKPOINT;").unwrap();
        assert_eq!(engine.durable_lsn(), Some(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_read_enforces_the_contract() {
        let engine = Engine::new();
        engine.execute("CREATE DOMAIN D;").unwrap();
        let handle: &dyn ExecutorHandle = &engine;
        let e = handle.execute_read("SHOW DOMAIN D;", 99).unwrap_err();
        assert_eq!(e.kind(), "stale");
        let e = handle.execute_read("CREATE DOMAIN E;", 0).unwrap_err();
        assert_eq!(e.kind(), "unsupported");
        // Statement-level failures keep their stable kinds.
        let e = handle.execute("CREATE DOMAIN D;").unwrap_err();
        assert_eq!(e.kind(), "duplicate");
        let e = handle.execute_read("SHOW DOMAIN Nope;", 0).unwrap_err();
        assert_eq!(e.kind(), "unknown");
    }
}
