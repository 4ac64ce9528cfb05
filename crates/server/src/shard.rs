//! The wire-level sharded coordinator: [`hrdm::hql::shard::Router`]
//! over one [`Client`] connection per shard server.
//!
//! Each shard is an `hrdm-server` event loop serving that shard's
//! engine (see `Router::shards` for the single-process wiring, or point
//! each connection at a separate process). All routing lives in the
//! router, which reaches its shards through
//! [`ExecutorHandle`](hrdm::hql::ExecutorHandle) alone, so this backend
//! supports exactly what the in-process one does. One `QUERY` round
//! trip per routed statement, N per broadcast, N probes + N drops for
//! `DROP DOMAIN`, 2 + one per tuple for a cross-shard `RENAME`.

use std::io;
use std::net::ToSocketAddrs;

use hrdm::hql::shard::Router;

use crate::proto::Client;

/// A coordinator over N remote shard servers. Build one over
/// already-connected clients with [`Router::over`], or with [`connect`].
pub type WireRouter = Router<Client>;

/// Connect one `HRDM/1` client per shard address, in shard order, and
/// front them with a router.
pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<WireRouter> {
    if addrs.is_empty() {
        let reason = "a router needs at least one shard address";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, reason));
    }
    let shards = addrs
        .iter()
        .map(Client::connect)
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Router::over(shards))
}
