//! The serving fixtures the soak, pipeline and chaos suites share: the
//! Fig. 1 world as a bootstrap script, a read mix and a write mix over
//! it, the reply a serial engine gives, and a server's own counts.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use hrdm::prelude::Engine;
use hrdm_server::{Reply, ServerHandle};

/// The Fig. 1 world as an HQL bootstrap script (what `hrdm-serve
/// --bootstrap` reads in the binary soak).
pub fn serving_bootstrap() -> &'static str {
    r#"
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Canary UNDER Bird;
    CREATE CLASS Penguin UNDER Bird;
    CREATE CLASS "Galapagos Penguin" UNDER Penguin;
    CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;
    CREATE INSTANCE Tweety OF Canary;
    CREATE INSTANCE Paul OF "Galapagos Penguin";
    CREATE INSTANCE Patricia OF "Galapagos Penguin", "Amazing Flying Penguin";
    CREATE INSTANCE Pamela OF "Amazing Flying Penguin";
    CREATE INSTANCE Peter OF "Amazing Flying Penguin";
    CREATE RELATION Flies (Creature: Animal);
    ASSERT Flies (ALL Bird);
    ASSERT NOT Flies (ALL Penguin);
    ASSERT Flies (ALL "Amazing Flying Penguin");
    ASSERT Flies (Peter);
    "#
}

/// Deterministic read-only statement mix, each a complete HQL statement
/// against the [`serving_bootstrap`] world. Some name instances created
/// only by [`serving_writes`], so a soak run exercises the existence
/// transition too.
pub fn serving_queries() -> Vec<&'static str> {
    vec![
        "HOLDS Flies (Tweety);",
        "HOLDS Flies (Paul);",
        "HOLDS Flies (Patricia);",
        "COUNT Flies;",
        "CHECK Flies;",
        "SHOW Flies;",
        "HOLDS Flies (P0);",
        "HOLDS Flies (P4);",
        "HOLDS Flies (P9);",
        "COUNT Flies BY Creature;",
    ]
}

/// Deterministic write mix: single-statement mutations, one snapshot
/// publication each.
pub fn serving_writes() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..10 {
        out.push(format!("CREATE INSTANCE P{i} OF Penguin;"));
        out.push(format!("ASSERT Flies (P{i});"));
    }
    out
}

/// The reply a serial engine gives `statement`, rendered exactly the
/// way the server renders it on the wire.
pub fn serial_reply(engine: &Engine, statement: &str) -> Reply {
    match engine.execute(statement) {
        Ok(responses) => Reply::Ok(responses.iter().map(ToString::to_string).collect()),
        Err(e) => Reply::Err {
            kind: e.kind().to_string(),
            message: e.to_string(),
        },
    }
}

/// The server's own count of `name`, a `server.*` counter of its
/// metrics scope.
pub fn count(handle: &ServerHandle, name: &'static str) -> u64 {
    handle.metrics().counter(name).get()
}

/// Requests the server answered `ERR` (`STATS`' `errors:`).
pub fn errors(handle: &ServerHandle) -> u64 {
    [
        "server.query_error",
        "server.timeout",
        "server.protocol_error",
    ]
    .map(|name| count(handle, name))
    .iter()
    .sum()
}
