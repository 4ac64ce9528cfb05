//! The seven workloads, and the calls into the program they share.

pub mod derive;
pub mod durable;
pub mod sharded;
pub mod wire;

use std::collections::BTreeMap;

use hrdm_hql::parser::parse;
use hrdm_hql::{render, Engine, ExecError, ExecResult, ExecutorHandle};

use crate::gen::{self, Op, OpClass};
use crate::harness::Metrics;
use crate::span::{Span, SpanId, Tracer, NO_PARENT};
use crate::stats::percentile;

/// Execute one operation on an embedded engine. Untraced, this is the
/// one public call a user makes; traced, the same work is split at the
/// public seams `parse` → `execute_statement` → `render`, each in a
/// span under the operation's root span.
pub fn execute_embedded(
    engine: &Engine,
    op: &Op,
    request: u64,
    tracer: Option<&mut Tracer>,
) -> ExecResult<Vec<String>> {
    let Some(tracer) = tracer else {
        return ExecutorHandle::execute(engine, &op.text);
    };
    tracer.span("hql.execute", NO_PARENT, request, |t, root| {
        staged(engine, op, request, t, root)
    })
}

/// The three engine stages of one operation as spans under `parent`.
fn staged(
    engine: &Engine,
    op: &Op,
    request: u64,
    t: &mut Tracer,
    parent: SpanId,
) -> ExecResult<Vec<String>> {
    let exec_name = match op.class {
        OpClass::Read => "hql.exec_read",
        OpClass::Write => "hql.exec_write",
        OpClass::Derive => "hql.exec_derive",
        OpClass::Restart => "hql.exec_open",
        OpClass::CatchUp => unreachable!("a replica sync is not a statement"),
    };
    let statements = t
        .span("hql.parse", parent, request, |_, _| parse(&op.text))
        .map_err(ExecError::from)?;
    let mut responses = Vec::with_capacity(statements.len());
    for stmt in statements {
        let response = t
            .span(exec_name, parent, request, |_, _| {
                engine.execute_statement(stmt)
            })
            .map_err(ExecError::from)?;
        responses.push(response);
    }
    Ok(t.span("hql.render", parent, request, |_, _| render(&responses)))
}

/// Replay `ops` in process, stage by stage, on `engine` (which must be
/// in the state the stream expects). With `wire` the HRDM/1 framing
/// work of both directions is staged too. Returns the median duration
/// of every stage in nanoseconds.
pub fn replay_stages(
    engine: &Engine,
    ops: &[Op],
    wire: bool,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    use hrdm_server::proto::encode_frame;
    use hrdm_server::{FrameReader, Reply, Request};

    let first = tracer.spans().len();
    for (i, op) in ops.iter().enumerate() {
        let request = i as u64;
        tracer.span("replay", NO_PARENT, request, |t, root| {
            if !wire {
                let _ = staged(engine, op, request, t, root);
                return;
            }
            let mut wire_bytes = Vec::new();
            t.span("server.frame_encode", root, request, |_, _| {
                encode_frame(&Request::Query(op.text.clone()).render(), &mut wire_bytes)
            });
            let decoded = t.span("server.frame_decode", root, request, |_, _| {
                let mut reader = FrameReader::new();
                reader.push(&wire_bytes);
                let frame = reader.next_frame().expect("own frame decodes");
                Request::parse(&frame.expect("one whole frame"))
            });
            assert!(matches!(decoded, Ok(Request::Query(_))));
            let parts = staged(engine, op, request, t, root).expect("replayed statement succeeds");
            t.span("server.reply_encode", root, request, |_, _| {
                let mut reply_bytes = Vec::new();
                encode_frame(&Reply::Ok(parts).render(), &mut reply_bytes);
                let mut reader = FrameReader::new();
                reader.push(&reply_bytes[..]);
                let frame = reader.next_frame().expect("own frame decodes");
                Reply::parse(&frame.expect("one whole frame")).expect("own reply parses")
            });
        });
    }
    assert_eq!(tracer.dropped, 0, "the stage replay must fit the tracer");
    medians_by_name(&tracer.spans()[first..])
}

/// Median duration (ns) of the spans of each name; `hql.exec` pools
/// the statement-execution spans of every class.
pub fn medians_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        by_name.entry(s.name).or_default().push(duration);
        if s.name.starts_with("hql.exec_") {
            by_name.entry("hql.exec").or_default().push(duration);
        }
    }
    by_name
        .into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            (name, percentile(&d, 0.5) as f64)
        })
        .collect()
}

/// Put the engine-stage medians of a replay into the layer metrics.
pub fn engine_stage_metrics(stages: &BTreeMap<&'static str, f64>, m: &mut Metrics) {
    let ns = |name: &str| stages.get(name).copied().unwrap_or(0.0);
    m.insert("hql.parse_ns", ns("hql.parse"));
    m.insert("hql.exec_read_ns", ns("hql.exec_read"));
    m.insert("hql.exec_write_us", ns("hql.exec_write") / 1e3);
    m.insert("hql.render_ns", ns("hql.render"));
}

/// The size of what `engines` hold: the bytes of their checkpoint
/// images over the atoms in the extensions of the world's relations —
/// the paper's storage claim, measured on the catalog as it is served.
/// Also checks that every populated relation has exactly the extension
/// size the generator promises. Returns mismatches.
pub fn image_bytes_per_atom(
    engines: &[&Engine],
    handle: &dyn ExecutorHandle,
    world: &gen::World,
    m: &mut Metrics,
) -> u64 {
    let image_bytes: usize = engines
        .iter()
        .map(|e| {
            let image = e.snapshot().to_image();
            image.to_bytes().expect("catalog image encodes").len()
        })
        .sum();
    let (mut atoms, mut mismatches) = (0usize, 0u64);
    for (name, promised) in world.relation_names() {
        let reply = handle
            .execute_read(&format!("COUNT {name};"), 0)
            .expect("COUNT of a generated relation");
        // "<name> has <n> atom(s) in its extension"
        let n: usize = reply[0]
            .split_whitespace()
            .nth(2)
            .and_then(|n| n.parse().ok())
            .expect("COUNT reply carries the atom count");
        if promised.is_some_and(|p| p != n) {
            mismatches += 1;
        }
        atoms += n;
    }
    m.insert("image_bytes_per_atom", image_bytes as f64 / atoms as f64);
    mismatches
}

#[cfg(test)]
mod tests {
    use super::wire::Profile;
    use super::*;
    use crate::gen::{Mix, World, WorldShape};

    /// How many statements of one client's round of `mix` start with
    /// each of `verbs`.
    fn verb_counts<const N: usize>(mix: &Mix, clients: usize, verbs: [&str; N]) -> [usize; N] {
        let shape = WorldShape {
            relations: mix.read_relations,
            fillers: 0,
            pairs: 0,
        };
        let world = World::generate(11, &shape);
        let ops = gen::round_stream(11, &world, mix, 0, clients);
        assert_eq!(ops.len(), mix.ops);
        let counts = verbs.map(|verb| {
            ops.iter()
                .filter(|op| op.text.split(' ').next() == Some(verb))
                .count()
        });
        assert_eq!(counts.iter().sum::<usize>(), ops.len(), "a verb is missing");
        counts
    }

    const VERBS: [&str; 5] = ["HOLDS", "WHY", "COUNT", "ASSERT", "RETRACT"];

    #[test]
    fn every_workload_sends_the_mix_it_states() {
        // 80 % HOLDS, 20 % WHY.
        assert_eq!(
            verb_counts(&wire::PointRead::MIX, 2, VERBS),
            [8_000, 2_000, 0, 0, 0]
        );
        // 88 % point reads (a fifth of them WHY), 2 % COUNT, 10 % writes.
        assert_eq!(
            verb_counts(&wire::MixedOpen::MIX, 2, VERBS),
            [2_112, 528, 60, 150, 150]
        );
        assert_eq!(
            verb_counts(&durable::MIX, 1, VERBS),
            [0, 0, 0, 10_000, 10_000]
        );
        // One write per 50 operations.
        assert_eq!(
            verb_counts(&sharded::MIX, 1, VERBS),
            [78_400, 19_600, 0, 1_000, 1_000]
        );
    }
}
