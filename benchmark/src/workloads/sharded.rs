//! `sharded_mixed`: one thread through the `ExecutorHandle` trait on an
//! in-process `ShardedEngine` with two shards over a 2000-relation
//! catalog. One write per 50 reads; every read carries the epoch floor
//! of the last write (`last_epoch()`), so it must observe it.
//!
//! This isolates the coordinator — routing, floors, and the per-write
//! copy-on-write publication whose cost grows with the relations a
//! shard holds — which the roadmap wants collapsed into one `Router`.

use std::time::Instant;

use hrdm_hql::{Engine, ExecutorHandle, ShardedEngine};

use crate::gen::{self, Mix, Op, OpClass, WorldShape};
use crate::harness::{expected_hashes, result_hash, Metrics, Round, Stopwatch, Workload};
use crate::span::{Tracer, NO_PARENT};

use super::{engine_stage_metrics, image_bytes_per_atom, medians_by_name, replay_stages};

const SHARDS: usize = 2;
const RELATIONS: usize = 16;
const SHAPE: WorldShape = WorldShape {
    relations: RELATIONS,
    fillers: 2000 - RELATIONS,
    pairs: 0,
};
/// One write per 50 operations; a fifth of the point reads are `WHY`.
pub const MIX: Mix = Mix {
    ops: 100_000,
    write_every: 50,
    count_every: 0,
    why_every: 5,
    read_relations: RELATIONS,
    write_relations: RELATIONS,
};
/// Reads replayed on the owning shard's engine in a traced run.
const REPLAY_OPS: usize = 10_000;

/// A two-shard coordinator and the single engine it must agree with.
pub struct ShardedMixed {
    world: gen::World,
    sharded: ShardedEngine,
    stream: Vec<Op>,
    expected: Option<Vec<u64>>,
}

impl ShardedMixed {
    /// The shard owning the relation a point operation names.
    fn owner(&self, op: &Op) -> usize {
        let relation = op
            .text
            .split_whitespace()
            .nth(1)
            .expect("verb then relation");
        self.sharded.owner_of(relation)
    }
}

impl Workload for ShardedMixed {
    const NAME: &'static str = "sharded_mixed";

    fn build(seed: u64) -> Self {
        let world = gen::World::generate(seed, &SHAPE);
        let stream = gen::round_stream(seed, &world, &MIX, 0, 1);
        let sharded = ShardedEngine::new(SHARDS);
        sharded.execute(&world.ddl).expect("set-up script executes");
        ShardedMixed {
            world,
            sharded,
            stream,
            expected: None,
        }
    }

    fn prepare_oracle(&mut self) {
        // The coordinator must answer exactly like one unsharded engine.
        let reference = Engine::new();
        reference
            .execute(&self.world.ddl)
            .expect("reference set-up");
        self.expected = Some(expected_hashes(&reference, &self.stream));
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Round {
        let mut round = Round::default();
        let mut floor = self.sharded.last_epoch().expect("coordinator epoch");
        let watch = Stopwatch::start();
        for (i, op) in self.stream.iter().enumerate() {
            let call = |sharded: &ShardedEngine| match op.class {
                OpClass::Read => sharded.execute_read(&op.text, floor),
                _ => sharded.execute(&op.text),
            };
            let started = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(t) => {
                    let name = match op.class {
                        OpClass::Read => "hql.sharded_execute_read",
                        _ => "hql.sharded_execute",
                    };
                    t.span(name, NO_PARENT, i as u64, |_, _| call(&self.sharded))
                }
                None => call(&self.sharded),
            };
            let latency_ns = started.elapsed().as_nanos() as u64;
            if op.class == OpClass::Write {
                floor = self.sharded.last_epoch().expect("coordinator epoch");
            }
            let expected = self.expected.as_ref().map(|e| e[i]);
            round.record(op.class, latency_ns, result_hash(&result), expected);
        }
        watch.stop_into(&mut round);
        round
    }

    fn probe_layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) {
        // The same reads straight on the shard that owns the relation:
        // the difference to the coordinator's call is what routing and
        // the floor check cost.
        let through = medians_by_name(tracer.spans())
            .get("hql.sharded_execute_read")
            .copied()
            .expect("traced rounds recorded coordinator reads");
        let reads: Vec<&Op> = self
            .stream
            .iter()
            .filter(|op| op.class == OpClass::Read)
            .take(REPLAY_OPS)
            .collect();
        let first = tracer.spans().len();
        for (i, op) in reads.iter().enumerate() {
            let owner = &self.sharded.shards()[self.owner(op)];
            tracer.span(
                "hql.shard_engine_execute_read",
                NO_PARENT,
                i as u64,
                |_, _| {
                    owner
                        .execute_read(&op.text, 0)
                        .expect("owning shard answers")
                },
            );
        }
        let direct = medians_by_name(&tracer.spans()[first..])["hql.shard_engine_execute_read"];
        m.insert("hql.shard_route_ns", through - direct);

        // And those reads stage by stage, each on its owning shard.
        let first = tracer.spans().len();
        for (k, shard) in self.sharded.shards().iter().enumerate() {
            let owned: Vec<Op> = reads
                .iter()
                .filter(|op| self.owner(op) == k)
                .map(|op| (*op).clone())
                .collect();
            replay_stages(shard, &owned, false, tracer);
        }
        engine_stage_metrics(&medians_by_name(&tracer.spans()[first..]), m);
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        let shards: Vec<&Engine> = self.sharded.shards().iter().collect();
        image_bytes_per_atom(&shards, &self.sharded, &self.world, m)
    }
}
