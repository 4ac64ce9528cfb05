//! The three workloads on an `OPEN`ed store. The flush policy is fixed
//! at `SYNC EVERY 32` (one fsync per 32 appended records), with an
//! explicit `Engine::sync` every 5000 writes.
//!
//! * `durable_write` times the primary's own work: the writes, the
//!   group flushes and a `CHECKPOINT` per round.
//! * `durable_restart` times a restart: `OPEN` of a copy of the store in
//!   a fresh engine, replaying a round's 20 000 records.
//! * `replica_catchup` times a follower: `Replica::sync` after every
//!   5000 writes of the primary, the log growing to 20 000 records
//!   between checkpoints.
//!
//! The second and third read back the log the first writes — the read
//! side and the write side of one layer. Each is a workload of its own
//! because a run reports one latency and one rate, and a restart or a
//! catch-up is what its user waits for.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hrdm_hql::{Engine, ExecutorHandle, Replica};
use hrdm_obs::metrics as registry;
use hrdm_persist::WalTailer;

use crate::gen::{self, Mix, Op, OpClass, WorldShape};
use crate::harness::{
    expected_hashes, reply_hash, result_hash, Metrics, Reading, Round, Stopwatch, Workload,
};
use crate::span::{Tracer, NO_PARENT};
use crate::sys::FreshDir;

use super::{execute_embedded, image_bytes_per_atom};

/// Populated relations the writes go to (none has a view over it).
const RELATIONS: usize = 16;
const SHAPE: WorldShape = WorldShape {
    relations: RELATIONS,
    fillers: 240,
    pairs: 0,
};
/// Writes per round.
const WRITES: usize = 20_000;
/// `Engine::sync` (and, in `replica_catchup`, a catch-up) every this
/// many writes.
const SYNC_EVERY: usize = 5_000;
/// Restarts per round of `durable_restart`.
const RESTARTS: usize = 16;
/// Writes to the sources of live views in the traced run's phase B.
const VIEW_WRITES: usize = 200;

/// Every operation is a write.
pub const MIX: Mix = Mix {
    ops: WRITES,
    write_every: 1,
    count_every: 0,
    why_every: 0,
    read_relations: RELATIONS,
    write_relations: RELATIONS,
};

fn open_statement(dir: &Path) -> String {
    format!("OPEN \"{}\" SYNC EVERY 32;", dir.display())
}

/// Size of the files in `dir` whose names start with `prefix`.
fn file_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .expect("list the store directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .map(|e| e.metadata().expect("stat a store file").len())
        .sum()
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `SHOW` of the `k`-th written relation, the read that probes a state.
fn show(k: usize) -> String {
    format!("SHOW {};", gen::relation_name(k % RELATIONS))
}

/// An engine with an `OPEN`ed store, one round's writes (which end
/// where they began), and the store-less reference it must agree with.
struct Primary {
    seed: u64,
    world: gen::World,
    /// Removed, with the store and its copy inside, when the run ends.
    dir: FreshDir,
    store: PathBuf,
    engine: Engine,
    stream: Vec<Op>,
    expected: Option<Vec<u64>>,
    reference: Option<Engine>,
}

impl Primary {
    fn build(seed: u64, tag: &str) -> Primary {
        let world = gen::World::generate(seed, &SHAPE);
        let stream = gen::round_stream(seed, &world, &MIX, 0, 1);
        let dir = FreshDir::create(tag);
        let store = dir.path().join("store");
        let engine = Engine::new();
        engine
            .execute(&open_statement(&store))
            .expect("store opens");
        engine.execute(&world.ddl).expect("set-up script executes");
        engine.execute("CHECKPOINT;").expect("initial checkpoint");
        Primary {
            seed,
            world,
            dir,
            store,
            engine,
            stream,
            expected: None,
            reference: None,
        }
    }

    fn prepare_oracle(&mut self) {
        let reference = Engine::new();
        reference
            .execute(&self.world.ddl)
            .expect("reference set-up");
        self.expected = Some(expected_hashes(&reference, &self.stream));
        self.reference = Some(reference);
    }

    fn reference(&self) -> &Engine {
        self.reference.as_ref().expect("oracle prepared")
    }

    /// Apply `stream[from..to]` and flush, outside any timed section;
    /// returns how many statements answered differently from the
    /// reference.
    fn write_untimed(&self, from: usize, to: usize) -> u64 {
        let mut failed = 0;
        for i in from..to {
            let result = ExecutorHandle::execute(&self.engine, &self.stream[i].text);
            let expected = self.expected.as_ref().map(|e| e[i]);
            if expected.is_some_and(|e| e != result_hash(&result)) {
                failed += 1;
            }
        }
        self.engine.sync().expect("group flush");
        failed
    }

    /// Copy the store as it is on disk now into `<dir>/copy`.
    fn copy_store(&self) -> PathBuf {
        let copy = self.dir.path().join("copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).expect("create the copy directory");
        for entry in std::fs::read_dir(&self.store).expect("list the store directory") {
            let entry = entry.expect("store directory entry");
            if entry.metadata().expect("stat a store file").is_file() {
                std::fs::copy(entry.path(), copy.join(entry.file_name()))
                    .expect("copy a store file");
            }
        }
        copy
    }

    /// How many `SHOW`s of `others` differ from the reference's, over
    /// every relation of the catalog.
    fn state_mismatches(&self, others: &[&dyn ExecutorHandle]) -> u64 {
        let mut mismatches = 0;
        for (name, _) in self.world.relation_names() {
            let show = format!("SHOW {name};");
            let want = self.reference().execute_read(&show, 0);
            for other in others {
                if other.execute_read(&show, 0) != want {
                    mismatches += 1;
                }
            }
        }
        mismatches
    }
}

/// `durable_write`: one thread writing through the primary.
pub struct DurableWrite {
    primary: Primary,
    /// Follows the log for the end-of-run state check only.
    replica: Replica,
}

impl Workload for DurableWrite {
    const NAME: &'static str = "durable_write";

    fn build(seed: u64) -> Self {
        let primary = Primary::build(seed, "durable-write");
        let replica = Replica::attach(&primary.store);
        replica.sync().expect("replica attaches");
        DurableWrite { primary, replica }
    }

    fn prepare_oracle(&mut self) {
        self.primary.prepare_oracle();
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Round {
        let p = &self.primary;
        let mut round = Round::default();
        let watch = Stopwatch::start();
        for (i, op) in p.stream.iter().enumerate() {
            let started = Instant::now();
            let result = execute_embedded(&p.engine, op, i as u64, tracer.as_deref_mut());
            let latency_ns = started.elapsed().as_nanos() as u64;
            let expected = p.expected.as_ref().map(|e| e[i]);
            round.record(op.class, latency_ns, result_hash(&result), expected);
            if (i + 1) % SYNC_EVERY == 0 {
                p.engine.sync().expect("group flush");
            }
        }
        watch.stop_into(&mut round);
        let wal_bytes = file_bytes(&p.store, "wal-");
        let watch = Stopwatch::start();
        let started = Instant::now();
        p.engine.execute("CHECKPOINT;").expect("checkpoint");
        round
            .side
            .push(("persist.checkpoint_ms", ms_since(started)));
        watch.stop_into(&mut round);
        let checkpoint_bytes = file_bytes(&p.store, "checkpoint-");
        let per_write = (wal_bytes + checkpoint_bytes) as f64 / p.stream.len() as f64;
        round
            .side
            .push(("persist.checkpoint_bytes", checkpoint_bytes as f64));
        round.side.push(("wal_bytes_per_write", per_write));
        round.side.push(("persist.wal_bytes_per_write", per_write));
        round
    }

    fn probe_layers(&mut self, _tracer: &mut Tracer, m: &mut Metrics) {
        // Phase B: writes to the sources of two live views. Each one is
        // maintained at commit and, because a view's rows change
        // outside the WAL vocabulary, forces a checkpoint.
        let p = &self.primary;
        let before = Reading::take();
        p.engine
            .execute("LET V1 = CONSOLIDATE R0000; LET V2 = UNION R0001 R0002;")
            .expect("views register");
        let mix = Mix {
            ops: VIEW_WRITES,
            read_relations: 3,
            write_relations: 3,
            ..MIX
        };
        for op in gen::round_stream(p.seed ^ 0xB, &p.world, &mix, 0, 1) {
            ExecutorHandle::execute(&p.engine, &op.text).expect("write under live views");
        }
        p.engine
            .execute("DROP RELATION V1; DROP RELATION V2; CHECKPOINT;")
            .expect("views drop");
        let after = Reading::take();
        let d = |name: &str| after.delta(&before, name);
        let nodes = d("ivm.nodes_localized") + d("ivm.nodes_reused") + d("ivm.nodes_recomputed");
        m.insert(
            "core.ivm_localized_share",
            d("ivm.nodes_localized") / nodes.max(1.0),
        );
        m.insert("core.ivm_fallbacks", d("ivm.fallback"));
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        let p = &self.primary;
        let size_mismatches = image_bytes_per_atom(&[&p.engine], &p.engine, &p.world, m);
        // Leave the baseline by a quarter of a round, flushed but not
        // checkpointed, so that a restart has a log to replay and the
        // replica records to apply; then the live engine, the restarted
        // copy, the replica and the store-less reference must render
        // every relation the same.
        let failed = p.write_untimed(0, SYNC_EVERY);
        for op in &p.stream[..SYNC_EVERY] {
            ExecutorHandle::execute(p.reference(), &op.text).expect("reference follows");
        }
        let recovered = Engine::new();
        recovered
            .execute(&open_statement(&p.copy_store()))
            .expect("the copied store opens");
        self.replica.sync().expect("replica catches up");
        size_mismatches + failed + p.state_mismatches(&[&p.engine, &recovered, &self.replica])
    }
}

/// `durable_restart`: `OPEN` of a store whose log holds one round's
/// records, in a fresh engine, again and again.
pub struct DurableRestart {
    primary: Primary,
    /// What the reference answers to the probe after a restart.
    expected_probe: Option<u64>,
    /// The engine the latest restart produced.
    recovered: Option<Engine>,
}

impl Workload for DurableRestart {
    const NAME: &'static str = "durable_restart";

    fn build(seed: u64) -> Self {
        let primary = Primary::build(seed, "durable-restart");
        // One round of writes, flushed and not checkpointed: the log a
        // restart replays. The round ends at the baseline, so every
        // restart must arrive there.
        primary.write_untimed(0, WRITES);
        DurableRestart {
            primary,
            expected_probe: None,
            recovered: None,
        }
    }

    fn prepare_oracle(&mut self) {
        self.primary.prepare_oracle();
        let probe = self.primary.reference().execute_read(&show(0), 0);
        self.expected_probe = Some(result_hash(&probe));
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Round {
        let replayed = registry::counter("recover.records_replayed");
        let mut round = Round::default();
        for i in 0..RESTARTS {
            self.recovered = None;
            let open = Op {
                text: open_statement(&self.primary.copy_store()),
                class: OpClass::Restart,
            };
            let engine = Engine::new();
            let records = replayed.get();
            let watch = Stopwatch::start();
            let started = Instant::now();
            let result = execute_embedded(&engine, &open, i as u64, tracer.as_deref_mut());
            let latency_ns = started.elapsed().as_nanos() as u64;
            watch.stop_into(&mut round);
            result.expect("the copied store opens");
            let records = (replayed.get() - records) as f64;
            round.side.push((
                "persist.replay_us_per_record",
                latency_ns as f64 / 1e3 / records,
            ));
            let probe = result_hash(&engine.execute_read(&show(0), 0));
            round.record(OpClass::Restart, latency_ns, probe, self.expected_probe);
            self.recovered = Some(engine);
        }
        round
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        let p = &self.primary;
        let recovered = self.recovered.as_ref().expect("a round restarted a copy");
        p.state_mismatches(&[&p.engine, recovered])
            + image_bytes_per_atom(&[&p.engine], &p.engine, &p.world, m)
    }
}

/// `replica_catchup`: a replica (and, beside it, a bare `WalTailer`)
/// following the primary's log.
pub struct ReplicaCatchup {
    primary: Primary,
    replica: Replica,
    tailer: WalTailer,
    /// What the reference answers to the probe after each chunk.
    expected_probes: Option<Vec<u64>>,
}

impl Workload for ReplicaCatchup {
    const NAME: &'static str = "replica_catchup";

    fn build(seed: u64) -> Self {
        let primary = Primary::build(seed, "replica-catchup");
        let replica = Replica::attach(&primary.store);
        replica.sync().expect("replica attaches");
        let mut tailer = WalTailer::attach(&primary.store);
        tailer.poll().expect("tailer attaches");
        ReplicaCatchup {
            primary,
            replica,
            tailer,
            expected_probes: None,
        }
    }

    fn prepare_oracle(&mut self) {
        self.primary.prepare_oracle();
        let p = &self.primary;
        let probes = (0..WRITES / SYNC_EVERY)
            .map(|chunk| {
                for op in &p.stream[chunk * SYNC_EVERY..(chunk + 1) * SYNC_EVERY] {
                    ExecutorHandle::execute(p.reference(), &op.text).expect("reference follows");
                }
                result_hash(&p.reference().execute_read(&show(chunk), 0))
            })
            .collect();
        self.expected_probes = Some(probes);
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Round {
        let mut round = Round::default();
        for chunk in 0..WRITES / SYNC_EVERY {
            round.failed += self
                .primary
                .write_untimed(chunk * SYNC_EVERY, (chunk + 1) * SYNC_EVERY);
            let replica = &self.replica;
            let watch = Stopwatch::start();
            let started = Instant::now();
            let synced = match tracer.as_deref_mut() {
                Some(t) => t.span("hql.replica_sync", NO_PARENT, chunk as u64, |_, _| {
                    replica.sync()
                }),
                None => replica.sync(),
            };
            let latency_ns = started.elapsed().as_nanos() as u64;
            watch.stop_into(&mut round);
            // A failed sync hashes to what no `SHOW` does.
            let probe = match synced {
                Ok(_) => result_hash(&replica.execute_read(&show(chunk), 0)),
                Err(e) => reply_hash(&[format!("ERR {e}")]),
            };
            let expected = self.expected_probes.as_ref().map(|e| e[chunk]);
            round.record(OpClass::CatchUp, latency_ns, probe, expected);

            let tailer = &mut self.tailer;
            let started = Instant::now();
            match tracer.as_deref_mut() {
                Some(t) => t.span("persist.ship_poll", NO_PARENT, chunk as u64, |_, _| {
                    tailer.poll()
                }),
                None => tailer.poll(),
            }
            .expect("tailer polls");
            round.side.push(("persist.ship_poll_ms", ms_since(started)));
        }
        // Both follow the rollover, so the next round's catch-ups start
        // from a short log again.
        self.primary
            .engine
            .execute("CHECKPOINT;")
            .expect("checkpoint");
        self.replica.sync().expect("replica follows the checkpoint");
        self.tailer.poll().expect("tailer follows the checkpoint");
        round
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        let p = &self.primary;
        p.state_mismatches(&[&p.engine, &self.replica])
            + image_bytes_per_atom(&[&p.engine], &p.engine, &p.world, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// WAL bytes per write and image bytes per atom of a small durable
    /// catalog after one round of writes.
    fn sizes(seed: u64) -> (f64, f64) {
        let shape = WorldShape {
            relations: 3,
            fillers: 5,
            pairs: 1,
        };
        let world = gen::World::generate(seed, &shape);
        let mix = Mix {
            ops: 400,
            read_relations: 3,
            write_relations: 3,
            ..MIX
        };
        let stream = gen::round_stream(seed, &world, &mix, 0, 1);
        let dir = FreshDir::create(&format!("sizes-{seed}-{:?}", std::thread::current().id()));
        let engine = Engine::new();
        engine.execute(&open_statement(dir.path())).unwrap();
        engine.execute(&world.ddl).unwrap();
        engine.execute("CHECKPOINT;").unwrap();
        for op in &stream {
            engine.execute(&op.text).unwrap();
        }
        engine.sync().unwrap();
        let wal = file_bytes(dir.path(), "wal-") as f64 / stream.len() as f64;
        let mut m = Metrics::new();
        let mismatches = image_bytes_per_atom(&[&engine], &engine, &world, &mut m);
        assert_eq!(mismatches, 0, "every populated relation has 640 atoms");
        (wal, m["image_bytes_per_atom"])
    }

    #[test]
    fn sizes_repeat_for_a_seed_and_do_not_depend_on_it() {
        let first = sizes(7);
        assert!(first.0 > 0.0 && first.1 > 0.0);
        assert_eq!(first, sizes(7), "same seed, same bytes");
        assert_eq!(first, sizes(8), "another seed permutes names, not sizes");
    }
}
