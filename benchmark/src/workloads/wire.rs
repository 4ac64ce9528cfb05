//! The two workloads that go through `hrdm-server` over loopback TCP:
//! `wire_point_read` (closed loop, reads only) and `wire_mixed_open`
//! (open loop at a fixed arrival rate, writes beside reads).
//!
//! The server runs in this process (`Server::start` with the default
//! configuration); the generator is two threads with one connection
//! each, because the box has two cores.

use std::marker::PhantomData;
use std::sync::Barrier;
use std::time::Instant;

use hrdm_hql::Engine;
use hrdm_server::{Client, Reply, Server, ServerConfig, ServerHandle};

use crate::gen::{self, Mix, Op, WorldShape};
use crate::harness::{expected_hashes, reply_hash, Metrics, Round, Stopwatch, Workload};
use crate::openloop::{drive_real, Schedule, Timing};
use crate::span::{Tracer, NO_PARENT};
use crate::stats::percentile;

use super::{engine_stage_metrics, image_bytes_per_atom, medians_by_name, replay_stages};

/// Connections (and generator threads).
const CONNECTIONS: usize = 2;
/// Populated relations: 16 fit the 64-entry subsumption-core cache.
const RELATIONS: usize = 16;
/// Operations of the stream replayed stage by stage in a traced run.
const REPLAY_OPS: usize = 10_000;

/// What distinguishes the two wire workloads.
pub trait Profile {
    /// Workload name.
    const NAME: &'static str;
    /// One connection's round.
    const MIX: Mix;
    /// Open-loop arrival rate per connection, or `None` for a closed loop.
    const RATE_PER_CONNECTION: Option<f64>;
}

/// Closed loop, 80 % `HOLDS` / 20 % `WHY`, no writes.
pub struct PointRead;

impl Profile for PointRead {
    const NAME: &'static str = "wire_point_read";
    const MIX: Mix = Mix {
        ops: 10_000,
        write_every: 0,
        count_every: 0,
        why_every: 5,
        read_relations: RELATIONS,
        write_relations: 0,
    };
    const RATE_PER_CONNECTION: Option<f64> = None;
}

/// Open loop at 6000 req/s in total (over a quarter of what the closed
/// loop reaches here, well under half of what this mix saturates at):
/// 88 % point reads, 2 % `COUNT`, 10 % `ASSERT`/`RETRACT`, no store
/// attached.
pub struct MixedOpen;

impl Profile for MixedOpen {
    const NAME: &'static str = "wire_mixed_open";
    const MIX: Mix = Mix {
        ops: 3_000,
        write_every: 10,
        count_every: 50,
        why_every: 5,
        read_relations: RELATIONS,
        write_relations: RELATIONS / 2,
    };
    const RATE_PER_CONNECTION: Option<f64> = Some(3_000.0);
}

/// A served engine and the connections driving it.
pub struct Wire<P: Profile> {
    world: gen::World,
    engine: Engine,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    streams: Vec<Vec<Op>>,
    /// Per connection, the reference engine's answer to each operation.
    expected: Option<Vec<Vec<u64>>>,
    /// The embedded reference the oracle and the stage replay run on.
    reference: Option<Engine>,
    profile: PhantomData<P>,
}

/// Drive one connection through its stream once.
fn drive_connection(
    client: &mut Client,
    ops: &[Op],
    expected: Option<&[u64]>,
    rate: Option<f64>,
    mut tracer: Option<&mut Tracer>,
    late_ns: &mut Vec<u64>,
) -> Round {
    let mut round = Round::default();
    let mut replies = Vec::with_capacity(ops.len());
    let mut send = |i: usize| {
        let query = |client: &mut Client| client.query(&ops[i].text);
        let reply = match tracer.as_deref_mut() {
            Some(t) => t.span("server.round_trip", NO_PARENT, i as u64, |_, _| {
                query(client)
            }),
            None => query(client),
        };
        // Anything but OK — an error reply, BUSY, a dropped connection —
        // hashes to a value no reference answer has.
        replies.push(match reply {
            Ok(Reply::Ok(parts)) => reply_hash(&parts),
            other => reply_hash(&[format!("{other:?}")]),
        });
    };
    let timings: Vec<Timing> = match rate {
        Some(rate) => drive_real(Schedule::new(rate), ops.len(), send),
        None => {
            let start = Instant::now();
            (0..ops.len())
                .map(|i| {
                    let sent_ns = start.elapsed().as_nanos() as u64;
                    send(i);
                    Timing {
                        due_ns: sent_ns,
                        sent_ns,
                        done_ns: start.elapsed().as_nanos() as u64,
                    }
                })
                .collect()
        }
    };
    for (i, timing) in timings.iter().enumerate() {
        round.record(
            ops[i].class,
            timing.latency_ns(),
            replies[i],
            expected.map(|e| e[i]),
        );
        late_ns.push(timing.lateness_ns());
    }
    round
}

impl<P: Profile> Wire<P> {
    /// One pass of every connection over `streams` at `rate`; returns
    /// the merged round and the generator's lateness samples.
    fn drive(
        &mut self,
        rate: Option<f64>,
        check: bool,
        tracer: Option<&mut Tracer>,
    ) -> (Round, Vec<u64>) {
        let barrier = Barrier::new(CONNECTIONS + 1);
        // Connection threads record into tracers of their own, on the
        // run's clock, and hand them back to be absorbed.
        let origin = tracer.as_ref().map(|t| t.origin());
        let expected = self.expected.as_ref().filter(|_| check);
        let mut merged = Round::default();
        let mut late_ns = Vec::new();
        let results: Vec<(Round, Vec<u64>, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.streams)
                .enumerate()
                .map(|(c, (client, ops))| {
                    let barrier = &barrier;
                    let expected = expected.map(|e| e[c].as_slice());
                    scope.spawn(move || {
                        let mut local = origin.map(|o| Tracer::new(o, 1_000_000));
                        let mut late = Vec::new();
                        barrier.wait();
                        let round = drive_connection(
                            client,
                            ops,
                            expected,
                            rate,
                            local.as_mut(),
                            &mut late,
                        );
                        (round, late, local)
                    })
                })
                .collect();
            barrier.wait();
            let watch = Stopwatch::start();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect();
            watch.stop_into(&mut merged);
            results
        });
        let mut tracer = tracer;
        for (round, late, local) in results {
            merged.merge(round);
            late_ns.extend(late);
            if let (Some(t), Some(local)) = (tracer.as_deref_mut(), local) {
                t.absorb(local);
            }
        }
        (merged, late_ns)
    }
}

impl<P: Profile> Workload for Wire<P> {
    const NAME: &'static str = P::NAME;
    const OPEN_LOOP: bool = P::RATE_PER_CONNECTION.is_some();

    fn build(seed: u64) -> Self {
        let shape = WorldShape {
            relations: RELATIONS,
            fillers: 0,
            pairs: 0,
        };
        let world = gen::World::generate(seed, &shape);
        let streams: Vec<Vec<Op>> = (0..CONNECTIONS)
            .map(|c| gen::round_stream(seed, &world, &P::MIX, c, CONNECTIONS))
            .collect();
        let engine = Engine::new();
        engine.execute(&world.ddl).expect("set-up script executes");
        let server = Server::start(engine.clone(), ServerConfig::default()).expect("server starts");
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(server.addr()).expect("client connects"))
            .collect();
        Wire {
            world,
            engine,
            server: Some(server),
            clients,
            streams,
            expected: None,
            reference: None,
            profile: PhantomData,
        }
    }

    fn prepare_oracle(&mut self) {
        // Connections never name each other's instances and every
        // stream ends at its baseline, so replaying them one after the
        // other on an embedded engine gives each its one right answer.
        let reference = Engine::new();
        reference
            .execute(&self.world.ddl)
            .expect("reference set-up");
        self.expected = Some(
            self.streams
                .iter()
                .map(|ops| expected_hashes(&reference, ops))
                .collect(),
        );
        self.reference = Some(reference);
    }

    fn round(&mut self, tracer: Option<&mut Tracer>) -> Round {
        let (mut round, late) = self.drive(P::RATE_PER_CONNECTION, true, tracer);
        if P::RATE_PER_CONNECTION.is_some() {
            let mut late = late;
            late.sort_unstable();
            round
                .side
                .push(("server.late_p99_us", percentile(&late, 0.99) as f64 / 1e3));
        }
        round
    }

    fn probe_layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) {
        // The round trip as the client saw it in the traced rounds.
        let round_trip_ns = medians_by_name(tracer.spans())
            .get("server.round_trip")
            .copied()
            .expect("traced rounds recorded round trips");
        // The same statements in process, stage by stage: whatever the
        // stages do not account for is transport — sockets, the poll
        // loop, the job channel, the worker hand-off, the wake pipe.
        let reference = self.reference.as_ref().expect("oracle prepared");
        let sample = &self.streams[0][..REPLAY_OPS.min(self.streams[0].len())];
        let stages = replay_stages(reference, sample, true, tracer);
        engine_stage_metrics(&stages, m);
        let ns = |name: &str| stages.get(name).copied().unwrap_or(0.0);
        let engine_ns = ns("hql.parse") + ns("hql.exec") + ns("hql.render");
        let framing_ns =
            ns("server.frame_encode") + ns("server.frame_decode") + ns("server.reply_encode");
        m.insert("server.round_trip_us", round_trip_ns / 1e3);
        m.insert("server.frame_encode_ns", ns("server.frame_encode"));
        m.insert("server.frame_decode_ns", ns("server.frame_decode"));
        m.insert("server.reply_encode_ns", ns("server.reply_encode"));
        m.insert(
            "server.transport_us",
            (round_trip_ns - engine_ns - framing_ns) / 1e3,
        );
        m.insert("hql.share_of_round_trip", engine_ns / round_trip_ns);

        if P::RATE_PER_CONNECTION.is_some() {
            // The ungated ladder: the same stream offered faster, to
            // find the highest rate still inside the latency limit.
            const LIMIT_P99_NS: u64 = 2_000_000;
            const LATE_P99_NS: u64 = LIMIT_P99_NS;
            let mut rate_ok = 0.0;
            for (total, p99_name) in [
                (6_000.0, "server.p99_us_at_6000rps"),
                (12_000.0, "server.p99_us_at_12000rps"),
                (18_000.0, "server.p99_us_at_18000rps"),
                (24_000.0, "server.p99_us_at_24000rps"),
            ] {
                let (round, mut late) = self.drive(Some(total / CONNECTIONS as f64), false, None);
                let mut all: Vec<u64> = round.samples.iter().flatten().copied().collect();
                all.sort_unstable();
                late.sort_unstable();
                let p99_ns = percentile(&all, 0.99);
                m.insert(p99_name, p99_ns as f64 / 1e3);
                if p99_ns <= LIMIT_P99_NS && percentile(&late, 0.99) <= LATE_P99_NS {
                    rate_ok = total;
                }
            }
            m.insert("server.rate_ok_rps", rate_ok);
        }
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        image_bytes_per_atom(&[&self.engine], &self.engine, &self.world, m)
    }
}

impl<P: Profile> Drop for Wire<P> {
    fn drop(&mut self) {
        // Close the connections first so shutdown has nothing to drain.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
