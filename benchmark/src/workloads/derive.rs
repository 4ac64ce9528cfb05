//! `embedded_derive`: one caller thread on an embedded `Engine` as it
//! comes (so `hrdm-core` fans out to its scoped threads where it
//! chooses to), no sockets and no store. Sixty statements per round —
//! `LET` over every derivation operator, plus `CHECK` and `COUNT … BY` —
//! over 96 unary relations (more than the 64-entry subsumption-core
//! cache holds) and 8 binary pairs. `hrdm-core` does nearly all the work here and the
//! server and the persistence layer none, so executor changes show on
//! this workload and nowhere else.

use std::collections::BTreeSet;
use std::time::Instant;

use hrdm_core::flat::flatten;
use hrdm_core::parallel::run_serial;
use hrdm_core::prelude::{execute_batch, HRelation, LogicalPlan};
use hrdm_hql::Engine;
use hrdm_obs::metrics as registry;

use crate::gen::{self, Derivation, DeriveStep, WorldShape};
use crate::harness::{result_hash, Metrics, Round, Stopwatch, Workload};
use crate::span::Tracer;
use crate::stats::median;

use super::{execute_embedded, image_bytes_per_atom};

const SHAPE: WorldShape = WorldShape {
    relations: 96,
    fillers: 0,
    pairs: 8,
};

/// An embedded engine and its round of derivations.
pub struct EmbeddedDerive {
    world: gen::World,
    engine: Engine,
    steps: Vec<DeriveStep>,
    /// What each statement answered when the oracle checked it.
    expected: Option<Vec<u64>>,
    /// What each statement answered in the latest round.
    last_hashes: Vec<u64>,
    /// Flat-semantics identities the oracle found violated.
    identity_mismatches: u64,
}

/// `d` as a logical plan over the relations of `world`.
fn plan_of(world: &hrdm_hql::World, d: &Derivation) -> LogicalPlan {
    let scan = |name: &String| {
        let relation = world.relation(name).expect("generated relation exists");
        LogicalPlan::scan(name.clone(), relation.clone())
    };
    match d {
        Derivation::Union(a, b) => scan(a).union(scan(b)),
        Derivation::Intersect(a, b) => scan(a).intersect(scan(b)),
        Derivation::Difference(a, b) => scan(a).diff(scan(b)),
        Derivation::Join(a, b) => scan(a).join(scan(b)),
        Derivation::Select(a, class) => scan(a).select_eq("X", class.clone()),
        Derivation::Project(a) => scan(a).project(vec![0]),
        Derivation::Consolidate(a) => scan(a).consolidate(),
        Derivation::Explicate(a) => scan(a).explicate(vec![0]),
    }
}

/// Does the relation bound by `LET name = d` have the flat extension
/// the paper says it must? Set operations are checked against set
/// algebra on the operands' extensions, `CONSOLIDATE`/`EXPLICATE`
/// against their operand's unchanged extension, and the remaining
/// operators against the tuple-at-a-time reference executor.
fn flat_identity_holds(world: &hrdm_hql::World, name: &str, d: &Derivation) -> bool {
    let atoms = |relation: &HRelation| flatten(relation).into_atoms();
    let named = |name: &String| atoms(world.relation(name).expect("operand exists"));
    let got = atoms(world.relation(name).expect("derived relation exists"));
    let want: BTreeSet<_> = match d {
        Derivation::Union(a, b) => named(a).union(&named(b)).cloned().collect(),
        Derivation::Intersect(a, b) => named(a).intersection(&named(b)).cloned().collect(),
        Derivation::Difference(a, b) => named(a).difference(&named(b)).cloned().collect(),
        Derivation::Consolidate(a) | Derivation::Explicate(a) => named(a),
        Derivation::Join(..) | Derivation::Select(..) | Derivation::Project(_) => {
            let reference = plan_of(world, d)
                .execute()
                .expect("reference executor runs");
            atoms(&reference.relation)
        }
    };
    got == want
}

impl EmbeddedDerive {
    fn bindings(&self) -> impl Iterator<Item = &(String, Derivation)> {
        self.steps.iter().filter_map(|s| s.binding.as_ref())
    }

    /// Drop the names the previous round bound (untimed).
    fn drop_derived(&self) {
        let world = self.engine.snapshot();
        for (name, _) in self.bindings() {
            if world.relation(name).is_ok() {
                self.engine
                    .execute(&format!("DROP RELATION {name};"))
                    .expect("derived relation drops");
            }
        }
    }
}

impl Workload for EmbeddedDerive {
    const NAME: &'static str = "embedded_derive";

    fn build(seed: u64) -> Self {
        let world = gen::World::generate(seed, &SHAPE);
        let steps = gen::derive_round(seed, &world);
        let engine = Engine::new();
        engine.execute(&world.ddl).expect("set-up script executes");
        EmbeddedDerive {
            world,
            engine,
            steps,
            expected: None,
            last_hashes: Vec::new(),
            identity_mismatches: 0,
        }
    }

    fn prepare_oracle(&mut self) {
        let round = self.round(None);
        assert_eq!(round.failed, 0, "oracle round failed");
        let world = self.engine.snapshot();
        self.identity_mismatches = self
            .bindings()
            .filter(|(name, d)| !flat_identity_holds(&world, name, d))
            .count() as u64;
        // Later rounds must answer exactly what this checked one did.
        self.expected = Some(std::mem::take(&mut self.last_hashes));
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Round {
        self.drop_derived();
        let mut round = Round::default();
        let mut hashes = Vec::with_capacity(self.steps.len());
        let watch = Stopwatch::start();
        for (i, step) in self.steps.iter().enumerate() {
            let started = Instant::now();
            let result = execute_embedded(&self.engine, &step.op, i as u64, tracer.as_deref_mut());
            let latency_ns = started.elapsed().as_nanos() as u64;
            if result.is_err() {
                round.failed += 1;
            }
            let expected = self.expected.as_ref().map(|e| e[i]);
            hashes.push(result_hash(&result));
            round.record(step.op.class, latency_ns, hashes[i], expected);
        }
        watch.stop_into(&mut round);
        self.last_hashes = hashes;
        round
    }

    fn probe_layers(&mut self, _tracer: &mut Tracer, m: &mut Metrics) {
        // What the core's fan-out to scoped threads buys: the round
        // with it switched off on this thread against the round as
        // measured, three pairs.
        let speedups: Vec<f64> = (0..3)
            .map(|_| {
                let serial_s = run_serial(|| self.round(None)).wall_s;
                serial_s / self.round(None).wall_s
            })
            .collect();
        m.insert("core.parallel_round_speedup", median(&speedups));

        // Rows the plan nodes produced per tuple the user got back
        // (`batch.rows`: HQL derivations run on the batch executor,
        // which does not feed the `core.plan.rows` the issue named).
        let rows = registry::counter("batch.rows");
        let before = rows.get();
        let _ = self.round(None);
        let world = self.engine.snapshot();
        let results: usize = self
            .bindings()
            .map(|(name, _)| world.relation(name).expect("bound by the round").len())
            .sum();
        m.insert(
            "core.rows_per_result",
            (rows.get() - before) as f64 / results as f64,
        );

        // The round's plans through both executors, each plan on one
        // and then the other so neither finds the caches warmer.
        let (mut batch_ms, mut tuple_ms) = (0.0, 0.0);
        for (_, d) in self.bindings() {
            let plan = plan_of(&world, d);
            let started = Instant::now();
            drop(execute_batch(&plan).expect("batch executor runs"));
            batch_ms += started.elapsed().as_secs_f64() * 1e3;
            let started = Instant::now();
            drop(plan.execute().expect("tuple executor runs"));
            tuple_ms += started.elapsed().as_secs_f64() * 1e3;
        }
        m.insert("core.batch_exec_ms", batch_ms);
        m.insert("core.tuple_exec_ms", tuple_ms);

        // The two new operators and the point lookup, called directly.
        let relations: Vec<&HRelation> = self.world.relations[..16]
            .iter()
            .map(|r| world.relation(&r.name).expect("generated relation exists"))
            .collect();
        let us = |f: &dyn Fn(&HRelation)| -> f64 {
            let each: Vec<f64> = relations
                .iter()
                .map(|r| {
                    let started = Instant::now();
                    f(r);
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&each)
        };
        m.insert(
            "core.consolidate_us",
            us(&|r| drop(hrdm_core::consolidate::consolidate(r))),
        );
        m.insert(
            "core.explicate_us",
            us(&|r| drop(hrdm_core::explicate::explicate(r, &[0]))),
        );
        let names: Vec<String> = (0..gen::INSTANCES).map(gen::instance_name).collect();
        let holds_ns: Vec<f64> = relations
            .iter()
            .map(|r| {
                let items: Vec<_> = names
                    .iter()
                    .map(|n| r.item(&[n.as_str()]).expect("instance exists"))
                    .collect();
                let started = Instant::now();
                for item in &items {
                    std::hint::black_box(r.holds(std::hint::black_box(item)));
                }
                started.elapsed().as_nanos() as f64 / items.len() as f64
            })
            .collect();
        m.insert("core.holds_ns", median(&holds_ns));
    }

    fn finish(&mut self, m: &mut Metrics) -> u64 {
        self.drop_derived();
        self.identity_mismatches
            + image_bytes_per_atom(&[&self.engine], &self.engine, &self.world, m)
    }
}
