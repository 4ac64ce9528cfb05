//! Replica-parity harness (the acceptance gate for WAL shipping and
//! for restart).
//!
//! A model-driven generator feeds a primary engine ≥ 1k randomized
//! mutation statements (every WAL mutation kind, plus rollover-forcing
//! `CHECKPOINT` / `CONSOLIDATE`), journaling through an `OPEN`ed store.
//! A [`Replica`] tails the same directory and, at randomized sync
//! points, a fresh engine `OPEN`s a *copy* of the directory (a restart
//! at that instant). Every read over the catalog (`SHOW` / `COUNT` /
//! `CHECK` per relation, `SHOW DOMAIN` per domain) must render
//! **byte-identically** on the primary, on the replica and on the
//! restart at the shipped LSN — live writes, shipped mutations and
//! recovery all run one interpreter, and this pins that they agree. The
//! shipped and recovered LSNs must equal the primary's journal LSN, and
//! statements the primary refuses (duplicate names, unknown parents or
//! domains, a retract of an absent tuple) must advance none of the
//! three.

use hrdm_hql::{Engine, ExecutorHandle, Replica};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0x5EED_CAFE, 0xD15C0];
const SCRIPT_LEN: usize = 300;
const SYNC_STRIDE: usize = 7;

/// What the generator knows to be true of the primary, so reads can be
/// built over live names and retracts aim at stored tuples.
#[derive(Default)]
struct Model {
    counter: usize,
    domains: Vec<DomainModel>,
    relations: Vec<RelModel>,
}

struct DomainModel {
    name: String,
    /// Class-node names (the root counts), valid as `UNDER`/`OF` parents
    /// and as `ALL`-quantified values.
    classes: Vec<String>,
    /// Instance-node names, valid as plain values.
    instances: Vec<String>,
}

struct RelModel {
    name: String,
    /// Attribute domains, by index into `Model::domains` at creation.
    domains: Vec<String>,
    /// Rendered value lists of tuples asserted and not yet retracted.
    stored: Vec<String>,
}

impl Model {
    fn fresh(&mut self, stem: &str) -> String {
        self.counter += 1;
        format!("{stem}{}", self.counter)
    }

    fn domain_of(&self, name: &str) -> &DomainModel {
        self.domains
            .iter()
            .find(|d| d.name == name)
            .expect("relation signatures only name live domains")
    }

    /// One random value for an attribute over `domain`: a class
    /// (quantified) or an instance (plain).
    fn value(&self, rng: &mut SmallRng, domain: &str) -> String {
        let d = self.domain_of(domain);
        if !d.instances.is_empty() && (d.classes.is_empty() || rng.gen_bool(0.5)) {
            d.instances[rng.gen_range(0..d.instances.len())].clone()
        } else {
            format!("ALL {}", d.classes[rng.gen_range(0..d.classes.len())])
        }
    }

    /// Statements the primary must refuse right now: duplicate names,
    /// an unknown parent, an unknown domain, and a retract of a tuple
    /// that is not stored.
    fn refused_statements(&self) -> Vec<String> {
        let mut out = vec![
            "CREATE CLASS Ghost UNDER NoSuchParent;".to_string(),
            "CREATE RELATION Ghost (A0: NoSuchDomain);".to_string(),
        ];
        if let Some(d) = self.domains.first() {
            out.push(format!("CREATE DOMAIN {};", d.name));
        }
        if let Some(r) = self.relations.first() {
            out.push(format!(
                "CREATE RELATION {} (A0: {});",
                r.name, r.domains[0]
            ));
            // `stored` over-approximates what the primary holds (refused
            // asserts stay listed), so a value list outside it is absent.
            let roots = r
                .domains
                .iter()
                .map(|d| format!("ALL {d}"))
                .collect::<Vec<_>>()
                .join(", ");
            if !r.stored.contains(&roots) {
                out.push(format!("RETRACT {} ({roots});", r.name));
            }
        }
        out
    }

    /// The read suite over everything currently live.
    fn read_suite(&self) -> String {
        let mut script = String::new();
        for d in &self.domains {
            script.push_str(&format!("SHOW DOMAIN {};\n", d.name));
        }
        for r in &self.relations {
            script.push_str(&format!("SHOW {0};\nCOUNT {0};\nCHECK {0};\n", r.name));
        }
        script
    }
}

/// One random statement, valid against the model by construction
/// (except where the primary legitimately refuses — see the caller).
fn generate(rng: &mut SmallRng, model: &mut Model) -> String {
    loop {
        match rng.gen_range(0u32..100) {
            // Domain DDL keeps the hierarchy growing.
            0..=3 => {
                let name = model.fresh("D");
                model.domains.push(DomainModel {
                    name: name.clone(),
                    classes: vec![name.clone()],
                    instances: Vec::new(),
                });
                return format!("CREATE DOMAIN {name};");
            }
            4..=14 if !model.domains.is_empty() => {
                let d = rng.gen_range(0..model.domains.len());
                let name = model.fresh("C");
                let parent = {
                    let classes = &model.domains[d].classes;
                    classes[rng.gen_range(0..classes.len())].clone()
                };
                model.domains[d].classes.push(name.clone());
                return format!("CREATE CLASS {name} UNDER {parent};");
            }
            15..=29 if !model.domains.is_empty() => {
                let d = rng.gen_range(0..model.domains.len());
                let name = model.fresh("i");
                let parent = {
                    let classes = &model.domains[d].classes;
                    classes[rng.gen_range(0..classes.len())].clone()
                };
                model.domains[d].instances.push(name.clone());
                return format!("CREATE INSTANCE {name} OF {parent};");
            }
            30..=35 if !model.domains.is_empty() => {
                let name = model.fresh("R");
                let arity = rng.gen_range(1..=2usize);
                let domains: Vec<String> = (0..arity)
                    .map(|_| {
                        model.domains[rng.gen_range(0..model.domains.len())]
                            .name
                            .clone()
                    })
                    .collect();
                let attrs = domains
                    .iter()
                    .enumerate()
                    .map(|(k, d)| format!("A{k}: {d}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                model.relations.push(RelModel {
                    name: name.clone(),
                    domains,
                    stored: Vec::new(),
                });
                return format!("CREATE RELATION {name} ({attrs});");
            }
            36..=38 if model.relations.len() > 2 => {
                let r = model
                    .relations
                    .remove(rng.gen_range(0..model.relations.len()));
                return format!("DROP RELATION {};", r.name);
            }
            // The bulk: tuple-level writes.
            39..=74 if !model.relations.is_empty() => {
                let r = rng.gen_range(0..model.relations.len());
                let values = model.relations[r]
                    .domains
                    .clone()
                    .iter()
                    .map(|d| model.value(rng, d))
                    .collect::<Vec<_>>()
                    .join(", ");
                let negated = if rng.gen_bool(0.25) { "NOT " } else { "" };
                let rel = &mut model.relations[r];
                rel.stored.push(values.clone());
                return format!("ASSERT {negated}{} ({values});", rel.name);
            }
            75..=84 => {
                let candidates: Vec<usize> = model
                    .relations
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.stored.is_empty())
                    .map(|(k, _)| k)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let r = candidates[rng.gen_range(0..candidates.len())];
                let rel = &mut model.relations[r];
                let values = rel.stored.remove(rng.gen_range(0..rel.stored.len()));
                return format!("RETRACT {} ({values});", rel.name);
            }
            85..=90 if !model.relations.is_empty() => {
                let rel = &model.relations[rng.gen_range(0..model.relations.len())];
                let mode = ["OFF-PATH", "ON-PATH", "NONE"][rng.gen_range(0..3usize)];
                return format!("SET PREEMPTION {} {mode};", rel.name);
            }
            // Rollover forcers: an out-of-vocabulary write (implicit
            // checkpoint) and the explicit verb.
            91..=94 if !model.relations.is_empty() => {
                let rel = &model.relations[rng.gen_range(0..model.relations.len())];
                return format!("CONSOLIDATE {};", rel.name);
            }
            95..=96 => return "CHECKPOINT;".to_string(),
            _ => continue,
        }
    }
}

fn temp_store(tag: u64) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!(
        "hrdm_replica_parity_{tag:x}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let quoted = dir.to_str().unwrap().to_string();
    (dir, quoted)
}

/// A restart at this instant: `OPEN` a copy of the primary's store
/// directory in a fresh engine.
fn restart_from_copy(dir: &std::path::Path) -> Engine {
    let copy = dir.with_extension("restart");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let restarted = Engine::new();
    restarted
        .execute(&format!("OPEN \"{}\";", copy.to_str().unwrap()))
        .unwrap();
    restarted
}

/// Sync the replica, restart from a copy of the store, and pin byte
/// parity of all three right now.
fn assert_parity(
    primary: &Engine,
    replica: &Replica,
    model: &Model,
    dir: &std::path::Path,
    at: usize,
) {
    let shipped = replica.sync().unwrap();
    assert_eq!(
        Some(shipped),
        primary.journal_lsn(),
        "replica drained to a different LSN than the primary journaled (statement {at})"
    );

    // Refused statements journal nothing and publish nothing, anywhere.
    let epochs = (primary.epoch(), replica.engine().epoch());
    for stmt in model.refused_statements() {
        assert!(
            primary.execute(&stmt).is_err(),
            "primary accepted {stmt} (statement {at})"
        );
    }
    assert_eq!(primary.journal_lsn(), Some(shipped));
    assert_eq!(replica.sync().unwrap(), shipped);
    assert_eq!((primary.epoch(), replica.engine().epoch()), epochs);
    let restarted = restart_from_copy(dir);
    assert_eq!(
        restarted.journal_lsn(),
        Some(shipped),
        "restart recovered a different LSN than the primary journaled (statement {at})"
    );

    let suite = model.read_suite();
    if suite.is_empty() {
        return;
    }
    let expected = primary.execute_read(&suite, 0).unwrap();
    assert_eq!(
        expected,
        replica.execute_read(&suite, 0).unwrap(),
        "replica diverged from the primary at statement {at} (lsn {shipped})"
    );
    assert_eq!(
        expected,
        restarted.execute_read(&suite, 0).unwrap(),
        "restart diverged from the primary at statement {at} (lsn {shipped})"
    );
    assert!(replica.execute("CREATE DOMAIN Nope;").is_err());
}

#[test]
fn replica_reads_are_byte_identical_across_randomized_histories() {
    let mut statements_total = 0usize;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::default();
        let (dir, dir_str) = temp_store(seed);

        let primary = Engine::new();
        primary
            .execute(&format!("OPEN \"{dir_str}\" SYNC EVERY 1;"))
            .unwrap();
        let replica = Replica::attach(&dir);

        let mut applied = 0usize;
        let mut attempts = 0usize;
        while applied < SCRIPT_LEN {
            attempts += 1;
            assert!(
                attempts < SCRIPT_LEN * 20,
                "generator starved: only {applied} statements applied"
            );
            let stmt = generate(&mut rng, &mut model);
            // The model is optimistic about tuple writes (an ASSERT can
            // legitimately conflict with a stored literal); a refused
            // statement journals nothing, so both sides are unaffected.
            if primary.execute(&stmt).is_err() {
                continue;
            }
            applied += 1;
            if applied.is_multiple_of(SYNC_STRIDE) {
                assert_parity(&primary, &replica, &model, &dir, applied);
            }
        }
        assert_parity(&primary, &replica, &model, &dir, applied);
        statements_total += applied;

        // A replica attached late sees the same state via a catch-up
        // rollover plus tail replay.
        let late = Replica::attach(&dir);
        assert_eq!(late.sync().unwrap(), replica.shipped_lsn());
        let suite = model.read_suite();
        assert_eq!(
            replica.execute_read(&suite, 0).unwrap(),
            late.execute_read(&suite, 0).unwrap(),
            "late-attach replica diverged (seed {seed:#x})"
        );

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(dir.with_extension("restart")).ok();
    }
    assert!(
        statements_total >= 1000,
        "harness must cover ≥ 1k mutation statements, got {statements_total}"
    );
}
