//! Published snapshots over structurally shared maps.
//!
//! A write copies one path of the relation map and one path of the
//! written relation's tuple map, and shares everything else with the
//! snapshot it was cloned from. These tests hold that sharing to its
//! two obligations: a pinned snapshot must never see a later write
//! (byte-equal to a reference engine replayed to the pinned epoch), and
//! what a write does not change it must not copy (pointer-equal tuple
//! trees across an identical re-`ASSERT` and across DDL on a live
//! domain).

use hrdm_hql::parser::parse;
use hrdm_hql::{Engine, ReadView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 8;
const INSTANCES: usize = 120;

/// A domain of `CLASSES` classes in a binary tree under `Animal` with
/// `INSTANCES` instances spread over them, a unary and a binary
/// relation, and enough tuples that both tuple maps are several nodes
/// deep.
fn bootstrap() -> String {
    let mut script = String::from("CREATE DOMAIN Animal;\n");
    for c in 0..CLASSES {
        let parent = if c == 0 {
            "Animal".to_string()
        } else {
            format!("C{}", (c - 1) / 2)
        };
        script += &format!("CREATE CLASS C{c} UNDER {parent};\n");
    }
    for i in 0..INSTANCES {
        script += &format!("CREATE INSTANCE i{i} OF C{};\n", i % CLASSES);
    }
    script += "CREATE RELATION Flies (Creature: Animal);\n";
    script += "CREATE RELATION Likes (Who: Animal, Whom: Animal);\n";
    for i in (0..INSTANCES).step_by(2) {
        script += &format!("ASSERT Flies (i{i});\n");
        script += &format!("ASSERT Likes (i{i}, i{});\n", (i * 7 + 1) % INSTANCES);
    }
    script
}

/// Records an accepted statement's effect in the model.
type Commit = Box<dyn FnOnce(&mut Model)>;

/// The test's own record of what is stored and named, so it can write
/// statements the engine will mostly accept.
struct Model {
    /// `(relation, value list, negated)` of every stored tuple.
    stored: Vec<(&'static str, String, bool)>,
    classes: Vec<String>,
    instances: Vec<String>,
    fresh: usize,
}

impl Model {
    fn new() -> Model {
        let mut stored = Vec::new();
        for i in (0..INSTANCES).step_by(2) {
            stored.push(("Flies", format!("i{i}"), false));
            stored.push((
                "Likes",
                format!("i{i}, i{}", (i * 7 + 1) % INSTANCES),
                false,
            ));
        }
        Model {
            stored,
            classes: (0..CLASSES).map(|c| format!("C{c}")).collect(),
            instances: (0..INSTANCES).map(|i| format!("i{i}")).collect(),
            fresh: 0,
        }
    }

    fn value(&self, rng: &mut SmallRng) -> String {
        if rng.gen_bool(0.7) {
            self.instances[rng.gen_range(0..self.instances.len())].clone()
        } else {
            format!("ALL {}", self.classes[rng.gen_range(0..self.classes.len())])
        }
    }

    fn values(&self, rng: &mut SmallRng, relation: &str) -> String {
        match relation {
            "Flies" => self.value(rng),
            _ => format!("{}, {}", self.value(rng), self.value(rng)),
        }
    }

    /// One statement of the history, with what records its effect once
    /// the engine accepted it.
    fn statement(&mut self, rng: &mut SmallRng) -> (String, Commit) {
        let relation = if rng.gen_bool(0.5) { "Flies" } else { "Likes" };
        match rng.gen_range(0u32..100) {
            0..=39 => {
                let values = self.values(rng, relation);
                let negated = rng.gen_bool(0.3);
                let not = if negated { "NOT " } else { "" };
                let text = format!("ASSERT {not}{relation} ({values});");
                (
                    text,
                    Box::new(move |m| {
                        if !m
                            .stored
                            .iter()
                            .any(|(r, v, _)| *r == relation && *v == values)
                        {
                            m.stored.push((relation, values, negated));
                        }
                    }),
                )
            }
            40..=64 if !self.stored.is_empty() => {
                let k = rng.gen_range(0..self.stored.len());
                let (relation, values, _) = self.stored[k].clone();
                (
                    format!("RETRACT {relation} ({values});"),
                    Box::new(move |m| {
                        m.stored.swap_remove(k);
                    }),
                )
            }
            65..=72 if !self.stored.is_empty() => {
                // Identical re-ASSERT: accepted, changes nothing.
                let (relation, values, negated) =
                    self.stored[rng.gen_range(0..self.stored.len())].clone();
                let not = if negated { "NOT " } else { "" };
                (
                    format!("ASSERT {not}{relation} ({values});"),
                    Box::new(|_| {}),
                )
            }
            73..=79 => {
                let mode = ["OFF-PATH", "ON-PATH", "NONE"][rng.gen_range(0..3usize)];
                (
                    format!("SET PREEMPTION {relation} {mode};"),
                    Box::new(|_| {}),
                )
            }
            80..=93 => {
                self.fresh += 1;
                let name = format!("n{}", self.fresh);
                let class = self.classes[rng.gen_range(0..self.classes.len())].clone();
                (
                    format!("CREATE INSTANCE {name} OF {class};"),
                    Box::new(move |m| m.instances.push(name)),
                )
            }
            _ => {
                self.fresh += 1;
                let name = format!("K{}", self.fresh);
                let class = self.classes[rng.gen_range(0..self.classes.len())].clone();
                (
                    format!("CREATE CLASS {name} UNDER {class};"),
                    Box::new(move |m| m.classes.push(name)),
                )
            }
        }
    }
}

const READ_SUITE: &str = "SHOW DOMAIN Animal; SHOW Flies; COUNT Flies; SHOW Likes; COUNT Likes; \
     HOLDS Flies (i3); HOLDS Likes (i2, i15);";

fn render(view: &ReadView) -> String {
    view.execute(parse(READ_SUITE).unwrap())
        .unwrap()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect()
}

/// Pin the engine at every epoch of a seeded 400-statement history of
/// `ASSERT` / `RETRACT` / identical re-`ASSERT` / `SET PREEMPTION` /
/// `CREATE INSTANCE` / `CREATE CLASS`; a reference engine replays the
/// accepted statements and renders itself *as it reaches* each epoch.
/// Rendered only after the whole history ran, every pinned snapshot
/// must still be byte-equal to the reference at its epoch.
#[test]
fn pinned_snapshots_render_as_a_replay_to_their_epoch() {
    for seed in [1989u64, 7] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let live = Engine::new();
        let reference = Engine::new();
        live.execute(&bootstrap()).unwrap();
        reference.execute(&bootstrap()).unwrap();
        let mut model = Model::new();

        let mut pinned = vec![live.read_view()];
        let mut expected = vec![render(&reference.read_view())];
        let mut refused = 0;
        for _ in 0..400 {
            let (statement, commit) = model.statement(&mut rng);
            let epoch = live.epoch();
            match live.execute(&statement) {
                Ok(_) => {
                    commit(&mut model);
                    assert_eq!(live.epoch(), epoch + 1, "{statement}");
                    reference.execute(&statement).unwrap();
                    pinned.push(live.read_view());
                    expected.push(render(&reference.read_view()));
                }
                Err(e) => {
                    // A contradiction: refused by both, no epoch.
                    refused += 1;
                    assert_eq!(live.epoch(), epoch, "{statement}: {e}");
                    assert!(reference.execute(&statement).is_err(), "{statement}");
                }
            }
        }
        assert!(pinned.len() > 300, "seed {seed}: {refused} refused");
        for (view, expected) in pinned.iter().zip(&expected) {
            assert_eq!(
                &render(view),
                expected,
                "seed {seed}: the snapshot pinned at epoch {} moved",
                view.epoch()
            );
        }
        // And they are distinct states, not one state rendered 300 times.
        let distinct: std::collections::BTreeSet<&String> = expected.iter().collect();
        assert!(distinct.len() > pinned.len() / 2);
    }
}

/// A write that stores what is already stored publishes an epoch but
/// copies no tuple node: the new snapshot's relation is the pinned
/// one's tree. A write that does change the relation un-shares the
/// root and leaves the pinned snapshot as it was.
#[test]
fn an_identical_reassert_leaves_the_tuple_tree_alone() {
    let engine = Engine::new();
    engine.execute(&bootstrap()).unwrap();
    let before = engine.snapshot();

    engine
        .execute("ASSERT Flies (i4); ASSERT Likes (i4, i29);")
        .unwrap();
    let after = engine.snapshot();
    assert_eq!(after.epoch(), before.epoch() + 2);
    for name in ["Flies", "Likes"] {
        let (then, now) = (
            before.relation(name).unwrap(),
            after.relation(name).unwrap(),
        );
        assert!(
            now.shares_tuples_with(then),
            "{name}: a no-op write copied a tuple node"
        );
    }

    engine.execute("ASSERT Flies (i5);").unwrap();
    let changed = engine.snapshot();
    let (then, now) = (
        before.relation("Flies").unwrap(),
        changed.relation("Flies").unwrap(),
    );
    assert!(!now.shares_tuples_with(then));
    assert_eq!(now.len(), then.len() + 1);
    assert!(changed
        .relation("Likes")
        .unwrap()
        .shares_tuples_with(before.relation("Likes").unwrap()));
}

/// DDL on a domain live relations range over re-binds each of them to
/// the grown graph without touching a tuple: every relation's tuple
/// tree after the DDL is the one the pre-DDL snapshot holds, while the
/// schemas differ (the new one knows the new node, the pinned one does
/// not).
#[test]
fn ddl_on_a_live_domain_shares_every_tuple_tree() {
    let engine = Engine::new();
    engine.execute(&bootstrap()).unwrap();
    for ddl in [
        "CREATE INSTANCE Penny OF C3;",
        "CREATE CLASS Seabird UNDER C1;",
        "PREFER C3 OVER C4 IN Animal;",
    ] {
        let pinned = engine.snapshot();
        engine.execute(ddl).unwrap();
        let grown = engine.snapshot();
        for name in ["Flies", "Likes"] {
            let (then, now) = (
                pinned.relation(name).unwrap(),
                grown.relation(name).unwrap(),
            );
            assert!(
                now.shares_tuples_with(then),
                "{ddl}: {name}'s tuples were rebuilt"
            );
            assert!(
                !std::sync::Arc::ptr_eq(now.schema(), then.schema()),
                "{ddl}: {name} still ranges over the old graph"
            );
        }
    }
    let view = engine.read_view();
    let answers = view
        .execute(parse("HOLDS Flies (Penny); COUNT Flies;").unwrap())
        .unwrap();
    assert_eq!(answers[0].to_string(), "Penny: false");
}
