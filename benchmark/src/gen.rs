//! The seeded generator: every input the benchmark hands the program
//! is HQL text produced here from `--seed`.
//!
//! The *shape* of what is generated is fixed — how many classes carry a
//! tuple at each level, how many instance exceptions of each sign, how
//! many reads per write — and every name has a fixed width, so the seed
//! permutes *which* nodes and relations play each role without
//! changing any count or byte size. That keeps per-operation cost (and
//! the exact size metrics) the same across seeds, which is what lets
//! the ten-seed spread check in `check.sh` measure the machine and not
//! the generator.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Children per class in the `T` domain.
pub const FANOUT: usize = 6;
/// Leaf classes: the tree is `FANOUT` wide and three levels deep.
pub const LEAVES: usize = FANOUT * FANOUT * FANOUT;
/// Instances per leaf class; slot 0 of every leaf is the Fig. 1
/// "Patricia" diamond (a second parent: a seeded sibling leaf).
pub const PER_LEAF: usize = 8;
/// Instances in `T`.
pub const INSTANCES: usize = LEAVES * PER_LEAF;
/// Instances of the `Col` domain the binary relations range over.
pub const COLS: usize = 8;

/// Class-level tuples stored per unary relation (2 + 8 + 20).
pub const CLASS_TUPLES: usize = 30;
/// Instance-level tuples stored per unary relation: one per diamond
/// plus 184 exceptions on plain instances.
pub const INSTANCE_TUPLES: usize = LEAVES + 2 * PLAIN_FLIPS;
/// Plain instances flipped in each direction per unary relation.
const PLAIN_FLIPS: usize = 92;
/// Atoms in every unary relation's extension, by construction:
/// 76 true leaves x 7 plain instances, 92 flipped off, 92 flipped on,
/// and half the diamonds asserted positive.
pub const ATOMS_PER_RELATION: usize = 76 * (PER_LEAF - 1) + LEAVES / 2;

/// A derived seed for one named stream, so streams stay independent of
/// each other and of the order they are generated in.
fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rng(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// `k` distinct values from `0..n`, in draw order (partial Fisher-Yates).
fn choose(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot choose {k} of {n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Name of class `idx` at `level` (1..=3); fixed width.
pub fn class_name(level: usize, idx: usize) -> String {
    format!("c{level}{idx:03}")
}

/// Name of instance `slot` of leaf class `leaf`; fixed width.
pub fn instance_name(inst: usize) -> String {
    format!("i{:03}{}", inst / PER_LEAF, inst % PER_LEAF)
}

/// Name of unary relation `k`; fixed width up to 9999 relations.
pub fn relation_name(k: usize) -> String {
    format!("R{k:04}")
}

fn is_diamond(inst: usize) -> bool {
    inst.is_multiple_of(PER_LEAF)
}

/// The stored content of one unary relation `R (X: T)`.
pub struct RelationSpec {
    /// Relation name.
    pub name: String,
    /// `(class name, positive?)` tuples, outermost level first.
    pub class_tuples: Vec<(String, bool)>,
    /// `(instance index, positive?)` tuples.
    pub instance_tuples: Vec<(usize, bool)>,
    /// Instances with no stored tuple: the pool timed writes draw from,
    /// paired with the truth they inherit (a timed `ASSERT` states the
    /// opposite, so it is always an exception, never a contradiction).
    pub free: Vec<(usize, bool)>,
}

impl RelationSpec {
    fn generate(name: String, rng: &mut StdRng) -> RelationSpec {
        let mut class_tuples = Vec::with_capacity(CLASS_TUPLES);
        // Truth inherited by each leaf from the nearest class tuple.
        let mut leaf_truth = [false; LEAVES];
        let set_l2 = |l2: usize, truth: bool, leaf_truth: &mut [bool; LEAVES]| {
            leaf_truth[l2 * FANOUT..(l2 + 1) * FANOUT].fill(truth);
        };
        let mut l2_tuples = Vec::new();
        let mut l3_tuples = Vec::new();
        let l1_pos = choose(rng, FANOUT, 2);
        let mut bare_l2 = Vec::new(); // level-2 classes with no tuple on their path
        for l1 in 0..FANOUT {
            let positive = l1_pos.contains(&l1);
            if positive {
                class_tuples.push((class_name(1, l1), true));
                for l2 in l1 * FANOUT..(l1 + 1) * FANOUT {
                    set_l2(l2, true, &mut leaf_truth);
                }
            }
            // Under a positive level-1 class two children are negated;
            // under a bare one, one child is asserted.
            let picked = choose(rng, FANOUT, if positive { 2 } else { 1 });
            for c in 0..FANOUT {
                let l2 = l1 * FANOUT + c;
                if picked.contains(&c) {
                    l2_tuples.push((class_name(2, l2), !positive));
                    set_l2(l2, !positive, &mut leaf_truth);
                    // Two leaves under every level-2 tuple flip back.
                    for leaf in choose(rng, FANOUT, 2) {
                        let leaf = l2 * FANOUT + leaf;
                        l3_tuples.push((class_name(3, leaf), positive));
                        leaf_truth[leaf] = positive;
                    }
                } else if !positive {
                    bare_l2.push(l2);
                }
            }
        }
        // Four isolated positive leaves where nothing else applies.
        for k in choose(rng, bare_l2.len(), 4) {
            let leaf = bare_l2[k] * FANOUT + rng.gen_range(0..FANOUT);
            l3_tuples.push((class_name(3, leaf), true));
            leaf_truth[leaf] = true;
        }
        class_tuples.extend(l2_tuples);
        class_tuples.extend(l3_tuples);
        assert_eq!(class_tuples.len(), CLASS_TUPLES);

        // Every diamond gets an explicit tuple (the paper's resolution
        // of a possibly conflicting double inheritance), half positive.
        let mut instance_tuples = Vec::with_capacity(INSTANCE_TUPLES);
        let positive_diamonds: BTreeSet<usize> =
            choose(rng, LEAVES, LEAVES / 2).into_iter().collect();
        for leaf in 0..LEAVES {
            instance_tuples.push((leaf * PER_LEAF, positive_diamonds.contains(&leaf)));
        }
        // Plain exceptions: flip 92 inherited-true and 92 inherited-false.
        let plain = |truth: bool| -> Vec<usize> {
            (0..INSTANCES)
                .filter(|&i| !is_diamond(i) && leaf_truth[i / PER_LEAF] == truth)
                .collect()
        };
        let mut stored: BTreeSet<usize> = BTreeSet::new();
        for truth in [true, false] {
            let pool = plain(truth);
            for k in choose(rng, pool.len(), PLAIN_FLIPS) {
                instance_tuples.push((pool[k], !truth));
                stored.insert(pool[k]);
            }
        }
        assert_eq!(instance_tuples.len(), INSTANCE_TUPLES);
        let free = (0..INSTANCES)
            .filter(|&i| !is_diamond(i) && !stored.contains(&i))
            .map(|i| (i, leaf_truth[i / PER_LEAF]))
            .collect();
        RelationSpec {
            name,
            class_tuples,
            instance_tuples,
            free,
        }
    }

    fn write_ddl(&self, out: &mut String) {
        let name = &self.name;
        let _ = writeln!(out, "CREATE RELATION {name} (X: T);");
        for (class, positive) in &self.class_tuples {
            let not = if *positive { "" } else { "NOT " };
            let _ = writeln!(out, "ASSERT {not}{name} (ALL {class});");
        }
        for (inst, positive) in &self.instance_tuples {
            let not = if *positive { "" } else { "NOT " };
            let _ = writeln!(out, "ASSERT {not}{name} ({});", instance_name(*inst));
        }
    }
}

/// A small unary relation for catalogs that need many relations but
/// read few of them: two class tuples, no instance tuples.
fn write_filler_ddl(name: &str, rng: &mut StdRng, out: &mut String) {
    let _ = writeln!(out, "CREATE RELATION {name} (X: T);");
    let l1 = rng.gen_range(0..FANOUT);
    let l2 = l1 * FANOUT + rng.gen_range(0..FANOUT);
    let _ = writeln!(out, "ASSERT {name} (ALL {});", class_name(1, l1));
    let _ = writeln!(out, "ASSERT NOT {name} (ALL {});", class_name(2, l2));
}

/// Name of the `k`-th binary pair's left (`A`) or right (`B`) relation.
pub fn pair_name(side: char, k: usize) -> String {
    format!("{side}{k:04}")
}

/// A binary relation `name (X: T, <attr>: Col)` with at most one
/// class-level region per `Col` value, so no two overlap: two level-1
/// classes each with a negated child, two bare level-2 classes, and
/// sixteen negated plain instances inside the first region. Its
/// extension is 2 x 240 + 2 x 48 - 16 atoms whatever the seed.
fn write_pair_ddl(name: &str, attr: &str, rng: &mut StdRng, out: &mut String) {
    let _ = writeln!(out, "CREATE RELATION {name} (X: T, {attr}: Col);");
    let mut first_region = (0, 0);
    for col in 0..4 {
        if col < 2 {
            let l1 = rng.gen_range(0..FANOUT);
            let l2 = l1 * FANOUT + rng.gen_range(0..FANOUT);
            let _ = writeln!(out, "ASSERT {name} (ALL {}, k{col});", class_name(1, l1));
            let _ = writeln!(
                out,
                "ASSERT NOT {name} (ALL {}, k{col});",
                class_name(2, l2)
            );
            if col == 0 {
                first_region = (l1, l2);
            }
        } else {
            let l2 = rng.gen_range(0..FANOUT * FANOUT);
            let _ = writeln!(out, "ASSERT {name} (ALL {}, k{col});", class_name(2, l2));
        }
    }
    let (l1, l2) = first_region;
    let inside: Vec<usize> = (0..INSTANCES)
        .filter(|&i| {
            let leaf = i / PER_LEAF;
            !is_diamond(i) && leaf / (FANOUT * FANOUT) == l1 && leaf / FANOUT != l2
        })
        .collect();
    for k in choose(rng, inside.len(), 16) {
        let _ = writeln!(out, "ASSERT NOT {name} ({}, k0);", instance_name(inside[k]));
    }
}

/// What a workload's catalog holds besides the `taxo` domains.
pub struct WorldShape {
    /// Fully populated unary relations (`R0000`…), ~430 tuples each.
    pub relations: usize,
    /// Two-tuple filler relations (`F0000`…) that only widen the catalog.
    pub fillers: usize,
    /// Binary pairs `A<k> (X, C)` / `B<k> (X, S)` for joins.
    pub pairs: usize,
}

/// A generated world: its set-up script and what the streams need to
/// know about it.
pub struct World {
    /// The whole set-up as one HQL script (domains first, so no
    /// relation is ever re-based onto an edited domain).
    pub ddl: String,
    /// The populated unary relations.
    pub relations: Vec<RelationSpec>,
    /// Filler relation names.
    pub fillers: Vec<String>,
    /// Number of binary pairs.
    pub pairs: usize,
}

impl World {
    /// Every relation of the catalog, with the number of atoms its
    /// extension must hold where the generator fixes it.
    pub fn relation_names(&self) -> Vec<(String, Option<usize>)> {
        let populated = self.relations.iter().map(|r| &r.name);
        let pairs = (0..self.pairs).flat_map(|k| [pair_name('A', k), pair_name('B', k)]);
        populated
            .map(|name| (name.clone(), Some(ATOMS_PER_RELATION)))
            .chain(self.fillers.iter().map(|name| (name.clone(), None)))
            .chain(pairs.map(|name| (name, None)))
            .collect()
    }

    /// Generate the `taxo` world for `seed` in the given shape.
    pub fn generate(seed: u64, shape: &WorldShape) -> World {
        let mut ddl = String::new();
        let mut r = rng(seed, "taxo");
        ddl.push_str("CREATE DOMAIN T;\n");
        for l1 in 0..FANOUT {
            let _ = writeln!(ddl, "CREATE CLASS {} UNDER T;", class_name(1, l1));
        }
        for level in 2..=3 {
            for idx in 0..FANOUT.pow(level as u32) {
                let parent = class_name(level - 1, idx / FANOUT);
                let _ = writeln!(
                    ddl,
                    "CREATE CLASS {} UNDER {parent};",
                    class_name(level, idx)
                );
            }
        }
        for inst in 0..INSTANCES {
            let leaf = inst / PER_LEAF;
            let name = instance_name(inst);
            if is_diamond(inst) {
                // A sibling leaf, like Patricia's two kinds of penguin:
                // both parents share every ancestor, so class tuples
                // above the leaves bind a diamond through either parent
                // alike and extension sizes do not depend on the seed.
                let sibling = (leaf % FANOUT + r.gen_range(1..FANOUT)) % FANOUT;
                let other = leaf / FANOUT * FANOUT + sibling;
                let _ = writeln!(
                    ddl,
                    "CREATE INSTANCE {name} OF {}, {};",
                    class_name(3, leaf),
                    class_name(3, other)
                );
            } else {
                let _ = writeln!(ddl, "CREATE INSTANCE {name} OF {};", class_name(3, leaf));
            }
        }
        ddl.push_str("CREATE DOMAIN Col;\n");
        for col in 0..COLS {
            let _ = writeln!(ddl, "CREATE INSTANCE k{col} OF Col;");
        }
        let mut r = rng(seed, "relations");
        let relations: Vec<RelationSpec> = (0..shape.relations)
            .map(|k| RelationSpec::generate(relation_name(k), &mut r))
            .collect();
        for spec in &relations {
            spec.write_ddl(&mut ddl);
        }
        let fillers: Vec<String> = (0..shape.fillers).map(|k| format!("F{k:04}")).collect();
        for name in &fillers {
            write_filler_ddl(name, &mut r, &mut ddl);
        }
        for k in 0..shape.pairs {
            write_pair_ddl(&pair_name('A', k), "C", &mut r, &mut ddl);
            write_pair_ddl(&pair_name('B', k), "S", &mut r, &mut ddl);
        }
        World {
            ddl,
            relations,
            fillers,
            pairs: shape.pairs,
        }
    }
}

/// One generated operation: its text and what the harness needs to
/// account for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The HQL statement, `;`-terminated.
    pub text: String,
    /// Which latency class it is timed under.
    pub class: OpClass,
}

/// Latency classes a workload reports separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `HOLDS` / `WHY` / `COUNT` / `CHECK`: served from a snapshot.
    Read,
    /// `ASSERT` / `RETRACT`: through the single writer.
    Write,
    /// `LET name = <derivation>`: the batch executor, then the writer.
    Derive,
    /// `OPEN` of a store whose log must be replayed: a restart.
    Restart,
    /// `Replica::sync`: a follower catching up with the primary's log.
    CatchUp,
}

impl OpClass {
    /// Number of classes.
    pub const COUNT: usize = 5;
}

/// The read/write mix of one client's round.
pub struct Mix {
    /// Operations in the round.
    pub ops: usize,
    /// One write every this many operations (0 = read-only).
    pub write_every: usize,
    /// One `COUNT` every this many operations (0 = none).
    pub count_every: usize,
    /// One `WHY` every this many operations (0 = none); the remaining
    /// reads are `HOLDS`.
    pub why_every: usize,
    /// Relations reads are spread over: `0..read_relations`.
    pub read_relations: usize,
    /// Relations writes go to: `0..write_relations`. `COUNT` only
    /// touches relations at or past this index, so a count never
    /// depends on another client's in-flight writes.
    pub write_relations: usize,
}

/// One client's operation stream for a round.
///
/// `client` of `clients` partitions the instance space: a client only
/// ever names instances whose index is congruent to it, so with several
/// connections every reply is a function of that connection's own
/// earlier writes and the stream has exactly one correct transcript.
/// Each `ASSERT` is retracted `2 * LAG` writes later within the same
/// round, so the catalog is back at its baseline when the round ends
/// and every round replays identical work.
pub fn round_stream(seed: u64, world: &World, mix: &Mix, client: usize, clients: usize) -> Vec<Op> {
    const LAG: usize = 16;
    let mut r = rng(seed, &format!("stream-{client}"));
    let mine = |inst: usize| inst % clients == client;
    let writes = mix.ops.checked_div(mix.write_every).unwrap_or(0);
    assert!(
        writes.is_multiple_of(2),
        "a round pairs every ASSERT with its RETRACT"
    );
    // Distinct (relation, instance) targets for this round's asserts.
    let asserts = writes / 2;
    let mut targets: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ordered = Vec::with_capacity(asserts);
    while ordered.len() < asserts {
        let rel = r.gen_range(0..mix.write_relations);
        let free = &world.relations[rel].free;
        let (inst, inherited) = free[r.gen_range(0..free.len())];
        if mine(inst) && targets.insert((rel, inst)) {
            ordered.push((rel, inst, inherited));
        }
    }
    // Write k is an assert while the window fills, then asserts and
    // retracts alternate, then the window drains.
    let mut write_ops = Vec::with_capacity(writes);
    let (mut next_assert, mut next_retract) = (0, 0);
    while next_retract < asserts {
        let open = next_assert - next_retract;
        if next_assert < asserts && open < LAG {
            let (rel, inst, inherited) = ordered[next_assert];
            let not = if inherited { "NOT " } else { "" };
            write_ops.push(format!(
                "ASSERT {not}{} ({});",
                world.relations[rel].name,
                instance_name(inst)
            ));
            next_assert += 1;
        } else {
            let (rel, inst, _) = ordered[next_retract];
            write_ops.push(format!(
                "RETRACT {} ({});",
                world.relations[rel].name,
                instance_name(inst)
            ));
            next_retract += 1;
        }
    }
    // One decision per slot. Writes take the last slot of each
    // `write_every` and `COUNT`s the middle slot of each `count_every`
    // (a mix where the two meet is refused); every `why_every`-th of
    // the point reads that remain is a `WHY`.
    let slot = |n: usize, every: usize, at: usize| every != 0 && n % every == at;
    let mut write_ops = write_ops.into_iter();
    let mut ops = Vec::with_capacity(mix.ops);
    let mut point_reads = 0;
    for n in 0..mix.ops {
        let count = slot(n, mix.count_every, mix.count_every / 2);
        if slot(n, mix.write_every, mix.write_every.saturating_sub(1)) {
            assert!(!count, "slot {n} is both a write and a COUNT");
            let text = write_ops
                .next()
                .expect("one generated write per write slot");
            ops.push(Op {
                text,
                class: OpClass::Write,
            });
            continue;
        }
        let text = if count {
            let rel = r.gen_range(mix.write_relations..mix.read_relations);
            format!("COUNT {};", world.relations[rel].name)
        } else {
            let rel = r.gen_range(0..mix.read_relations);
            let inst = loop {
                let inst = r.gen_range(0..INSTANCES);
                if mine(inst) {
                    break inst;
                }
            };
            point_reads += 1;
            let why = mix.why_every != 0 && point_reads % mix.why_every == 0;
            let verb = if why { "WHY" } else { "HOLDS" };
            format!(
                "{verb} {} ({});",
                world.relations[rel].name,
                instance_name(inst)
            )
        };
        ops.push(Op {
            text,
            class: OpClass::Read,
        });
    }
    ops
}

/// The right-hand side of one `LET`, kept structured so the benchmark
/// can also rebuild it as a `LogicalPlan` and check its flat semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// `UNION a b`
    Union(String, String),
    /// `INTERSECT a b`
    Intersect(String, String),
    /// `DIFFERENCE a b`
    Difference(String, String),
    /// `JOIN a b` (natural join on `X`)
    Join(String, String),
    /// `SELECT a WHERE X IS ALL class`
    Select(String, String),
    /// `PROJECT a (X)`
    Project(String),
    /// `CONSOLIDATE a`
    Consolidate(String),
    /// `EXPLICATE a`
    Explicate(String),
}

impl Derivation {
    /// The derivation as HQL.
    pub fn text(&self) -> String {
        match self {
            Derivation::Union(a, b) => format!("UNION {a} {b}"),
            Derivation::Intersect(a, b) => format!("INTERSECT {a} {b}"),
            Derivation::Difference(a, b) => format!("DIFFERENCE {a} {b}"),
            Derivation::Join(a, b) => format!("JOIN {a} {b}"),
            Derivation::Select(a, class) => format!("SELECT {a} WHERE X IS ALL {class}"),
            Derivation::Project(a) => format!("PROJECT {a} (X)"),
            Derivation::Consolidate(a) => format!("CONSOLIDATE {a}"),
            Derivation::Explicate(a) => format!("EXPLICATE {a}"),
        }
    }
}

/// One statement of a derivation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeriveStep {
    /// The statement and its latency class.
    pub op: Op,
    /// For a `LET`: the bound name and its derivation.
    pub binding: Option<(String, Derivation)>,
}

/// How many statements of each kind one derivation round holds. The
/// counts put the round's median inside the `CONSOLIDATE` group and its
/// 75th percentile inside the `INTERSECT` group, away from the edges
/// between kinds of very different cost.
const DERIVE_MIX: [(&str, usize); 10] = [
    ("UNION", 6),
    ("INTERSECT", 6),
    ("DIFFERENCE", 6),
    ("JOIN", 4),
    ("SELECT", 6),
    ("PROJECT", 4),
    ("CONSOLIDATE", 10),
    ("EXPLICATE", 6),
    ("CHECK", 6),
    ("COUNT", 6),
];

/// One round of the derivation workload: 60 statements in a seeded
/// order, walking the unary relations in sequence so the round touches
/// more relations than the subsumption-core cache holds.
pub fn derive_round(seed: u64, world: &World) -> Vec<DeriveStep> {
    let mut r = rng(seed, "derive");
    let mut next_rel = 0;
    let mut rel = || {
        let name = world.relations[next_rel % world.relations.len()]
            .name
            .clone();
        next_rel += 1;
        name
    };
    let mut next_pair = 0;
    let mut pair = || {
        next_pair += 1;
        (next_pair - 1) % world.pairs
    };
    let mut steps = Vec::new();
    for (kind, count) in DERIVE_MIX {
        for _ in 0..count {
            let derivation = match kind {
                "UNION" => Derivation::Union(rel(), rel()),
                "INTERSECT" => Derivation::Intersect(rel(), rel()),
                "DIFFERENCE" => Derivation::Difference(rel(), rel()),
                "JOIN" => {
                    let k = pair();
                    Derivation::Join(pair_name('A', k), pair_name('B', k))
                }
                "SELECT" => Derivation::Select(rel(), class_name(1, r.gen_range(0..FANOUT))),
                "PROJECT" => Derivation::Project(pair_name('A', pair())),
                "CONSOLIDATE" => Derivation::Consolidate(rel()),
                "EXPLICATE" => Derivation::Explicate(rel()),
                "CHECK" | "COUNT" => {
                    let text = if kind == "CHECK" {
                        format!("CHECK {};", rel())
                    } else {
                        format!("COUNT {} BY X;", rel())
                    };
                    steps.push(DeriveStep {
                        op: Op {
                            text,
                            class: OpClass::Read,
                        },
                        binding: None,
                    });
                    continue;
                }
                other => unreachable!("unknown statement kind {other}"),
            };
            let name = format!("D{:02}", steps.len());
            steps.push(DeriveStep {
                op: Op {
                    text: format!("LET {name} = {};", derivation.text()),
                    class: OpClass::Derive,
                },
                binding: Some((name, derivation)),
            });
        }
    }
    // Seeded order, so kinds interleave differently per seed.
    for i in (1..steps.len()).rev() {
        steps.swap(i, r.gen_range(0..=i));
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: WorldShape = WorldShape {
        relations: 4,
        fillers: 3,
        pairs: 1,
    };

    fn mix() -> Mix {
        Mix {
            ops: 2000,
            write_every: 10,
            count_every: 50,
            why_every: 5,
            read_relations: 4,
            write_relations: 2,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_text() {
        let (a, b) = (World::generate(7, &SHAPE), World::generate(7, &SHAPE));
        assert_eq!(a.ddl, b.ddl);
        assert_eq!(
            round_stream(7, &a, &mix(), 0, 2),
            round_stream(7, &b, &mix(), 0, 2)
        );
    }

    #[test]
    fn another_seed_changes_the_text_but_no_size() {
        let (a, b) = (World::generate(7, &SHAPE), World::generate(8, &SHAPE));
        assert_ne!(a.ddl, b.ddl);
        assert_eq!(a.ddl.len(), b.ddl.len());
        assert_eq!(a.ddl.lines().count(), b.ddl.lines().count());
        let (sa, sb) = (
            round_stream(7, &a, &mix(), 1, 2),
            round_stream(8, &b, &mix(), 1, 2),
        );
        assert_ne!(sa, sb);
        let classes = |s: &[Op]| s.iter().filter(|o| o.class == OpClass::Write).count();
        assert_eq!(classes(&sa), classes(&sb));
        for spec in a.relations.iter().chain(&b.relations) {
            assert_eq!(spec.class_tuples.len(), CLASS_TUPLES);
            assert_eq!(spec.instance_tuples.len(), INSTANCE_TUPLES);
        }
    }

    #[test]
    fn a_round_leaves_the_catalog_at_its_baseline() {
        let world = World::generate(3, &SHAPE);
        let ops = round_stream(3, &world, &mix(), 0, 1);
        assert_eq!(ops.len(), 2000);
        let mut open = BTreeSet::new();
        for op in ops.iter().filter(|o| o.class == OpClass::Write) {
            let (verb, rest) = op.text.split_once(' ').unwrap();
            let key = rest.trim_start_matches("NOT ").to_string();
            match verb {
                "ASSERT" => assert!(open.insert(key), "asserted twice: {}", op.text),
                "RETRACT" => assert!(open.remove(&key), "retract before assert: {}", op.text),
                other => panic!("unexpected write verb {other}"),
            }
        }
        assert!(
            open.is_empty(),
            "every assert is retracted within the round"
        );
    }

    #[test]
    fn a_derive_round_is_sixty_statements_with_unique_bindings() {
        let world = World::generate(5, &SHAPE);
        let (a, b) = (derive_round(5, &world), derive_round(5, &world));
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        let names: BTreeSet<&str> = a
            .iter()
            .filter_map(|s| s.binding.as_ref().map(|(n, _)| n.as_str()))
            .collect();
        assert_eq!(names.len(), 48);
        assert_ne!(a, derive_round(6, &World::generate(6, &SHAPE)));
    }

    #[test]
    fn clients_never_share_an_instance() {
        let world = World::generate(3, &SHAPE);
        for client in 0..2 {
            for op in round_stream(3, &world, &mix(), client, 2) {
                if let Some(at) = op.text.find("(i") {
                    let inst: usize = op.text[at + 2..at + 6].parse().unwrap();
                    let inst = inst / 10 * PER_LEAF + inst % 10;
                    assert_eq!(inst % 2, client, "{}", op.text);
                }
            }
        }
    }
}
