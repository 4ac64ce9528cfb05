//! Deterministic fault-injection crash-recovery harness.
//!
//! A seeded generator produces a mutation script (≥ 200 operations,
//! every mutation kind) that is guaranteed to apply cleanly. The
//! harness then:
//!
//! 1. applies the script to a live catalog, snapshotting
//!    `render_stable()` after every prefix — the reference states;
//! 2. builds the exact WAL byte stream the journal would write;
//! 3. kills the stream at every possible offset (every byte in
//!    release builds, record boundaries ± a few bytes in debug
//!    builds, where the full sweep is too slow), recovers from the
//!    truncated log, and asserts the recovered catalog is
//!    **byte-identical** to the reference prefix the report claims —
//!    with the exact `records_replayed` / `truncated_bytes`
//!    accounting the cut point implies;
//! 4. repeats the sweep with single-bit flips and with `FaultFs`
//!    dropping/tearing/corrupting the Nth write call.
//!
//! The invariant throughout: **recovery always yields a prefix** of
//! the mutation history — never an error, never a panic, never a
//! state that mixes records from both sides of the kill point.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Catalog, Preemption, Truth};
use hrdm_persist::store::wal_path;
use hrdm_persist::wal::{write_header, write_record};
use hrdm_persist::{recover, DurableCatalog, Fault, FaultFs, WalRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SCRIPT_LEN: usize = 220;
const SEED: u64 = 0x5EED_CAFE;

/// Generator state mirroring what the catalog will accept, so every
/// generated mutation is guaranteed to apply.
#[derive(Default)]
struct Model {
    counter: usize,
    /// Live domains: name → (parent candidates, all nodes, root classes).
    domains: BTreeMap<String, DomainModel>,
    /// Live relations: name → per-column value candidates + stored rows.
    relations: BTreeMap<String, RelModel>,
}

struct DomainModel {
    /// Valid parents for new nodes: the root plus every class.
    parents: Vec<String>,
    /// Every node name (item-value candidates at relation creation).
    nodes: Vec<String>,
    /// Classes directly under the root, in creation order — preference
    /// edges only go from a later root class to an earlier one, which
    /// keeps the preference graph acyclic by construction.
    root_classes: Vec<String>,
    prefs: std::collections::BTreeSet<(String, String)>,
}

struct RelModel {
    /// Snapshot of each column's domain nodes at creation time (a
    /// conservative candidate set — the schema re-shares later node
    /// additions, but creation-time nodes are always resolvable).
    columns: Vec<Vec<String>>,
    /// Domains the schema references (blocks `DropDomain` on them).
    domains_used: Vec<String>,
    stored: BTreeMap<Vec<String>, Truth>,
}

impl Model {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
        &items[rng.gen_range(0..items.len())]
    }

    fn gen_one(&mut self, rng: &mut SmallRng) -> CatalogMutation {
        for _ in 0..64 {
            let roll = rng.gen_range(0u32..100);
            let m = match roll {
                0..=4 => self.gen_create_domain(),
                5..=29 => self.gen_add_class(rng),
                30..=44 => self.gen_add_instance(rng),
                45..=52 => self.gen_prefer(rng),
                53..=62 => self.gen_create_relation(rng),
                63..=87 => self.gen_assert(rng),
                88..=92 => self.gen_retract(rng),
                93..=96 => self.gen_set_preemption(rng),
                97..=98 => self.gen_drop_relation(rng),
                _ => self.gen_drop_domain(rng),
            };
            if let Some(m) = m {
                return m;
            }
        }
        // Always satisfiable fallback.
        self.gen_create_domain()
            .expect("create-domain always applies")
    }

    fn gen_create_domain(&mut self) -> Option<CatalogMutation> {
        let name = self.fresh("D");
        self.domains.insert(
            name.clone(),
            DomainModel {
                parents: vec![name.clone()],
                nodes: vec![name.clone()],
                root_classes: Vec::new(),
                prefs: Default::default(),
            },
        );
        Some(CatalogMutation::CreateDomain { name })
    }

    fn pick_domain(&self, rng: &mut SmallRng) -> Option<String> {
        if self.domains.is_empty() {
            return None;
        }
        let names: Vec<&String> = self.domains.keys().collect();
        Some((*Self::pick(rng, &names)).clone())
    }

    fn gen_add_class(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let name = self.fresh("C");
        let dm = self.domains.get_mut(&domain).unwrap();
        let mut parents = vec![Self::pick(rng, &dm.parents).clone()];
        if dm.parents.len() >= 2 && rng.gen_bool(0.2) {
            let second = Self::pick(rng, &dm.parents).clone();
            if second != parents[0] {
                parents.push(second);
            }
        }
        if parents == [domain.clone()] {
            dm.root_classes.push(name.clone());
        }
        dm.parents.push(name.clone());
        dm.nodes.push(name.clone());
        Some(CatalogMutation::AddClass {
            domain,
            name,
            parents,
        })
    }

    fn gen_add_instance(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let name = self.fresh("I");
        let dm = self.domains.get_mut(&domain).unwrap();
        let parents = vec![Self::pick(rng, &dm.parents).clone()];
        dm.nodes.push(name.clone());
        Some(CatalogMutation::AddInstance {
            domain,
            name,
            parents,
        })
    }

    fn gen_prefer(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let domain = self.pick_domain(rng)?;
        let dm = self.domains.get_mut(&domain).unwrap();
        if dm.root_classes.len() < 2 {
            return None;
        }
        let wi = rng.gen_range(1..dm.root_classes.len());
        let si = rng.gen_range(0..wi);
        let stronger = dm.root_classes[si].clone();
        let weaker = dm.root_classes[wi].clone();
        let pair = (stronger.clone(), weaker.clone());
        if !dm.prefs.insert(pair) {
            return None;
        }
        Some(CatalogMutation::Prefer {
            domain,
            stronger,
            weaker,
        })
    }

    fn gen_create_relation(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let arity = if rng.gen_bool(0.3) { 2 } else { 1 };
        let mut attributes = Vec::new();
        let mut columns = Vec::new();
        for k in 0..arity {
            let domain = self.pick_domain(rng)?;
            let dm = &self.domains[&domain];
            columns.push(dm.nodes.clone());
            attributes.push((format!("a{k}"), domain));
        }
        let name = self.fresh("R");
        self.relations.insert(
            name.clone(),
            RelModel {
                columns,
                domains_used: attributes.iter().map(|(_, d)| d.clone()).collect(),
                stored: BTreeMap::new(),
            },
        );
        Some(CatalogMutation::CreateRelation { name, attributes })
    }

    fn pick_relation(&self, rng: &mut SmallRng) -> Option<String> {
        if self.relations.is_empty() {
            return None;
        }
        let names: Vec<&String> = self.relations.keys().collect();
        Some((*Self::pick(rng, &names)).clone())
    }

    fn gen_assert(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_relation(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        let truth = if rng.gen_bool(0.3) {
            Truth::Negative
        } else {
            Truth::Positive
        };
        for _ in 0..8 {
            let values: Vec<String> = rm
                .columns
                .iter()
                .map(|col| Self::pick(rng, col).clone())
                .collect();
            if !rm.stored.contains_key(&values) {
                rm.stored.insert(values.clone(), truth);
                return Some(CatalogMutation::Assert {
                    relation,
                    values,
                    truth,
                });
            }
        }
        None
    }

    fn gen_retract(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_relation(rng)?;
        let rm = self.relations.get_mut(&relation).unwrap();
        if rm.stored.is_empty() {
            return None;
        }
        let keys: Vec<Vec<String>> = rm.stored.keys().cloned().collect();
        let values = Self::pick(rng, &keys).clone();
        rm.stored.remove(&values);
        Some(CatalogMutation::Retract { relation, values })
    }

    fn gen_set_preemption(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        let relation = self.pick_relation(rng)?;
        let mode = *Self::pick(
            rng,
            &[
                Preemption::OffPath,
                Preemption::OnPath,
                Preemption::NoPreemption,
            ],
        );
        Some(CatalogMutation::SetPreemption { relation, mode })
    }

    fn gen_drop_relation(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        if self.relations.len() < 4 {
            return None;
        }
        let name = self.pick_relation(rng)?;
        self.relations.remove(&name);
        Some(CatalogMutation::DropRelation { name })
    }

    fn gen_drop_domain(&mut self, rng: &mut SmallRng) -> Option<CatalogMutation> {
        if self.domains.len() < 4 {
            return None;
        }
        // Referential integrity: a domain with relations over it
        // cannot be dropped.
        let referenced: std::collections::BTreeSet<&String> = self
            .relations
            .values()
            .flat_map(|r| r.domains_used.iter())
            .collect();
        let free: Vec<String> = self
            .domains
            .keys()
            .filter(|d| !referenced.contains(d))
            .cloned()
            .collect();
        if free.is_empty() {
            return None;
        }
        let name = Self::pick(rng, &free).clone();
        self.domains.remove(&name);
        Some(CatalogMutation::DropDomain { name })
    }
}

fn gen_script(seed: u64, n: usize) -> Vec<CatalogMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model::default();
    (0..n).map(|_| model.gen_one(&mut rng)).collect()
}

/// `render_stable()` after each prefix of the script: `refs[k]` is the
/// state with exactly the first `k` mutations applied.
fn reference_prefixes(script: &[CatalogMutation]) -> Vec<String> {
    let mut catalog = Catalog::new();
    let mut refs = vec![catalog.render_stable()];
    for m in script {
        catalog
            .apply_mutation(m)
            .unwrap_or_else(|e| panic!("generated mutation must apply: {m}: {e}"));
        refs.push(catalog.render_stable());
    }
    refs
}

/// The WAL byte stream for the script, plus the frame boundaries:
/// `boundaries[0]` = end of header, `boundaries[1]` = end of the
/// checkpoint record, `boundaries[k + 1]` = end of mutation `k`.
fn wal_stream(script: &[CatalogMutation]) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = Vec::new();
    write_header(&mut bytes).unwrap();
    let mut boundaries = vec![bytes.len() as u64];
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 0 }).unwrap();
    boundaries.push(bytes.len() as u64);
    for m in script {
        write_record(&mut bytes, &WalRecord::Mutation(m.clone())).unwrap();
        boundaries.push(bytes.len() as u64);
    }
    (bytes, boundaries)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `stream` as the (lone) WAL of an empty store and recover.
fn recover_stream(dir: &Path, stream: &[u8]) -> hrdm_persist::Recovered {
    std::fs::write(wal_path(dir, 0), stream).unwrap();
    recover(dir).unwrap_or_else(|e| panic!("recovery must not fail: {e}"))
}

/// The kill points to sweep: every byte offset in release builds; in
/// debug builds (10–20× slower per replay) the interesting offsets —
/// every frame boundary and its neighborhood.
fn kill_points(total: usize, boundaries: &[u64]) -> Vec<usize> {
    if !cfg!(debug_assertions) {
        return (0..=total).collect();
    }
    let mut cuts: Vec<usize> = Vec::new();
    for &b in boundaries {
        for d in -2i64..=2 {
            let c = b as i64 + d;
            if (0..=total as i64).contains(&c) {
                cuts.push(c as usize);
            }
        }
    }
    cuts.push(total);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[test]
fn every_kill_point_recovers_a_prefix() {
    let script = gen_script(SEED, SCRIPT_LEN);
    assert!(script.len() >= 200);
    let refs = reference_prefixes(&script);
    let (bytes, boundaries) = wal_stream(&script);
    let dir = temp_dir("killpoints");

    for cut in kill_points(bytes.len(), &boundaries) {
        let rec = recover_stream(&dir, &bytes[..cut]);
        // Exact accounting implied by the cut point: the last frame
        // boundary at or before the cut is where replay stops, and
        // everything after it is discarded tail.
        let (last_idx, last_good) = boundaries
            .iter()
            .enumerate()
            .take_while(|&(_, &b)| b <= cut as u64)
            .last()
            .map(|(i, &b)| (i as i64, b))
            .unwrap_or((-1, 0));
        let expect_replayed = (last_idx - 1).max(0) as u64;
        let expect_truncated = cut as u64 - last_good;
        assert_eq!(
            rec.report.records_replayed, expect_replayed,
            "cut at byte {cut}: wrong replay count"
        );
        assert_eq!(
            rec.report.truncated_bytes, expect_truncated,
            "cut at byte {cut}: wrong truncation accounting"
        );
        assert_eq!(
            rec.catalog.render_stable(),
            refs[expect_replayed as usize],
            "cut at byte {cut}: recovered state is not the claimed prefix"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_bit_flip_recovers_a_prefix() {
    let script = gen_script(SEED, SCRIPT_LEN);
    let refs = reference_prefixes(&script);
    let (bytes, _) = wal_stream(&script);
    let dir = temp_dir("bitflips");

    let step = if cfg!(debug_assertions) { 17 } else { 1 };
    let mut flipped = bytes.clone();
    for at in (0..bytes.len()).step_by(step) {
        let bit = 1u8 << (at % 8);
        flipped[at] ^= bit;
        std::fs::write(wal_path(&dir, 0), &flipped).unwrap();
        match recover(&dir) {
            Ok(rec) => {
                let claimed = rec.report.records_replayed as usize;
                assert_eq!(
                    rec.catalog.render_stable(),
                    refs[claimed],
                    "flip at byte {at}: recovered state is not the claimed prefix"
                );
                assert!(claimed <= script.len());
            }
            // A flip inside the 4 version bytes is a format-level
            // incompatibility, reported as such rather than replayed.
            Err(hrdm_persist::PersistError::UnsupportedVersion(_)) => {
                assert!(
                    (8..12).contains(&at),
                    "flip at byte {at}: bad version error"
                );
            }
            Err(e) => panic!("flip at byte {at}: recovery failed: {e}"),
        }
        flipped[at] ^= bit; // restore
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay the WAL-writing workload through a [`FaultFs`], return the
/// bytes that "reached disk".
fn stream_through(script: &[CatalogMutation], fault: Option<(u64, Fault)>) -> Vec<u8> {
    let mut w = match fault {
        Some((t, f)) => FaultFs::with_fault(Vec::new(), t, f),
        None => FaultFs::counting(Vec::new()),
    };
    write_header(&mut w).unwrap();
    write_record(&mut w, &WalRecord::Checkpoint { lsn: 0 }).unwrap();
    for m in script {
        write_record(&mut w, &WalRecord::Mutation(m.clone())).unwrap();
    }
    w.flush().unwrap();
    w.into_inner()
}

#[test]
fn faultfs_drop_truncate_bitflip_all_recover_prefixes() {
    let script = gen_script(SEED, SCRIPT_LEN);
    let refs = reference_prefixes(&script);
    let dir = temp_dir("faultfs");

    // Counting pass: how many write calls does the workload make?
    let mut counter = FaultFs::counting(Vec::new());
    write_header(&mut counter).unwrap();
    write_record(&mut counter, &WalRecord::Checkpoint { lsn: 0 }).unwrap();
    for m in &script {
        write_record(&mut counter, &WalRecord::Mutation(m.clone())).unwrap();
    }
    let total_writes = counter.writes();
    assert!(total_writes > script.len() as u64, "multiple writes/record");

    let step = if cfg!(debug_assertions) { 13 } else { 1 };
    for trigger in (0..total_writes).step_by(step) {
        for fault in [Fault::Drop, Fault::Truncate(1), Fault::BitFlip(5)] {
            let stream = stream_through(&script, Some((trigger, fault)));
            std::fs::write(wal_path(&dir, 0), &stream).unwrap();
            match recover(&dir) {
                Ok(rec) => {
                    let claimed = rec.report.records_replayed as usize;
                    assert_eq!(
                        rec.catalog.render_stable(),
                        refs[claimed],
                        "fault {fault:?} at write {trigger}: not the claimed prefix"
                    );
                }
                Err(hrdm_persist::PersistError::UnsupportedVersion(_)) => {
                    // BitFlip landing in the header's version word.
                    assert!(matches!(fault, Fault::BitFlip(_)) && trigger <= 1);
                }
                Err(e) => panic!("fault {fault:?} at write {trigger}: {e}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_catalog_end_to_end_with_crash_snapshots() {
    let script = gen_script(SEED ^ 0xF00D, SCRIPT_LEN);
    let refs = reference_prefixes(&script);
    let dir = temp_dir("endtoend");

    // Group commit: fsync every 8 mutations. Snapshot the directory
    // mid-flight (a crash at that instant) and verify the durability
    // floor: everything up to the last sync must recover.
    let mut store = DurableCatalog::open_with_group(&dir, 8).unwrap();
    let synced_at = 150usize;
    for (i, m) in script.iter().enumerate() {
        store.mutate(m.clone()).unwrap();
        if i + 1 == synced_at {
            store.sync().unwrap();
            // "Crash": copy the store directory as it is on disk.
            let snap = temp_dir("endtoend_snap");
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), snap.join(entry.file_name())).unwrap();
            }
            let rec = recover(&snap).unwrap();
            let got = rec.report.next_lsn() as usize;
            assert!(
                got >= synced_at,
                "durability floor violated: synced {synced_at}, recovered {got}"
            );
            assert_eq!(rec.catalog.render_stable(), refs[got]);
            std::fs::remove_dir_all(&snap).unwrap();
        }
    }
    assert_eq!(store.lsn(), script.len() as u64);
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);

    // Checkpoint, keep mutating, reopen: state must match the final
    // reference exactly (checkpoint image + WAL tail).
    drop(store);
    let mut store = DurableCatalog::open(&dir).unwrap();
    assert_eq!(
        store.recovery_report().records_replayed,
        script.len() as u64
    );
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);
    store.checkpoint().unwrap();
    drop(store);
    let store = DurableCatalog::open(&dir).unwrap();
    assert_eq!(store.recovery_report().checkpoint_lsn, script.len() as u64);
    assert_eq!(store.recovery_report().records_replayed, 0);
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);

    std::fs::remove_dir_all(&dir).unwrap();
}
