//! Property tests: any world survives an encode/decode round trip with
//! its flat model intact, and any mutation history survives a
//! checkpoint + WAL replay byte-for-byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hrdm_core::flat::flatten;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::*;
use hrdm_hierarchy::gen::{layered_dag, sample_nodes};
use hrdm_persist::{recover, DurableCatalog, Image};

fn arb_world() -> impl Strategy<Value = Image> {
    (any::<u64>(), 1usize..6, any::<u64>(), 0u8..3).prop_map(|(gseed, ntuples, tseed, pre)| {
        let layers = 1 + (gseed % 3) as usize;
        let width = 2 + (gseed / 3 % 3) as usize;
        let g = Arc::new(layered_dag(layers, width, 2, gseed));
        let preemption = match pre {
            0 => Preemption::OffPath,
            1 => Preemption::OnPath,
            _ => Preemption::NoPreemption,
        };
        let schema = Arc::new(Schema::single("V", g.clone()));
        let mut r = HRelation::with_preemption(schema, preemption);
        for (k, node) in sample_nodes(&g, ntuples, tseed).into_iter().enumerate() {
            let truth = if (tseed >> k) & 1 == 1 {
                Truth::Positive
            } else {
                Truth::Negative
            };
            let _ = r.insert(Tuple::new(Item::new(vec![node]), truth));
        }
        let mut image = Image::new();
        image.add_domain("D", g);
        image.add_relation("R", r);
        image
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_preserves_everything(image in arb_world()) {
        let bytes = image.to_bytes().unwrap();
        let restored = Image::from_bytes(&bytes).unwrap();
        let before = image.relation("R").unwrap();
        let after = restored.relation("R").unwrap();
        prop_assert_eq!(before.len(), after.len());
        prop_assert_eq!(before.preemption(), after.preemption());
        // Same stored tuples.
        let a: Vec<_> = before.iter().map(|(i, t)| (i.clone(), t)).collect();
        let b: Vec<_> = after.iter().map(|(i, t)| (i.clone(), t)).collect();
        prop_assert_eq!(a, b);
        // Same graph structure.
        let g1 = image.domain("D").unwrap();
        let g2 = restored.domain("D").unwrap();
        prop_assert_eq!(g1.len(), g2.len());
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
        for id in g1.node_ids() {
            prop_assert_eq!(g1.name(id).as_str(), g2.name(id).as_str());
            let mut c1: Vec<_> = g1.children(id).collect();
            let mut c2: Vec<_> = g2.children(id).collect();
            c1.sort_unstable();
            c2.sort_unstable();
            prop_assert_eq!(c1, c2);
        }
    }

    #[test]
    fn round_trip_preserves_flat_model(image in arb_world()) {
        let restored = Image::from_bytes(&image.to_bytes().unwrap()).unwrap();
        let before = flatten(image.relation("R").unwrap());
        let after = flatten(restored.relation("R").unwrap());
        prop_assert_eq!(before.atoms(), after.atoms());
    }

    #[test]
    fn double_round_trip_is_stable(image in arb_world()) {
        let once = Image::from_bytes(&image.to_bytes().unwrap()).unwrap();
        let bytes1 = once.to_bytes().unwrap();
        let twice = Image::from_bytes(&bytes1).unwrap();
        prop_assert_eq!(bytes1, twice.to_bytes().unwrap());
    }
}

// ---------------------------------------------------------------------
// Durability: checkpoint + WAL replay must rebuild the live in-memory
// catalog byte-for-byte, and recovery must be idempotent (read-only).

fn temp_store_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hrdm-properties-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic, always-valid mutation script: one domain growing a
/// random class DAG, one relation over it, and fresh assertions only
/// (each class asserted at most once, so no contradictions arise).
/// Classes added *after* the relation exist exercise the catalog's
/// domain re-sharing path under journaling.
fn durable_script(seed: u64, n: usize) -> Vec<CatalogMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut script = vec![
        CatalogMutation::CreateDomain { name: "D".into() },
        CatalogMutation::CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "D".into())],
        },
    ];
    let mut classes = vec!["D".to_string()];
    let mut unasserted: Vec<String> = Vec::new();
    let mut next_class = 0usize;
    while script.len() < n + 2 {
        if unasserted.is_empty() || rng.gen_bool(0.5) {
            let parent = classes[rng.gen_range(0..classes.len())].clone();
            let name = format!("C{next_class}");
            next_class += 1;
            script.push(CatalogMutation::AddClass {
                domain: "D".into(),
                name: name.clone(),
                parents: vec![parent],
            });
            classes.push(name.clone());
            unasserted.push(name);
        } else {
            let value = unasserted.swap_remove(rng.gen_range(0..unasserted.len()));
            let truth = if rng.gen_bool(0.7) {
                Truth::Positive
            } else {
                Truth::Negative
            };
            script.push(CatalogMutation::Assert {
                relation: "R".into(),
                values: vec![value],
                truth,
            });
        }
    }
    script
}

proptest! {
    // Each case touches the filesystem (checkpoint + WAL + fsyncs), so
    // keep the count modest; the crash_recovery harness covers volume.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn checkpoint_plus_replay_equals_live_catalog(
        seed in any::<u64>(),
        n in 4usize..32,
        split_pct in 0u64..100,
    ) {
        let script = durable_script(seed, n);
        // Checkpoint somewhere mid-script so recovery exercises both an
        // image load and a WAL replay tail.
        let split = 2 + (script.len() - 2) * split_pct as usize / 100;
        let dir = temp_store_dir();
        let mut dc = DurableCatalog::open_with_group(&dir, 8).unwrap();
        for m in &script[..split] {
            dc.mutate(m.clone()).unwrap();
        }
        dc.checkpoint().unwrap();
        for m in &script[split..] {
            dc.mutate(m.clone()).unwrap();
        }
        dc.sync().unwrap();
        let live_render = dc.catalog().render_stable();
        let live_bytes = Image::from_catalog(dc.catalog()).to_bytes().unwrap();
        let live_lsn = dc.lsn();
        drop(dc);

        let first = recover(&dir).unwrap();
        prop_assert_eq!(first.report.next_lsn(), live_lsn);
        prop_assert_eq!(first.report.truncated_bytes, 0);
        prop_assert_eq!(first.catalog.render_stable(), live_render.clone());
        prop_assert_eq!(
            Image::from_catalog(&first.catalog).to_bytes().unwrap(),
            live_bytes
        );

        // Recovery is read-only: a second pass sees the identical world
        // and produces the identical report.
        let second = recover(&dir).unwrap();
        prop_assert_eq!(second.catalog.render_stable(), live_render);
        prop_assert_eq!(second.report.render_stable(), first.report.render_stable());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Size: an image's length depends on its catalog's shape, not on which
// ids and truths the catalog stores.

/// A catalog's shape: per domain its node count and its edges beyond
/// the spanning tree; per relation the domain of each attribute and its
/// tuple count.
#[derive(Debug)]
struct Shape {
    domains: Vec<(usize, usize)>,
    relations: Vec<(Vec<usize>, usize)>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    any::<u64>().prop_map(|seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let domains: Vec<(usize, usize)> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                // Up to 1 000 nodes: ids one or two bytes wide.
                let n = if rng.gen_bool(0.5) {
                    rng.gen_range(1..40usize)
                } else {
                    rng.gen_range(100..1000usize)
                };
                // At most n/2 extra edges: a domain of n ≥ 3 nodes
                // has room for that many beside its tree.
                (n, if n > 2 { rng.gen_range(0..=n / 2) } else { 0 })
            })
            .collect();
        let relations = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let arity = rng.gen_range(1..4usize);
                let attrs: Vec<usize> = (0..arity)
                    .map(|_| rng.gen_range(0..domains.len()))
                    .collect();
                let items: usize = attrs.iter().map(|&d| domains[d].0).product();
                (attrs, rng.gen_range(0..=items.min(40)))
            })
            .collect();
        Shape { domains, relations }
    })
}

/// A catalog of `shape` whose names (same lengths), edges, kinds,
/// tuples and truths are drawn from `seed`. A tree edge into node `i`
/// comes from one of the 100 nodes before it and an extra edge goes at
/// most 20 ids forward, so no node has 128 children: every child count
/// is one varint byte, as every count in the shape is the same varint.
fn catalog_of_shape(shape: &Shape, seed: u64) -> Catalog {
    use hrdm_hierarchy::{EdgeKind, HierarchyGraph, NodeId, NodeKind, NodeParts};
    let mut rng = SmallRng::seed_from_u64(seed);
    let letter = char::from(b'A' + rng.gen_range(0..26u8));
    let mut catalog = Catalog::new();
    let mut graphs = Vec::new();
    for (d, &(n, extra)) in shape.domains.iter().enumerate() {
        let mut children = vec![Vec::new(); n];
        for i in 1..n {
            let parent = rng.gen_range(i.saturating_sub(100)..i);
            children[parent].push((NodeId::from_index(i), EdgeKind::Subset));
        }
        let mut added = 0;
        while added < extra {
            let from = rng.gen_range(0..n - 1);
            let to = rng.gen_range(from + 1..n.min(from + 21));
            if children[from].iter().any(|&(c, _)| c.index() == to) {
                continue;
            }
            let kind = if rng.gen_bool(0.5) {
                EdgeKind::Subset
            } else {
                EdgeKind::Preference
            };
            children[from].push((NodeId::from_index(to), kind));
            added += 1;
        }
        let parts: Vec<NodeParts> = children
            .into_iter()
            .enumerate()
            .map(|(i, children)| {
                let kind = match i {
                    0 => NodeKind::Domain,
                    _ if children.is_empty() && rng.gen_bool(0.5) => NodeKind::Instance,
                    _ => NodeKind::Class,
                };
                (format!("{letter}{d}-{i:04}").into(), kind, children)
            })
            .collect();
        let graph = Arc::new(HierarchyGraph::from_parts(parts).unwrap());
        catalog.add_domain_arc(format!("{letter}{d}"), graph.clone());
        graphs.push(graph);
    }
    for (r, (attrs, tuples)) in shape.relations.iter().enumerate() {
        let schema = Arc::new(Schema::new(
            attrs
                .iter()
                .enumerate()
                .map(|(k, &d)| Attribute::new(format!("a{k}"), graphs[d].clone()))
                .collect(),
        ));
        let mut items = std::collections::BTreeSet::new();
        while items.len() < *tuples {
            let ids = attrs
                .iter()
                .map(|&d| NodeId::from_index(rng.gen_range(0..graphs[d].len())));
            items.insert(Item::new(ids.collect()));
        }
        let truths = items.into_iter().map(|item| {
            let truth = if rng.gen_bool(0.5) {
                Truth::Positive
            } else {
                Truth::Negative
            };
            Tuple::new(item, truth)
        });
        let relation = HRelation::from_stored(schema, Preemption::OffPath, truths).unwrap();
        catalog.add_relation(format!("{letter}R{r}"), relation);
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two catalogs of one shape encode to images of one length, and
    /// each image decodes back to its own bytes.
    #[test]
    fn image_size_depends_on_shape_only(shape in arb_shape(), a in any::<u64>(), b in any::<u64>()) {
        let first = Image::from_catalog(&catalog_of_shape(&shape, a)).to_bytes().unwrap();
        let second = Image::from_catalog(&catalog_of_shape(&shape, b)).to_bytes().unwrap();
        prop_assert_eq!(first.len(), second.len(), "{:?}", shape);
        for bytes in [first, second] {
            let again = Image::from_bytes(&bytes).unwrap().to_bytes().unwrap();
            prop_assert_eq!(again, bytes);
        }
    }
}
