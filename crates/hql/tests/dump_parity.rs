//! `DUMP R AS S` is a faithful export: its script, run on a second
//! engine that holds the same domains, yields a relation that renders
//! byte-equal to the source — negated tuples, class-level `ALL` tuples,
//! every preemption mode, one to three attributes.

use proptest::prelude::*;

use hrdm_hql::{Engine, ExecutorHandle};

const DOMAINS: &str = "
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Penguin UNDER Bird;
    CREATE CLASS \"Amazing Flying Penguin\" UNDER Penguin;
    CREATE INSTANCE Tweety OF Bird;
    CREATE INSTANCE Paul OF Penguin;
    CREATE INSTANCE Patricia OF Penguin, \"Amazing Flying Penguin\";
    CREATE DOMAIN Color;
    CREATE CLASS Dark UNDER Color;
    CREATE INSTANCE Black OF Dark;
    CREATE INSTANCE White OF Color;
";
const ANIMALS: [&str; 7] = [
    "Animal",
    "Bird",
    "Penguin",
    "\"Amazing Flying Penguin\"",
    "Tweety",
    "Paul",
    "Patricia",
];
const COLORS: [&str; 4] = ["Color", "Dark", "Black", "White"];

/// One attribute's domain (`true` = Animal) per position, and tuples as
/// a sign plus one node index per position.
type Shape = (Vec<bool>, Vec<(bool, Vec<usize>)>);

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        prop::collection::vec(any::<bool>(), 1..4),
        prop::collection::vec((any::<bool>(), prop::collection::vec(0usize..28, 3)), 0..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_dump_replayed_elsewhere_renders_like_its_source(
        (domains, tuples) in arb_shape(),
        mode in prop::sample::select(vec!["OFF-PATH", "ON-PATH", "NONE"]),
    ) {
        let source = Engine::new();
        source.execute(DOMAINS).unwrap();
        let attrs: Vec<String> = domains
            .iter()
            .enumerate()
            .map(|(i, animal)| format!("a{i}: {}", if *animal { "Animal" } else { "Color" }))
            .collect();
        source
            .execute(&format!(
                "CREATE RELATION R ({}); SET PREEMPTION R {mode};",
                attrs.join(", ")
            ))
            .unwrap();
        for (negated, picks) in &tuples {
            let values: Vec<&str> = domains
                .iter()
                .zip(picks)
                .map(|(animal, pick)| match animal {
                    true => ANIMALS[pick % ANIMALS.len()],
                    false => COLORS[pick % COLORS.len()],
                })
                .collect();
            let not = if *negated { "NOT " } else { "" };
            // A tuple the relation refuses (a sign clash with a stored
            // one) is simply not part of the source.
            let _ = source.execute(&format!("ASSERT {not}R ({});", values.join(", ")));
        }

        let dump = source.execute_read("DUMP R AS S;", 0).unwrap().remove(0);
        let replica = Engine::new();
        replica.execute(DOMAINS).unwrap();
        replica.execute(&dump).unwrap();
        source.execute("RENAME RELATION R TO S;").unwrap();

        let reads = "SHOW S; COUNT S; COUNT S BY a0; CHECK S; SHOW RELATIONS OVER Animal;";
        prop_assert_eq!(
            source.execute_read(reads, 0).unwrap(),
            replica.execute_read(reads, 0).unwrap(),
            "dump was:\n{}", dump
        );
        // The export of the export is the same script.
        prop_assert_eq!(
            replica.execute_read("DUMP S AS S;", 0).unwrap(),
            source.execute_read("DUMP S AS S;", 0).unwrap()
        );
    }
}

#[test]
fn dump_refuses_what_it_cannot_recreate() {
    let engine = Engine::new();
    engine.execute(DOMAINS).unwrap();
    engine
        .execute("CREATE RELATION R (a: Animal); LET V = CONSOLIDATE R;")
        .unwrap();
    let e = engine.execute_read("DUMP Nope AS S;", 0).unwrap_err();
    assert_eq!(e.kind(), "unknown");
    // A view's rows are derived state; a script of them would detach it.
    let e = engine.execute_read("DUMP V AS S;", 0).unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    let e = engine
        .execute_read("SHOW RELATIONS OVER Nope;", 0)
        .unwrap_err();
    assert_eq!(e.kind(), "unknown");
    assert_eq!(
        engine.execute_read("SHOW RELATIONS;", 0).unwrap(),
        vec!["R, V".to_string()]
    );
}
