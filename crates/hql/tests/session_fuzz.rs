//! Session fuzz: random statement sequences over a seeded world must
//! never panic, and successful mutations must leave the session in a
//! queryable state.

use proptest::prelude::*;

use hrdm_hql::Engine;

const CLASSES: &[&str] = &["Bird", "Penguin", "Fish", "Mammal"];
const INSTANCES: &[&str] = &["tweety", "paul", "nemo", "rex"];
const RELATIONS: &[&str] = &["R", "S"];

fn seeded_session() -> Engine {
    let s = Engine::new();
    s.execute(
        r#"
        CREATE DOMAIN D;
        CREATE CLASS Bird UNDER D;
        CREATE CLASS Penguin UNDER Bird;
        CREATE CLASS Fish UNDER D;
        CREATE CLASS Mammal UNDER D;
        CREATE INSTANCE tweety OF Bird;
        CREATE INSTANCE paul OF Penguin;
        CREATE INSTANCE nemo OF Fish;
        CREATE INSTANCE rex OF Mammal;
        CREATE RELATION R (V: D);
        CREATE RELATION S (V: D);
        "#,
    )
    .expect("seed script");
    s
}

/// One random statement: a mix of valid and deliberately invalid
/// inputs.
fn arb_command() -> impl Strategy<Value = String> {
    let name = prop::sample::select(
        CLASSES
            .iter()
            .chain(INSTANCES)
            .chain(&["Nonexistent", "D"]) // sometimes bogus / root
            .copied()
            .collect::<Vec<_>>(),
    );
    let rel = prop::sample::select(
        RELATIONS
            .iter()
            .chain(&["Missing"])
            .copied()
            .collect::<Vec<_>>(),
    );
    (rel, name, any::<u8>()).prop_map(|(rel, name, op)| match op % 10 {
        0 => format!("ASSERT {rel} (ALL {name});"),
        1 => format!("ASSERT NOT {rel} (ALL {name});"),
        2 => format!("RETRACT {rel} ({name});"),
        3 => format!("HOLDS {rel} ({name});"),
        4 => format!("WHY {rel} ({name});"),
        5 => format!("CHECK {rel};"),
        6 => format!("CONSOLIDATE {rel};"),
        7 => format!("COUNT {rel};"),
        8 => format!("SHOW {rel};"),
        _ => format!("LET X{op} = SELECT {rel} WHERE V IS ALL {name};"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_sessions_never_panic(commands in prop::collection::vec(arb_command(), 1..25)) {
        let s = seeded_session();
        for cmd in &commands {
            // Errors are fine (contradictions, unknown names, duplicate
            // LET bindings); panics are not.
            let _ = s.execute(cmd);
        }
        // The session remains usable afterwards.
        let out = s.execute("HOLDS R (tweety);");
        prop_assert!(out.is_ok());
    }

    #[test]
    fn successful_asserts_are_visible(class in prop::sample::select(CLASSES.to_vec())) {
        let s = seeded_session();
        s.execute(&format!("ASSERT R (ALL {class});")).unwrap();
        // Some instance under the class must now hold.
        let member = match class {
            "Bird" => "tweety",
            "Penguin" => "paul",
            "Fish" => "nemo",
            _ => "rex",
        };
        let out = s.execute(&format!("HOLDS R ({member});")).unwrap();
        prop_assert!(out[0].to_string().contains("true"), "{}", out[0]);
    }
}
