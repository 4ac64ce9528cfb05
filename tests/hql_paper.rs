//! The whole paper as one HQL script: every figure scenario driven
//! through the textual interface, end to end.

use hrdm::hql::{Engine, Response};

fn truth(responses: Vec<Response>) -> Option<bool> {
    match responses.into_iter().next().expect("one response") {
        Response::Truth { value, .. } => value,
        other => panic!("expected a truth, got {other:?}"),
    }
}

#[test]
fn figures_1_and_10_through_hql() {
    let s = Engine::new();
    s.execute(
        r#"
        -- Fig. 1a
        CREATE DOMAIN Animal;
        CREATE CLASS Bird UNDER Animal;
        CREATE CLASS Canary UNDER Bird;
        CREATE CLASS Penguin UNDER Bird;
        CREATE CLASS "Galapagos Penguin" UNDER Penguin;
        CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;
        CREATE INSTANCE Tweety OF Canary;
        CREATE INSTANCE Paul OF "Galapagos Penguin";
        CREATE INSTANCE Patricia OF "Galapagos Penguin", "Amazing Flying Penguin";
        CREATE INSTANCE Pamela OF "Amazing Flying Penguin";
        CREATE INSTANCE Peter OF "Amazing Flying Penguin";

        -- Fig. 1b
        CREATE RELATION Flies (Creature: Animal);
        ASSERT Flies (ALL Bird);
        ASSERT NOT Flies (ALL Penguin);
        ASSERT Flies (ALL "Amazing Flying Penguin");
        ASSERT Flies (Peter);
        "#,
    )
    .expect("DDL and assertions");

    for (name, flies) in [
        ("Tweety", true),
        ("Paul", false),
        ("Patricia", true),
        ("Pamela", true),
        ("Peter", true),
    ] {
        assert_eq!(
            truth(s.execute(&format!("HOLDS Flies ({name});")).unwrap()),
            Some(flies),
            "{name}"
        );
    }

    // Fig. 10: Jack and Jill.
    s.execute(
        r#"
        CREATE RELATION JackLoves (Creature: Animal);
        ASSERT JackLoves (ALL Bird);
        ASSERT NOT JackLoves (ALL Penguin);
        ASSERT JackLoves (Peter);
        CREATE RELATION JillLoves (Creature: Animal);
        ASSERT JillLoves (ALL Penguin);
        LET BetweenThem = UNION JackLoves JillLoves;
        LET Both = INTERSECT JackLoves JillLoves;
        LET OnlyJack = DIFFERENCE JackLoves JillLoves;
        LET OnlyJill = DIFFERENCE JillLoves JackLoves;
        "#,
    )
    .expect("Fig. 10 pipeline");
    assert_eq!(truth(s.execute("HOLDS Both (Peter);").unwrap()), Some(true));
    assert_eq!(truth(s.execute("HOLDS Both (Paul);").unwrap()), Some(false));
    assert_eq!(
        truth(s.execute("HOLDS OnlyJack (Tweety);").unwrap()),
        Some(true)
    );
    assert_eq!(
        truth(s.execute("HOLDS OnlyJill (Pamela);").unwrap()),
        Some(true)
    );
    assert_eq!(
        truth(s.execute("HOLDS BetweenThem (Paul);").unwrap()),
        Some(true)
    );
    let count = s.execute("COUNT BetweenThem;").unwrap().remove(0);
    assert!(count.to_string().contains("5 atom(s)"), "{count}");
}

#[test]
fn figures_2_through_9_through_hql() {
    let s = Engine::new();
    // Figs. 2–3.
    s.execute(
        r#"
        CREATE DOMAIN Student;
        CREATE CLASS "Obsequious Student" UNDER Student;
        CREATE INSTANCE John OF "Obsequious Student";
        CREATE INSTANCE Mary OF Student;
        CREATE DOMAIN Teacher;
        CREATE CLASS "Incoherent Teacher" UNDER Teacher;
        CREATE INSTANCE Smith OF "Incoherent Teacher";
        CREATE INSTANCE Jones OF Teacher;
        CREATE RELATION Respects (Student: Student, Teacher: Teacher);
        ASSERT Respects (ALL "Obsequious Student", ALL Teacher);
        ASSERT NOT Respects (ALL Student, ALL "Incoherent Teacher");
        "#,
    )
    .expect("Fig. 3 setup");

    // The Fig. 3 conflict is visible...
    match s.execute("CHECK Respects;").unwrap().remove(0) {
        Response::Conflicts(items) => assert!(!items.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    // ...and resolved the paper's way.
    s.execute(r#"ASSERT Respects (ALL "Obsequious Student", ALL "Incoherent Teacher");"#)
        .unwrap();
    match s.execute("CHECK Respects;").unwrap().remove(0) {
        Response::Conflicts(items) => assert!(items.is_empty()),
        other => panic!("unexpected {other:?}"),
    }

    // Figs. 7–8 selections.
    s.execute(r#"LET WhoObsequious = SELECT Respects WHERE Student IS ALL "Obsequious Student";"#)
        .unwrap();
    assert_eq!(
        truth(s.execute("HOLDS WhoObsequious (John, Smith);").unwrap()),
        Some(true)
    );
    s.execute("LET JohnView = SELECT Respects WHERE Student IS John;")
        .unwrap();
    assert_eq!(
        truth(s.execute("HOLDS JohnView (John, Jones);").unwrap()),
        Some(true)
    );
    assert_eq!(
        truth(s.execute("HOLDS JohnView (Mary, Jones);").unwrap()),
        Some(false)
    );

    // Fig. 6: consolidation to the unique minimum.
    let msg = s.execute("CONSOLIDATE Respects;").unwrap().remove(0);
    assert!(msg.to_string().contains("removed 2"), "{msg}");
    assert_eq!(
        truth(s.execute("HOLDS Respects (John, Smith);").unwrap()),
        Some(true),
        "extension preserved"
    );

    // Fig. 9: justification via WHY.
    let why = s.execute("WHY Respects (John, Smith);").unwrap().remove(0);
    let text = why.to_string();
    assert!(text.contains("Obsequious Student"), "{text}");
}

#[test]
fn fig11_join_and_projection_through_hql() {
    let s = Engine::new();
    s.execute(
        r#"
        CREATE DOMAIN Animal;
        CREATE CLASS Elephant UNDER Animal;
        CREATE CLASS "Royal Elephant" UNDER Elephant;
        CREATE CLASS "Indian Elephant" UNDER Elephant;
        CREATE INSTANCE Appu OF "Royal Elephant", "Indian Elephant";
        CREATE INSTANCE Clyde OF "Royal Elephant";
        CREATE DOMAIN Color;
        CREATE INSTANCE Grey OF Color;
        CREATE INSTANCE White OF Color;
        CREATE INSTANCE Dappled OF Color;
        CREATE DOMAIN Size;
        CREATE INSTANCE 3000 OF Size;
        CREATE INSTANCE 2000 OF Size;

        CREATE RELATION Colors (Animal: Animal, Color: Color);
        ASSERT Colors (ALL Elephant, Grey);
        ASSERT NOT Colors (ALL "Royal Elephant", Grey);
        ASSERT Colors (ALL "Royal Elephant", White);
        ASSERT NOT Colors (Clyde, White);
        ASSERT Colors (Clyde, Dappled);

        CREATE RELATION Enclosures (Animal: Animal, Size: Size);
        ASSERT Enclosures (ALL Elephant, 3000);
        ASSERT NOT Enclosures (ALL "Indian Elephant", 3000);
        ASSERT Enclosures (ALL "Indian Elephant", 2000);

        LET Profile = JOIN Enclosures Colors;
        LET Back = PROJECT Profile (Animal, Color);
        "#,
    )
    .expect("Fig. 11 pipeline");

    assert_eq!(
        truth(s.execute("HOLDS Profile (Appu, 2000, White);").unwrap()),
        Some(true)
    );
    assert_eq!(
        truth(s.execute("HOLDS Profile (Appu, 3000, White);").unwrap()),
        Some(false)
    );
    assert_eq!(
        truth(s.execute("HOLDS Profile (Clyde, 3000, Dappled);").unwrap()),
        Some(true)
    );
    // "No loss of information": projection back agrees with Colors.
    for (animal, color, expect) in [
        ("Clyde", "Dappled", true),
        ("Clyde", "Grey", false),
        ("Appu", "White", true),
        ("Appu", "Grey", false),
    ] {
        assert_eq!(
            truth(
                s.execute(&format!("HOLDS Back ({animal}, {color});"))
                    .unwrap()
            ),
            Some(expect),
            "{animal} {color}"
        );
    }
}
