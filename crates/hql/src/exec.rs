//! The response vocabulary: what one executed statement answers.
//!
//! Every backend behind
//! [`ExecutorHandle`](crate::executor::ExecutorHandle) renders these
//! through [`Display`](std::fmt::Display), which is what makes their
//! replies byte-comparable. The unit tests below drive the whole
//! statement vocabulary through an embedded
//! [`Engine`](crate::engine::Engine).

use std::fmt;

/// The result of one executed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Generic success with a human-readable summary.
    Ok(String),
    /// A rendered relation table.
    Table(String),
    /// A `HOLDS` answer (`None` = conflicted/ambiguous).
    Truth {
        /// The queried item, rendered.
        item: String,
        /// The closed-world answer, or `None` on conflict.
        value: Option<bool>,
    },
    /// A `WHY` justification, rendered.
    Justification(String),
    /// A `CHECK` report: the conflicted items (empty = consistent).
    Conflicts(Vec<String>),
    /// A `SHOW DOMAIN` Graphviz document.
    Dot(String),
    /// An `EXPLAIN` report: the optimized plan tree plus the rewrite
    /// rules that fired.
    Plan(String),
    /// A `TRACE` report: the executed span tree with per-node rows,
    /// wall time and cache attribution, plus the rewrites that fired.
    Trace(String),
    /// A `DUMP` export: an HQL script recreating the relation.
    Script(String),
}

impl Response {
    /// The longest text a point read appends to the item it names
    /// (`: conflict`): the room [`Schema::display_item_with_room`]
    /// leaves so that [`into_text`](Response::into_text) need not grow
    /// the string.
    ///
    /// [`Schema::display_item_with_room`]: hrdm_core::Schema::display_item_with_room
    pub const VERDICT_ROOM: usize = ": conflict".len();

    /// The response's [`Display`](fmt::Display) text, reusing the
    /// string it holds where there is one: what a backend replies.
    pub fn into_text(self) -> String {
        match self {
            Response::Ok(s)
            | Response::Table(s)
            | Response::Justification(s)
            | Response::Dot(s)
            | Response::Plan(s)
            | Response::Trace(s)
            | Response::Script(s) => s,
            Response::Truth { mut item, value } => {
                item.push_str(verdict_suffix(value));
                item
            }
            conflicts @ Response::Conflicts(_) => conflicts.to_string(),
        }
    }
}

/// What a `HOLDS` reply appends to the item it names.
fn verdict_suffix(value: Option<bool>) -> &'static str {
    match value {
        Some(true) => ": true",
        Some(false) => ": false",
        None => ": conflict",
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok(msg) => write!(f, "{msg}"),
            Response::Table(t) => write!(f, "{t}"),
            Response::Truth { item, value } => write!(f, "{item}{}", verdict_suffix(*value)),
            Response::Justification(j) => write!(f, "{j}"),
            Response::Conflicts(items) if items.is_empty() => write!(f, "consistent"),
            Response::Conflicts(items) => {
                write!(f, "conflicts at: {}", items.join(", "))
            }
            Response::Dot(d) => write!(f, "{d}"),
            Response::Plan(p) => write!(f, "{p}"),
            Response::Trace(t) => write!(f, "{t}"),
            Response::Script(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::error::HqlError;
    use hrdm_core::prelude::*;

    /// The Fig. 1 world, entirely through HQL.
    const FIG1: &str = r#"
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
            CREATE RELATION Flies (Creature: Animal);
            ASSERT Flies (ALL Bird);
            ASSERT NOT Flies (ALL Penguin);
            ASSERT Flies (ALL "Amazing Flying Penguin");
            ASSERT Flies (Peter);
            "#;

    fn fig1_engine() -> Engine {
        let s = Engine::new();
        s.execute(FIG1).expect("script is well-formed");
        s
    }

    fn truth_of(s: &Engine, q: &str) -> Option<bool> {
        match s.execute(q).unwrap().remove(0) {
            Response::Truth { value, .. } => value,
            other => panic!("expected truth, got {other:?}"),
        }
    }

    #[test]
    fn into_text_is_the_display_text() {
        let responses = [
            Response::Ok("done".into()),
            Response::Table("t".into()),
            Response::Truth {
                item: "Tweety".into(),
                value: Some(true),
            },
            Response::Truth {
                item: "(∀Bird, Grey)".into(),
                value: Some(false),
            },
            Response::Truth {
                item: "Patricia".into(),
                value: None,
            },
            Response::Justification("j".into()),
            Response::Conflicts(vec![]),
            Response::Conflicts(vec!["a".into(), "b".into()]),
            Response::Dot("d".into()),
            Response::Plan("p".into()),
            Response::Trace("t".into()),
            Response::Script("s".into()),
        ];
        for r in responses {
            assert_eq!(r.to_string(), r.clone().into_text());
        }
    }

    #[test]
    fn fig1_through_hql() {
        let s = fig1_engine();
        assert_eq!(truth_of(&s, "HOLDS Flies (Tweety);"), Some(true));
        assert_eq!(truth_of(&s, "HOLDS Flies (Paul);"), Some(false));
        assert_eq!(truth_of(&s, "HOLDS Flies (Patricia);"), Some(true));
        assert_eq!(truth_of(&s, "HOLDS Flies (Peter);"), Some(true));
    }

    #[test]
    fn show_and_why() {
        let s = fig1_engine();
        let table = s.execute("SHOW Flies;").unwrap().remove(0);
        let rendered = table.to_string();
        assert!(rendered.contains("∀Bird"));
        assert!(rendered.contains("- | ∀Penguin"));
        let why = s.execute("WHY Flies (Paul);").unwrap().remove(0);
        assert!(why.to_string().contains("∀Penguin"));
        let dot = s.execute("SHOW DOMAIN Animal;").unwrap().remove(0);
        assert!(dot.to_string().contains("digraph"));
    }

    #[test]
    fn check_reports_conflicts() {
        let s = fig1_engine();
        let r = s.execute("CHECK Flies;").unwrap().remove(0);
        assert_eq!(r, Response::Conflicts(vec![]));
        s.execute("ASSERT NOT Flies (ALL \"Galapagos Penguin\");")
            .unwrap();
        let r = s.execute("CHECK Flies;").unwrap().remove(0);
        match r {
            Response::Conflicts(items) => assert_eq!(items, vec!["Patricia"]),
            other => panic!("unexpected {other:?}"),
        }
        // And HOLDS reports the conflict as None.
        assert_eq!(truth_of(&s, "HOLDS Flies (Patricia);"), None);
    }

    #[test]
    fn consolidate_and_explicate_in_place() {
        let s = fig1_engine();
        let r = s.execute("CONSOLIDATE Flies;").unwrap().remove(0);
        assert!(r.to_string().contains("removed 1"));
        let s = fig1_engine();
        let r = s.execute("EXPLICATE Flies;").unwrap().remove(0);
        assert!(r.to_string().contains("now 5 tuple(s)"));
        assert_eq!(truth_of(&s, "HOLDS Flies (Pamela);"), Some(true));
    }

    #[test]
    fn ddl_after_relations_reshares_domains() {
        let s = fig1_engine();
        // Growing the taxonomy after the relation exists must keep old
        // tuples and make the new instance inherit.
        s.execute("CREATE INSTANCE Pablo OF \"Galapagos Penguin\";")
            .unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flies (Pablo);"), Some(false));
        assert_eq!(truth_of(&s, "HOLDS Flies (Tweety);"), Some(true));
    }

    #[test]
    fn let_derivations() {
        let s = fig1_engine();
        s.execute(
            "CREATE RELATION JillLoves (Creature: Animal);\
             ASSERT JillLoves (ALL Penguin);",
        )
        .unwrap();
        s.execute("LET Both = INTERSECT Flies JillLoves;").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Both (Peter);"), Some(true));
        assert_eq!(truth_of(&s, "HOLDS Both (Tweety);"), Some(false));
        s.execute("LET Sub = SELECT Flies WHERE Creature IS ALL Penguin;")
            .unwrap();
        assert_eq!(truth_of(&s, "HOLDS Sub (Pamela);"), Some(true));
        s.execute("LET Small = CONSOLIDATE Flies;").unwrap();
        assert!(
            s.snapshot().relation("Small").unwrap().len()
                < s.snapshot().relation("Flies").unwrap().len()
        );
    }

    #[test]
    fn preference_statement() {
        let s = Engine::new();
        s.execute(
            r#"
            CREATE DOMAIN D;
            CREATE CLASS A UNDER D;
            CREATE CLASS B UNDER D;
            CREATE CLASS A1 UNDER A;
            CREATE CLASS B1 UNDER B;
            CREATE INSTANCE x OF A1, B1;
            CREATE RELATION R (V: D);
            ASSERT R (ALL A);
            ASSERT NOT R (ALL B);
            "#,
        )
        .unwrap();
        assert_eq!(truth_of(&s, "HOLDS R (x);"), None, "conflict");
        s.execute("PREFER A OVER B IN D;").unwrap();
        assert_eq!(truth_of(&s, "HOLDS R (x);"), Some(true));
    }

    #[test]
    fn set_preemption() {
        let s = fig1_engine();
        s.execute("SET PREEMPTION Flies ON-PATH;").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flies (Patricia);"), None);
        s.execute("SET PREEMPTION Flies OFF-PATH;").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flies (Patricia);"), Some(true));
        assert!(s.execute("SET PREEMPTION Flies SIDEWAYS;").is_err());
    }

    #[test]
    fn error_paths() {
        let s = Engine::new();
        assert!(matches!(
            s.execute("SHOW Nope;"),
            Err(HqlError::Unknown {
                kind: "relation",
                ..
            })
        ));
        s.execute("CREATE DOMAIN D;").unwrap();
        assert!(matches!(
            s.execute("CREATE DOMAIN D;"),
            Err(HqlError::Duplicate { .. })
        ));
        assert!(matches!(
            s.execute("CREATE CLASS X UNDER Nowhere;"),
            Err(HqlError::Unknown { kind: "class", .. })
        ));
        s.execute("CREATE RELATION R (V: D);").unwrap();
        assert!(matches!(
            s.execute("CREATE RELATION R (V: D);"),
            Err(HqlError::Duplicate { .. })
        ));
        assert!(matches!(
            s.execute("RETRACT R (D);"),
            Err(HqlError::Unknown { kind: "tuple", .. })
        ));
    }

    #[test]
    fn derived_relations_survive_later_ddl() {
        // A LET-derived relation references the domain through its
        // schema; later DDL on that domain must re-share it too, keeping
        // the derived relation queryable and join-compatible.
        let s = fig1_engine();
        s.execute("LET Flyers = SELECT Flies WHERE Creature IS ALL Bird;")
            .unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flyers (Tweety);"), Some(true));
        s.execute("CREATE INSTANCE Pablo OF Penguin;").unwrap();
        // Old derived data still queryable after the re-share...
        assert_eq!(truth_of(&s, "HOLDS Flyers (Tweety);"), Some(true));
        // ...and it can still combine with the (rebuilt) base relation.
        s.execute("LET Again = INTERSECT Flyers Flies;").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Again (Tweety);"), Some(true));
    }

    #[test]
    fn save_and_load_round_trip() {
        let s = fig1_engine();
        let path =
            std::env::temp_dir().join(format!("hrdm_hql_session_{}.hrdm", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        s.execute(&format!("SAVE \"{path_str}\";")).unwrap();

        // A fresh session restores the whole world.
        let s2 = Engine::new();
        s2.execute(&format!("LOAD \"{path_str}\";")).unwrap();
        assert_eq!(truth_of(&s2, "HOLDS Flies (Patricia);"), Some(true));
        assert_eq!(truth_of(&s2, "HOLDS Flies (Paul);"), Some(false));
        // DDL continues to work after a restore (re-sharing logic).
        s2.execute("CREATE INSTANCE Pablo OF Penguin;").unwrap();
        assert_eq!(truth_of(&s2, "HOLDS Flies (Pablo);"), Some(false));
        std::fs::remove_file(&path).unwrap();

        // Loading a missing file reports a persistence error with its
        // stable kind code.
        assert!(matches!(
            s2.execute("LOAD \"/nonexistent/nowhere.hrdm\";"),
            Err(HqlError::Persist { kind: "io", .. })
        ));
    }

    #[test]
    fn holds3_reports_unknown() {
        let s = fig1_engine();
        // Canary flies via Bird: true.
        let r = s.execute("HOLDS3 Flies (Tweety);").unwrap().remove(0);
        assert!(r.to_string().ends_with("true"), "{r}");
        let r = s.execute("HOLDS3 Flies (Paul);").unwrap().remove(0);
        assert!(r.to_string().ends_with("false"), "{r}");
        // Nothing asserted above Bird: the root is unknown, not false.
        let r = s.execute("HOLDS3 Flies (Animal);").unwrap().remove(0);
        assert!(r.to_string().ends_with("unknown"), "{r}");
        // Closed-world HOLDS says false for the same item.
        assert_eq!(truth_of(&s, "HOLDS Flies (Animal);"), Some(false));
    }

    #[test]
    fn count_statements() {
        let s = fig1_engine();
        let r = s.execute("COUNT Flies;").unwrap().remove(0);
        assert!(r.to_string().contains("4 atom(s)"), "{r}");
        let r = s.execute("COUNT Flies BY Creature;").unwrap().remove(0);
        let text = r.to_string();
        assert!(text.contains("Tweety: 1"), "{text}");
        assert!(text.contains("Peter: 1"), "{text}");
        assert!(!text.contains("Paul"), "{text}");
        assert!(s.execute("COUNT Nope;").is_err());
        assert!(s.execute("COUNT Flies BY Wing;").is_err());
    }

    #[test]
    fn nested_derivations_compose_in_one_statement() {
        let s = fig1_engine();
        // SELECT over an inline EXPLICATE: the planner fuses these
        // (explicate-select-fusion) but the answer must match running
        // the two statements separately.
        s.execute(
            "LET Fused = SELECT (EXPLICATE Flies) WHERE Creature IS ALL Penguin;\
             LET Flat = EXPLICATE Flies;\
             LET TwoStep = SELECT Flat WHERE Creature IS ALL Penguin;",
        )
        .unwrap();
        let world = s.snapshot();
        let fused = world.relation("Fused").unwrap();
        let twostep = world.relation("TwoStep").unwrap();
        let tuples = |r: &HRelation| -> Vec<(Item, Truth)> {
            r.iter().map(|(i, t)| (i.clone(), t)).collect()
        };
        assert_eq!(tuples(fused), tuples(twostep));
        assert_eq!(truth_of(&s, "HOLDS Fused (Patricia);"), Some(true));
        assert_eq!(truth_of(&s, "HOLDS Fused (Paul);"), Some(false));
    }

    #[test]
    fn top_level_explicate_keeps_explicit_form() {
        let s = fig1_engine();
        // A derived EXPLICATE must not be collapsed back to minimal
        // form by plan canonicalization: all 5 instances, including the
        // redundant negated Paul tuple, stay stored.
        s.execute("LET Flat = EXPLICATE Flies;").unwrap();
        assert_eq!(s.snapshot().relation("Flat").unwrap().len(), 5);
        // Nested under another operator the explicit form is just an
        // intermediate, so the composed result is canonical.
        s.execute("LET Can = CONSOLIDATE (EXPLICATE Flies);")
            .unwrap();
        assert!(s.snapshot().relation("Can").unwrap().len() < 5);
    }

    #[test]
    fn explain_reports_plan_and_rewrites() {
        let s = fig1_engine();
        let r = s
            .execute("EXPLAIN SELECT (EXPLICATE Flies) WHERE Creature IS ALL Penguin;")
            .unwrap()
            .remove(0);
        let text = match r {
            Response::Plan(p) => p,
            other => panic!("expected a plan, got {other:?}"),
        };
        assert!(text.contains("Scan Flies"), "{text}");
        assert!(text.contains("selecteq-normalize"), "{text}");
        assert!(text.contains("explicate-select-fusion"), "{text}");
        // The fused tree runs the select below the explicate.
        let select_at = text.find("Select").expect("select node rendered");
        let explicate_at = text.find("Explicate").expect("explicate node rendered");
        assert!(explicate_at < select_at, "{text}");
        // EXPLAIN materializes nothing.
        assert!(s.snapshot().relation("Flies").unwrap().len() == 4);
        // Errors in the referenced relations still surface.
        assert!(s.execute("EXPLAIN UNION Flies Nope;").is_err());
    }

    #[test]
    fn trace_reports_execution_per_node() {
        let s = fig1_engine();
        let r = s
            .execute("TRACE SELECT (EXPLICATE Flies) WHERE Creature IS ALL Penguin;")
            .unwrap()
            .remove(0);
        let text = match r {
            Response::Trace(t) => t,
            other => panic!("expected a trace, got {other:?}"),
        };
        // The executed span tree names the plan nodes and reports rows.
        assert!(text.contains("Scan"), "{text}");
        assert!(text.contains("Explicate"), "{text}");
        assert!(text.contains("rows="), "{text}");
        // Rewrites that fired during optimization are listed.
        assert!(text.contains("explicate-select-fusion"), "{text}");
        // The result summary closes the report.
        assert!(text.contains("stored tuple(s)"), "{text}");
        // TRACE materializes nothing.
        assert_eq!(s.snapshot().relation("Flies").unwrap().len(), 4);
        // Errors in the referenced relations still surface.
        assert!(s.execute("TRACE UNION Flies Nope;").is_err());
    }

    #[test]
    fn retract_and_assert_round_trip() {
        let s = fig1_engine();
        s.execute("RETRACT Flies (ALL Penguin);").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flies (Paul);"), Some(true));
        s.execute("ASSERT NOT Flies (ALL Penguin);").unwrap();
        assert_eq!(truth_of(&s, "HOLDS Flies (Paul);"), Some(false));
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("hrdm_hql_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let quoted = dir.to_str().unwrap().to_string();
        (dir, quoted)
    }

    #[test]
    fn open_journals_statements_and_survives_reopen() {
        let (dir, dir_str) = temp_store("reopen");
        let s = Engine::new();
        let r = s
            .execute(&format!("OPEN \"{dir_str}\" SYNC EVERY 4;"))
            .unwrap()
            .remove(0);
        assert!(r.to_string().contains("open at lsn 0"), "{r}");
        s.execute(FIG1).unwrap();
        assert_eq!(s.journal_lsn(), Some(16), "every FIG1 statement journaled");
        s.sync().unwrap();
        drop(s);

        // A fresh session recovers the whole world from checkpoint+WAL.
        let s2 = Engine::new();
        let r = s2
            .execute(&format!("OPEN \"{dir_str}\";"))
            .unwrap()
            .remove(0);
        assert!(r.to_string().contains("16 record(s) replayed"), "{r}");
        assert_eq!(s2.journal_lsn(), Some(16));
        assert_eq!(truth_of(&s2, "HOLDS Flies (Tweety);"), Some(true));
        assert_eq!(truth_of(&s2, "HOLDS Flies (Paul);"), Some(false));
        assert_eq!(truth_of(&s2, "HOLDS Flies (Patricia);"), Some(true));
        // DDL keeps working (and journaling) against the recovered state.
        s2.execute("CREATE INSTANCE Pablo OF Penguin;").unwrap();
        assert_eq!(truth_of(&s2, "HOLDS Flies (Pablo);"), Some(false));
        assert_eq!(s2.journal_lsn(), Some(17));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let (dir, dir_str) = temp_store("ckpt");
        let s = Engine::new();
        s.execute(&format!("OPEN \"{dir_str}\";")).unwrap();
        s.execute(FIG1).unwrap();
        let r = s.execute("CHECKPOINT;").unwrap().remove(0);
        assert!(
            r.to_string().contains("checkpoint written at lsn 16"),
            "{r}"
        );
        drop(s);

        // After the checkpoint the WAL tail is empty: recovery loads the
        // image and replays nothing.
        let s2 = Engine::new();
        let r = s2
            .execute(&format!("OPEN \"{dir_str}\";"))
            .unwrap()
            .remove(0);
        assert!(r.to_string().contains("open at lsn 16"), "{r}");
        assert!(r.to_string().contains("0 record(s) replayed"), "{r}");
        assert_eq!(truth_of(&s2, "HOLDS Flies (Peter);"), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn derived_and_in_place_results_survive_a_reopen() {
        let (dir, dir_str) = temp_store("implicit");
        let s = Engine::new();
        s.execute(&format!("OPEN \"{dir_str}\";")).unwrap();
        s.execute(FIG1).unwrap();
        // LET and an in-place CONSOLIDATE are log records: the view and
        // the consolidated relation both survive a reopen, the view as
        // a view.
        s.execute("LET Sub = SELECT Flies WHERE Creature IS ALL Penguin;")
            .unwrap();
        s.execute("CONSOLIDATE Flies;").unwrap();
        drop(s);

        let s2 = Engine::new();
        s2.execute(&format!("OPEN \"{dir_str}\";")).unwrap();
        assert_eq!(truth_of(&s2, "HOLDS Sub (Pamela);"), Some(true));
        assert_eq!(truth_of(&s2, "HOLDS Flies (Paul);"), Some(false));
        assert!(s2.snapshot().is_view("Sub"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_open_store_errors() {
        let s = Engine::new();
        assert!(matches!(
            s.execute("CHECKPOINT;"),
            Err(HqlError::Execution(msg)) if msg.contains("no store open")
        ));
        assert_eq!(s.journal_lsn(), None);
        s.sync().unwrap(); // no-op when detached
    }

    #[test]
    fn a_shared_engine_sees_the_writers_writes() {
        // The supported shape of engine sharing: clone the engine and
        // read it through the location-transparent handle.
        let writer = fig1_engine();
        let reader = writer.clone();
        let handle: &dyn crate::executor::ExecutorHandle = &reader;
        let out = handle.execute_read("HOLDS Flies (Tweety);", 0).unwrap();
        assert!(out[0].ends_with("true"), "{:?}", out[0]);
        writer.execute("CREATE INSTANCE Pia OF Penguin;").unwrap();
        let out = handle.execute_read("HOLDS Flies (Pia);", 0).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].ends_with("false"), "{:?}", out[0]);
    }
}
