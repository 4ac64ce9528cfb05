//! A derivation has one plan and is run one way: `EXPLAIN` prints the
//! plan, `TRACE` executes it, `LET` materializes it — once — and a live
//! view is rebuilt from it.
//!
//! Span trees are read off [`hrdm_obs::trace::capture`]: a capture
//! records only the spans opened on its own thread, and an embedded
//! [`Engine`] runs a statement on the caller, so a capture's tree holds
//! exactly that statement's spans, and the tests need no lock.

use hrdm_core::render::render_table;
use hrdm_hql::{Engine, Response};
use hrdm_obs::trace::{capture, QueryTrace, TraceNode};

/// Fig. 1's taxonomy, two unary relations over it and a binary one.
const WORLD: &str = r#"
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Canary UNDER Bird;
    CREATE CLASS Penguin UNDER Bird;
    CREATE CLASS "Flying Penguin" UNDER Penguin;
    CREATE INSTANCE Tweety OF Canary;
    CREATE INSTANCE Paul OF Penguin;
    CREATE INSTANCE Pamela OF "Flying Penguin";
    CREATE INSTANCE Peter OF "Flying Penguin";
    CREATE DOMAIN Food;
    CREATE INSTANCE Seed OF Food;
    CREATE INSTANCE Fish OF Food;
    CREATE RELATION A (Creature: Animal);
    ASSERT A (ALL Bird);
    ASSERT NOT A (ALL Penguin);
    ASSERT A (ALL "Flying Penguin");
    ASSERT A (Peter);
    CREATE RELATION B (Creature: Animal);
    ASSERT B (ALL Penguin);
    ASSERT NOT B (Paul);
    CREATE RELATION Eats (Creature: Animal, Meal: Food);
    ASSERT Eats (ALL Canary, Seed);
    ASSERT Eats (ALL Penguin, Fish);
    "#;

/// The names [`hrdm_core::plan::LogicalPlan::kind`] gives its nodes.
const KINDS: [&str; 10] = [
    "Scan",
    "Select",
    "SelectEq",
    "Project",
    "Join",
    "Union",
    "Intersect",
    "Diff",
    "Consolidate",
    "Explicate",
];

fn engine() -> Engine {
    let engine = Engine::new();
    engine
        .execute(WORLD)
        .expect("the world script is well-formed");
    engine
}

fn one(engine: &Engine, statement: &str) -> Response {
    let mut replies = engine
        .execute(statement)
        .unwrap_or_else(|e| panic!("{statement} failed: {e}"));
    assert_eq!(replies.len(), 1, "{statement}");
    replies.remove(0)
}

/// How many spans at or under `node` carry `name`.
fn count_under(node: &TraceNode, name: &str) -> usize {
    usize::from(node.name == name)
        + node
            .children
            .iter()
            .map(|c| count_under(c, name))
            .sum::<usize>()
}

/// How many spans of the capture carry `name`.
fn count(trace: &QueryTrace, name: &str) -> usize {
    trace.root.as_ref().map_or(0, |r| count_under(r, name))
}

/// `LET` under a capture: the reply and the statement's span tree.
fn traced_let(engine: &Engine, statement: &str) -> (Response, QueryTrace) {
    let (reply, trace) = capture("test.let", || one(engine, statement));
    assert!(
        !trace.nodes().iter().any(|n| n.name.starts_with("batch.")),
        "{statement} ran a batch operator:\n{}",
        trace.render_stable()
    );
    (reply, trace)
}

#[test]
fn let_evaluates_its_derivation_once() {
    let engine = engine();

    let (_, join) = traced_let(&engine, "LET J = JOIN A B;");
    let shown = join.render_stable();
    assert_eq!(count(&join, "Join"), 1, "{shown}");
    assert_eq!(count(&join, "core.join"), 1, "{shown}");
    assert_eq!(count(&join, "core.consolidate"), 1, "{shown}");

    let (_, union) = traced_let(&engine, "LET U = UNION A B;");
    let shown = union.render_stable();
    assert_eq!(count(&union, "Union"), 1, "{shown}");
    assert_eq!(count(&union, "core.consolidate"), 1, "{shown}");
    // The set operator is the only stage that resolves conflicts, and
    // it ran once: every conflict sweep sits under the one Union node.
    let under_union = count_under(union.find("Union").expect("a Union node"), "core.conflict");
    assert_eq!(under_union, count(&union, "core.conflict"), "{shown}");
}

/// The plan-node names of an `EXPLAIN` reply, in tree (pre-)order.
fn explained_kinds(reply: &Response) -> Vec<String> {
    let Response::Plan(text) = reply else {
        panic!("expected a plan, got {reply:?}")
    };
    text.lines()
        .take_while(|l| !l.starts_with("rewrites applied:") && *l != "no rewrites applied")
        .map(|l| {
            l.trim_start_matches(['│', '├', '└', '─', ' '])
                .split_whitespace()
                .next()
                .expect("a node label")
                .to_string()
        })
        .collect()
}

/// The plan-node span names of a rendered or captured trace, in
/// pre-order, and whether a root `Canonicalize` ran.
fn traced_kinds<'a>(names: impl Iterator<Item = &'a str>) -> (Vec<String>, bool) {
    let names: Vec<&str> = names.collect();
    (
        names
            .iter()
            .filter(|n| KINDS.contains(n))
            .map(|n| n.to_string())
            .collect(),
        names.contains(&"Canonicalize"),
    )
}

/// Every `Derivation` shape, a top-level `EXPLICATE` over a named and
/// over a derived operand (and over another `EXPLICATE`) included.
const SHAPES: [&str; 14] = [
    "UNION A B",
    "INTERSECT A B",
    "DIFFERENCE A B",
    "JOIN A B",
    "JOIN A Eats",
    "PROJECT Eats (Creature)",
    "SELECT A WHERE Creature IS ALL Penguin",
    "CONSOLIDATE A",
    "EXPLICATE A",
    "EXPLICATE Eats ON Creature",
    "EXPLICATE (UNION A B)",
    "EXPLICATE (EXPLICATE (CONSOLIDATE A))",
    "SELECT (EXPLICATE (JOIN A Eats)) WHERE Creature IS ALL Penguin AND Meal IS Fish",
    "CONSOLIDATE (CONSOLIDATE (DIFFERENCE (UNION A B) (EXPLICATE B)))",
];

#[test]
fn explain_trace_and_let_agree_on_every_shape() {
    let engine = engine();
    for (k, shape) in SHAPES.iter().enumerate() {
        let explained = explained_kinds(&one(&engine, &format!("EXPLAIN {shape};")));
        assert!(!explained.is_empty(), "{shape}");

        let Response::Trace(trace_text) = one(&engine, &format!("TRACE {shape};")) else {
            panic!("TRACE {shape} did not answer a trace")
        };
        let (traced, trace_canonicalized) = traced_kinds(
            trace_text
                .lines()
                .filter_map(|l| l.split_whitespace().next()),
        );
        assert_eq!(explained, traced, "EXPLAIN vs TRACE for {shape}");
        let result_line = trace_text
            .lines()
            .find(|l| l.starts_with("result: "))
            .unwrap_or_else(|| panic!("TRACE {shape} has no result line:\n{trace_text}"));
        let traced_tuples: usize = result_line["result: ".len()..]
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .expect("a tuple count");

        let name = format!("V{k}");
        let (reply, let_trace) = traced_let(&engine, &format!("LET {name} = {shape};"));
        let (ran, let_canonicalized) = traced_kinds(let_trace.nodes().iter().map(|n| n.name));
        assert_eq!(explained, ran, "EXPLAIN vs LET for {shape}");
        assert_eq!(
            trace_canonicalized, let_canonicalized,
            "TRACE and LET canonicalize alike for {shape}"
        );
        // Raw exactly for a top-level EXPLICATE.
        assert_eq!(
            let_canonicalized,
            !shape.starts_with("EXPLICATE"),
            "{shape}"
        );
        let stored = engine
            .snapshot()
            .relation(&name)
            .expect("LET bound it")
            .len();
        assert_eq!(
            traced_tuples, stored,
            "TRACE vs LET tuple count for {shape}"
        );
        assert_eq!(
            reply,
            Response::Ok(format!("relation {name} defined ({stored} tuples)")),
            "{shape}"
        );
    }
}

/// A top-level `EXPLICATE` over a derived operand is a plan like any
/// other, so its view is maintained like any other — and stays equal to
/// binding the same derivation afresh after every write.
#[test]
fn explicated_derivations_stay_live_views() {
    let engine = engine();
    one(&engine, "LET X = EXPLICATE (UNION A B);");
    let writes = [
        "ASSERT NOT A (Tweety);",
        "RETRACT A (ALL \"Flying Penguin\");",
        "ASSERT B (ALL Canary);",
        "CREATE INSTANCE Polly OF Canary;",
        "RETRACT B (Paul);",
        "ASSERT NOT B (ALL \"Flying Penguin\");",
    ];
    for (k, write) in writes.iter().enumerate() {
        one(&engine, write);
        let fresh = format!("F{k}");
        one(&engine, &format!("LET {fresh} = EXPLICATE (UNION A B);"));
        let world = engine.snapshot();
        assert!(world.is_view("X"), "X detached after {write}");
        assert_eq!(
            render_table(world.relation("X").expect("the view")),
            render_table(world.relation(&fresh).expect("the fresh binding")),
            "after {write}"
        );
    }
}
