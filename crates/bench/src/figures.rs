//! Regenerate every worked figure of the paper (EX1–EX11 in DESIGN.md).
//!
//! [`report`] renders the relation(s) and derived answers in the paper's
//! own table style so the output can be compared against the figures
//! line by line, asserting the expected outcomes as it goes — it doubles
//! as an end-to-end check. The `figures` binary prints it; the golden
//! test in `tests/paper_scenarios.rs` snapshots it. Every line is
//! deterministic (no timings, no addresses), which is what makes the
//! snapshot stable.

use std::sync::Arc;

use hrdm_core::consolidate::consolidate;
use hrdm_core::explicate::explicate_all;
use hrdm_core::justify::justify;
use hrdm_core::ops::{difference, intersection, join, project_names, select, select_eq, union};
use hrdm_core::prelude::*;
use hrdm_core::render::render_table_titled;
use hrdm_core::subsumption::SubsumptionGraph;
use hrdm_hierarchy::dot::to_dot;
use hrdm_hierarchy::elim::{EliminationGraph, EliminationMode};

use crate::fixtures::*;
use crate::workloads::explication_workload;

macro_rules! w {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

fn heading(out: &mut String, title: &str) {
    w!(out, "\n{}", "=".repeat(72));
    w!(out, "{title}");
    w!(out, "{}", "=".repeat(72));
}

/// Render all figure reproductions into one deterministic report,
/// asserting each paper-stated outcome along the way.
pub fn report() -> String {
    let mut out = String::new();
    fig1(&mut out);
    fig2(&mut out);
    fig3(&mut out);
    fig4(&mut out);
    fig5(&mut out);
    fig6(&mut out);
    fig7_8(&mut out);
    fig9(&mut out);
    fig10(&mut out);
    fig11(&mut out);
    appendix(&mut out);
    plans(&mut out);
    w!(out, "\nAll figure reproductions match the paper.");
    out
}

/// EX1 — Fig. 1: hierarchy, relation, subsumption graph, binding graph.
fn fig1(out: &mut String) {
    heading(
        out,
        "Fig. 1 — Flying creatures: hierarchy, relation, binding",
    );
    let tax = fig1_taxonomy();
    let flying = fig1_relation(&tax);

    w!(
        out,
        "(a) class hierarchy (Graphviz):\n{}",
        to_dot(&tax, "fig1a")
    );
    w!(
        out,
        "{}",
        render_table_titled(&flying, Some("(b) the hierarchical relation"))
    );

    // (c) subsumption graph: the chain Bird -> Penguin -> AFP -> Peter.
    let sub = SubsumptionGraph::build(&flying);
    w!(out, "(c) subsumption graph edges:");
    for x in sub.topo_order() {
        for &y in sub.children(x) {
            w!(
                out,
                "    {} -> {}",
                flying.schema().display_item(sub.item(x)),
                flying.schema().display_item(sub.item(y))
            );
        }
    }

    // (d) Patricia's tuple-binding graph.
    let patricia = flying.item(&["Patricia"]).expect("fixture name");
    let (tbg, qi) = SubsumptionGraph::build_for_item(&flying, &patricia);
    w!(out, "(d) Patricia's tuple-binding graph predecessors:");
    for &p in tbg.parents(qi) {
        w!(
            out,
            "    {} {}",
            tbg.truth(p).sign(),
            flying.schema().display_item(tbg.item(p))
        );
    }
    assert_eq!(tbg.parents(qi).len(), 1);

    w!(out, "\nderived truth values:");
    for (name, expect) in [
        ("Tweety", true),
        ("Paul", false),
        ("Patricia", true),
        ("Pamela", true),
        ("Peter", true),
    ] {
        let item = flying.item(&[name]).expect("fixture name");
        let holds = flying.holds(&item);
        w!(out, "    {name:10} flies: {holds}");
        assert_eq!(holds, expect, "{name}");
    }
}

/// EX2 — Fig. 2: the Student × Teacher product hierarchy.
fn fig2(out: &mut String) {
    heading(
        out,
        "Fig. 2 — Student and Teacher hierarchies and their product",
    );
    let (students, teachers) = fig2_graphs();
    // The paper's Fig. 2 uses the class-only fragment.
    let product = hrdm_hierarchy::ProductHierarchy::new(vec![students.clone(), teachers.clone()]);
    w!(
        out,
        "product of |V|={} and |V|={} domains: {} product nodes, {} product edges (lazy)",
        students.len(),
        teachers.len(),
        product.node_count(),
        product.edge_count()
    );
    let root = product.root();
    w!(
        out,
        "children of ({}, {}):",
        students.name(students.root()),
        teachers.name(teachers.root())
    );
    for child in product.children(&root) {
        w!(out, "    {}", product.display(&child));
    }
    // Pin the Fig. 2c corner: (Obsequious Student, Incoherent Teacher)
    // has two parents.
    let corner = vec![
        students.expect("Obsequious Student"),
        teachers.expect("Incoherent Teacher"),
    ];
    assert_eq!(product.parents(&corner).len(), 2);
    w!(
        out,
        "(Obsequious Student, Incoherent Teacher) has {} immediate predecessors — the Fig. 2c diamond",
        product.parents(&corner).len()
    );
}

/// EX3 — Fig. 3: the Respects relation, conflict, and resolution.
fn fig3(out: &mut String) {
    heading(out, "Fig. 3 — Respects: conflict detection and resolution");
    let (students, teachers) = fig2_graphs();
    // The inconsistent fragment (above the dashed line).
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("Student", students.clone()),
        Attribute::new("Teacher", teachers.clone()),
    ]));
    let mut partial = HRelation::new(schema);
    partial
        .assert_fact(&["Obsequious Student", "Teacher"], Truth::Positive)
        .expect("fixture names");
    partial
        .assert_fact(&["Student", "Incoherent Teacher"], Truth::Negative)
        .expect("fixture names");
    w!(
        out,
        "{}",
        render_table_titled(&partial, Some("tuples above the dashed line"))
    );
    let conflicts = hrdm_core::conflict::find_conflicts(&partial);
    w!(out, "conflicts detected:");
    for c in &conflicts {
        w!(out, "    at {}", partial.schema().display_item(&c.item));
    }
    assert!(!conflicts.is_empty(), "the paper's conflict must appear");

    let full = fig3_respects(&students, &teachers);
    w!(
        out,
        "{}",
        render_table_titled(&full, Some("with the resolving tuple (Fig. 3)"))
    );
    assert!(hrdm_core::conflict::is_consistent(&full));
    w!(out, "relation is now consistent.");
}

/// EX4 — Fig. 4: elephant colours with exceptions to exceptions.
fn fig4(out: &mut String) {
    heading(out, "Fig. 4 — Royal elephants: exceptions to exceptions");
    let (animals, colors) = fig4_graphs();
    let rel = fig4_colors(&animals, &colors);
    w!(
        out,
        "{}",
        render_table_titled(&rel, Some("the Animal-Color relation"))
    );
    for (animal, color, expect) in [
        ("Clyde", "Dappled", true),
        ("Clyde", "White", false),
        ("Clyde", "Grey", false),
        ("Appu", "White", true),
        ("Appu", "Grey", false),
    ] {
        let item = rel.item(&[animal, color]).expect("fixture names");
        let holds = rel.holds(&item);
        w!(out, "    {animal} is {color}: {holds}");
        assert_eq!(holds, expect);
    }
    w!(
        out,
        "Appu's Indian-elephant membership is correctly irrelevant."
    );
}

/// EX5 — Fig. 5 / §3.2: redundancy that must NOT be eliminated.
fn fig5(out: &mut String) {
    heading(out, "Fig. 5 — A ∪ B ⊇ C: the C tuple is not redundant");
    let mut g = hrdm_hierarchy::HierarchyGraph::new("D");
    let a = g.add_class("A", g.root()).expect("fresh");
    let b = g.add_class("B", g.root()).expect("fresh");
    let c = g.add_class("C", g.root()).expect("fresh");
    g.add_instance_multi("c1", &[a, c]).expect("fresh");
    g.add_instance_multi("c2", &[b, c]).expect("fresh");
    let schema = Arc::new(Schema::single("D", Arc::new(g)));
    let mut r = HRelation::new(schema);
    for class in ["A", "B", "C"] {
        r.assert_fact(&[class], Truth::Positive)
            .expect("fixture names");
    }
    let cons = consolidate(&r);
    w!(
        out,
        "{}",
        render_table_titled(&cons.relation, Some("after consolidate"))
    );
    assert_eq!(cons.relation.len(), 3);
    w!(
        out,
        "C survives consolidation even though ext(C) ⊆ ext(A) ∪ ext(B) —"
    );
    w!(
        out,
        "\"we cannot consider a tuple regarding C a redundant assertion\"."
    );
}

/// EX6 — Fig. 6: consolidation of the Respects relation.
fn fig6(out: &mut String) {
    heading(out, "Fig. 6 — Consolidation of Respects");
    let (students, teachers) = fig2_graphs();
    let full = fig3_respects(&students, &teachers);
    w!(
        out,
        "{}",
        render_table_titled(&full, Some("input (Fig. 3, no duplicates)"))
    );
    let cons = consolidate(&full);
    w!(out, "eliminated, in topological order:");
    for t in &cons.removed {
        w!(
            out,
            "    {} {}",
            t.truth.sign(),
            full.schema().display_item(&t.item)
        );
    }
    w!(
        out,
        "{}",
        render_table_titled(&cons.relation, Some("result (Fig. 6b)"))
    );
    assert_eq!(cons.relation.len(), 1);
    assert!(hrdm_core::flat::equivalent(&full, &cons.relation));
    w!(out, "same extension, fewer tuples — exactly Fig. 6.");
}

/// EX7 — Figs. 7–8: selections on Respects.
fn fig7_8(out: &mut String) {
    heading(out, "Figs. 7–8 — Selections");
    let (students, teachers) = fig2_graphs();
    let respects = fig3_respects(&students, &teachers);

    let region = respects
        .item(&["Obsequious Student", "Teacher"])
        .expect("fixture names");
    let who = select(&respects, &region).expect("consistent input");
    w!(
        out,
        "{}",
        render_table_titled(&who, Some("Fig. 7: who do obsequious students respect?"))
    );
    let flat = hrdm_core::flat::flatten(&who);
    assert!(flat.contains(&respects.item(&["John", "Smith"]).expect("names")));

    let john = select_eq(&respects, "Student", "John").expect("consistent input");
    w!(
        out,
        "{}",
        render_table_titled(&john, Some("Fig. 8: who does John respect?"))
    );
    let flat = hrdm_core::flat::flatten(&john);
    assert_eq!(flat.len(), 2, "John respects Smith and Jones");
}

/// EX8 — Fig. 9: selection with justification.
fn fig9(out: &mut String) {
    heading(out, "Fig. 9 — Selection on Animal-Color with justification");
    let (animals, colors) = fig4_graphs();
    let rel = fig4_colors(&animals, &colors);
    let clyde_grey = rel.item(&["Clyde", "Grey"]).expect("fixture names");
    let j = justify(&rel, &clyde_grey);
    w!(
        out,
        "query: is Clyde grey?  answer: {:?}",
        j.binding.truth()
    );
    w!(out, "applicable tuples (Fig. 9b):");
    for t in &j.applicable {
        w!(
            out,
            "    {} {}",
            t.truth.sign(),
            rel.schema().display_item(&t.item)
        );
    }
    w!(out, "decisive tuple(s):");
    for t in &j.decisive {
        w!(
            out,
            "    {} {}",
            t.truth.sign(),
            rel.schema().display_item(&t.item)
        );
    }
    assert_eq!(j.applicable.len(), 2);
    assert_eq!(j.decisive.len(), 1);
}

/// EX9 — Fig. 10: set operations on the Jack/Jill loves relations.
fn fig10(out: &mut String) {
    heading(out, "Fig. 10 — Set operations (Jack and Jill)");
    let tax = fig1_taxonomy();
    let schema = Arc::new(Schema::single("Creature", tax));
    let mut jack = HRelation::new(schema.clone());
    jack.assert_fact(&["Bird"], Truth::Positive).expect("names");
    jack.assert_fact(&["Penguin"], Truth::Negative)
        .expect("names");
    jack.assert_fact(&["Peter"], Truth::Positive)
        .expect("names");
    let mut jill = HRelation::new(schema);
    jill.assert_fact(&["Penguin"], Truth::Positive)
        .expect("names");
    w!(
        out,
        "{}",
        render_table_titled(&jack, Some("(a) Jack loves"))
    );
    w!(
        out,
        "{}",
        render_table_titled(&jill, Some("(b) Jill loves"))
    );

    let u = consolidate(&union(&jack, &jill).expect("compatible")).relation;
    w!(
        out,
        "{}",
        render_table_titled(
            &u,
            Some("(c) Jack and Jill between them love (consolidated)")
        )
    );
    let i = consolidate(&intersection(&jack, &jill).expect("compatible")).relation;
    w!(
        out,
        "{}",
        render_table_titled(&i, Some("(d) Jack and Jill both love"))
    );
    let d1 = consolidate(&difference(&jack, &jill).expect("compatible")).relation;
    w!(
        out,
        "{}",
        render_table_titled(&d1, Some("(e) Jack loves but Jill does not"))
    );
    let d2 = consolidate(&difference(&jill, &jack).expect("compatible")).relation;
    w!(
        out,
        "{}",
        render_table_titled(&d2, Some("(f) Jill loves but Jack does not"))
    );

    let flat = hrdm_core::flat::flatten(&i);
    assert_eq!(flat.len(), 1, "only Peter is loved by both");
}

/// EX10 — Fig. 11: join and projection back, no information loss.
fn fig11(out: &mut String) {
    heading(out, "Fig. 11 — Join and projection back");
    let (animals, colors) = fig4_graphs();
    let color_rel = fig4_colors(&animals, &colors);
    let (_enc, size_rel) = fig11_enclosures(&animals);
    w!(
        out,
        "{}",
        render_table_titled(&size_rel, Some("(a) Enclosure-Size relation"))
    );
    let joined = join(&size_rel, &color_rel).expect("shared Animal attribute");
    w!(
        out,
        "{}",
        render_table_titled(&joined, Some("(b) join with Animal-Color"))
    );
    let back = project_names(&joined, &["Animal", "Color"]).expect("attribute names");
    w!(
        out,
        "{}",
        render_table_titled(
            &consolidate(&back).relation,
            Some("(c) projection back on Animal-Color (consolidated)")
        )
    );
    assert_eq!(
        hrdm_core::flat::flatten(&back).atoms(),
        hrdm_core::flat::flatten(&color_rel).atoms(),
        "no loss of information"
    );
    w!(out, "projection recovers the Animal-Color model exactly.");
}

/// EX11 — Appendix: the three preemption semantics.
fn appendix(out: &mut String) {
    heading(out, "Appendix — Off-path vs on-path vs no-preemption");
    let tax = fig1_taxonomy();
    let mut flying = fig1_relation(&tax);
    let patricia = flying.item(&["Patricia"]).expect("name");
    let pamela = flying.item(&["Pamela"]).expect("name");

    for mode in Preemption::ALL {
        flying.set_preemption(mode);
        let pat = flying.bind(&patricia);
        let pam = flying.bind(&pamela);
        w!(
            out,
            "{mode:14}  Patricia: {:22}  Pamela: {:?}",
            format!("{:?}", pat.truth().map(|t| t.holds())),
            pam.truth().map(|t| t.holds())
        );
        match mode {
            Preemption::OffPath => {
                assert_eq!(pat.truth(), Some(Truth::Positive));
                assert_eq!(pam.truth(), Some(Truth::Positive));
            }
            Preemption::OnPath => {
                // Galapagos-penguin path avoids the AFP tuple.
                assert!(pat.is_conflict());
                assert_eq!(pam.truth(), Some(Truth::Positive));
            }
            Preemption::NoPreemption => {
                assert!(pat.is_conflict());
                assert!(pam.is_conflict());
            }
        }
    }
    flying.set_preemption(Preemption::OffPath);

    // The deliberate redundant edge: "state that Pamela is a Penguin".
    let mut g2 = (*tax).clone();
    let penguin = g2.expect("Penguin");
    let pam_node = g2.expect("Pamela");
    g2.add_edge(penguin, pam_node)
        .expect("redundant edge is legal");
    let schema2 = Arc::new(Schema::single("Creature", Arc::new(g2)));
    let mut flying2 = HRelation::new(schema2);
    flying2
        .assert_fact(&["Bird"], Truth::Positive)
        .expect("names");
    flying2
        .assert_fact(&["Penguin"], Truth::Negative)
        .expect("names");
    flying2
        .assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
        .expect("names");
    let pam2 = flying2.item(&["Pamela"]).expect("name");
    assert!(flying2.bind(&pam2).is_conflict());
    w!(
        out,
        "redundant Penguin->Pamela edge: off-path now conflicts at Pamela ✓"
    );

    // And the literal elimination graph for the on-path derivation.
    let keep: Vec<_> = ["Bird", "Penguin", "Amazing Flying Penguin", "Patricia"]
        .iter()
        .map(|n| tax.expect(n))
        .chain([tax.root()])
        .collect();
    let mut e = EliminationGraph::new(&tax, EliminationMode::OnPath);
    e.retain(|n| keep.contains(&n));
    let preds = e.predecessors(tax.expect("Patricia")).len();
    assert_eq!(preds, 2, "Penguin re-inserted next to AFP");
    w!(out, "on-path elimination re-inserts Penguin -> Patricia ✓");

    let _ = explicate_all(&flying); // exercised for completeness
}

/// Sum of the `rows` field over the plan-node spans of a trace. Plan
/// nodes are the bare capitalized kind words ("Scan", "Select", …);
/// operator-internal spans are dotted and excluded.
fn plan_rows(trace: &hrdm_obs::QueryTrace) -> u64 {
    trace
        .nodes()
        .iter()
        .filter(|n| !n.name.contains('.'))
        .filter_map(|n| n.field_u64("rows"))
        .sum()
}

/// EX12 — the unified plan layer: EXPLAIN output and the row-count
/// payoff of explicate/select fusion. Row counts come from the plan's
/// own execution trace (not the process-global counters), so the
/// section stays deterministic under parallel tests.
fn plans(out: &mut String) {
    heading(out, "Plan layer — EXPLAIN and explicate/select fusion");

    // The Fig. 1 question "which penguins fly?", phrased over the
    // explicated relation so the fusion rule has something to do.
    let tax = fig1_taxonomy();
    let flying = fig1_relation(&tax);
    let plan = LogicalPlan::scan("Flies", flying)
        .explicate(vec![0])
        .select_eq("Creature", "Penguin");
    w!(
        out,
        "query: which penguins fly? (σ over an explicated Fig. 1)\n"
    );
    w!(out, "plan as written:\n{}", plan.render());
    w!(out, "EXPLAIN:\n{}", plan.explain());
    let (optimized, rewrites) = plan.optimize();
    assert!(rewrites.iter().any(|r| r.rule == "selecteq-normalize"));
    assert!(rewrites.iter().any(|r| r.rule == "explicate-select-fusion"));
    let naive = plan.execute().expect("consistent input");
    let fused = optimized.execute().expect("consistent input");
    assert_eq!(
        naive.relation.len(),
        fused.relation.len(),
        "rewrites preserve the answer"
    );

    // The same fusion on a B4-sized workload: restrict the fan-out of a
    // balanced-tree explication to one deep subclass before expanding.
    let r = explication_workload(4, 5);
    let graph = r.schema().domain(0);
    let asserted = graph.classes().next().expect("tree has classes");
    let leaf_class = graph
        .descendants(asserted)
        .into_iter()
        .rfind(|&d| !graph.is_instance(d))
        .expect("asserted class has subclasses");
    let region = Item::new(vec![leaf_class]);
    let wide = LogicalPlan::scan("B4", r).explicate(vec![0]).select(region);
    let (wide_fused, wide_rewrites) = wide.optimize();
    assert!(wide_rewrites
        .iter()
        .any(|w| w.rule == "explicate-select-fusion"));
    let naive_exec = wide.execute().expect("consistent");
    let fused_exec = wide_fused.execute().expect("consistent");
    let naive_rows = plan_rows(&naive_exec.trace);
    let fused_rows = plan_rows(&fused_exec.trace);
    assert!(
        !fused_exec.relation.is_empty(),
        "the selected subtree has instances"
    );
    w!(
        out,
        "B4-style workload (balanced 4-ary tree, depth 5), one deep subclass selected:"
    );
    w!(out, "    answer tuples: {}", fused_exec.relation.len());
    w!(out, "    rows through naive plan nodes: {naive_rows}");
    w!(out, "    rows through fused plan nodes: {fused_rows}");
    assert!(
        fused_rows < naive_rows,
        "fusion must reduce per-node row flow ({fused_rows} !< {naive_rows})"
    );
    w!(
        out,
        "fusion restricts the explication fan-out before expansion ✓"
    );
}

fn explain_one(out: &mut String, title: &str, plan: &LogicalPlan, expect: &[&str]) {
    heading(out, title);
    w!(out, "plan as written:\n{}", plan.render());
    w!(out, "EXPLAIN:\n{}", plan.explain());
    let (_, rewrites) = plan.optimize();
    for rule in expect {
        assert!(
            rewrites.iter().any(|r| r.rule == *rule),
            "{title}: expected rewrite {rule} to fire"
        );
    }
}

/// EXPLAIN renderings of the paper's worked queries, at least one per
/// rewrite rule. The `figures` binary prints it and
/// `tests/paper_scenarios.rs` snapshots it as `tests/golden/explain.txt`.
pub fn explain_report() -> String {
    let mut out = String::new();
    let tax = fig1_taxonomy();
    let flying = fig1_relation(&tax);
    let (students, teachers) = fig2_graphs();
    let respects = fig3_respects(&students, &teachers);
    let (animals, colors) = fig4_graphs();
    let color_rel = fig4_colors(&animals, &colors);
    let (_enc, size_rel) = fig11_enclosures(&animals);

    explain_one(
        &mut out,
        "Fig. 8 — who does John respect?",
        &LogicalPlan::scan("Respects", respects.clone()).select_eq("Student", "John"),
        &["selecteq-normalize"],
    );

    explain_one(
        &mut out,
        "Fig. 6 + Fig. 8 — selection over a consolidation",
        &LogicalPlan::scan("Respects", respects.clone())
            .consolidate()
            .select_eq("Student", "John"),
        &["selecteq-normalize", "consolidate-hoist"],
    );

    explain_one(
        &mut out,
        "Fig. 1 — which penguins fly, over the explicated relation?",
        &LogicalPlan::scan("Flies", flying)
            .explicate(vec![0])
            .select_eq("Creature", "Penguin"),
        &["selecteq-normalize", "explicate-select-fusion"],
    );

    explain_one(
        &mut out,
        "Fig. 11 — royal elephants in the Enclosure ⋈ Color join",
        &LogicalPlan::scan("Sizes", size_rel)
            .join(LogicalPlan::scan("Colors", color_rel))
            .select_eq("Animal", "Royal Elephant"),
        &["selecteq-normalize", "select-pushdown-join"],
    );

    // Fig. 10's Jack/Jill relations, asked for penguins only.
    let schema = Arc::new(Schema::single("Creature", tax));
    let mut jack = HRelation::new(schema.clone());
    jack.assert_fact(&["Bird"], Truth::Positive).expect("names");
    jack.assert_fact(&["Penguin"], Truth::Negative)
        .expect("names");
    jack.assert_fact(&["Peter"], Truth::Positive)
        .expect("names");
    let mut jill = HRelation::new(schema);
    jill.assert_fact(&["Penguin"], Truth::Positive)
        .expect("names");
    explain_one(
        &mut out,
        "Fig. 10 — penguins loved by Jack or Jill",
        &LogicalPlan::scan("Jack", jack)
            .union(LogicalPlan::scan("Jill", jill))
            .select_eq("Creature", "Penguin"),
        &["selecteq-normalize", "select-pushdown-union"],
    );

    explain_one(
        &mut out,
        "§3.3.1 — double consolidation collapses",
        &LogicalPlan::scan("Respects", respects)
            .consolidate()
            .consolidate(),
        &["consolidate-idempotent"],
    );

    w!(out, "\nAll six rewrite rules demonstrated.");
    out
}

/// Per-node execution traces of one worked query on BOTH engines — the
/// hierarchical root-consolidate executor and the flat volcano lowering
/// — in stable-field form (rows and build attribution only, no wall
/// times, so the output is golden-snapshot safe). Each engine runs
/// against freshly built fixtures: fresh hierarchy graphs have no
/// closures yet, which pins every build count regardless of what other
/// tests ran first.
///
/// The `figures` binary prints it and `tests/paper_scenarios.rs`
/// snapshots it as `tests/golden/trace.txt`.
pub fn trace_report() -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "TRACE — which penguins fly? on both engines (stable fields)",
    );
    let build = || {
        let tax = fig1_taxonomy();
        let flying = fig1_relation(&tax);
        LogicalPlan::scan("Flies", flying)
            .explicate(vec![0])
            .select_eq("Creature", "Penguin")
            .optimize()
            .0
    };

    let hier = build().execute().expect("consistent input");
    w!(
        out,
        "hierarchical engine (root-consolidate):\n{}",
        hier.trace.render_stable()
    );

    let (rows, flat_trace) =
        crate::flatplan::execute_flat_traced(&build()).expect("flat engine evaluates");
    w!(
        out,
        "flat engine (volcano lowering):\n{}",
        flat_trace.render_stable()
    );

    // §3's equivalence principle, visible in the traces themselves.
    let flat_of_hier = hrdm_core::flat::flatten(&hier.relation).atoms().len();
    assert_eq!(flat_of_hier, rows.len(), "engines agree on the extension");
    w!(out, "all engines report {} atom row(s).", rows.len());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_is_deterministic() {
        assert_eq!(super::report(), super::report());
    }

    #[test]
    fn explain_report_is_deterministic() {
        assert_eq!(super::explain_report(), super::explain_report());
    }

    #[test]
    fn trace_report_is_deterministic() {
        assert_eq!(super::trace_report(), super::trace_report());
    }
}
