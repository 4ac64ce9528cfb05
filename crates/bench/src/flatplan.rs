//! Lowering [`LogicalPlan`]s onto the flat baseline engine.
//!
//! §3's equivalence principle — "any manipulations on hierarchical
//! relations should have the same effect whether performed on the
//! hierarchical relations or on the equivalent flat relations" — makes
//! the flat engine an executable oracle for the plan layer: the *same*
//! logical plan runs against `hrdm-storage`'s volcano operators over the
//! fully explicated extensions, and the two engines must report the same
//! atom set. The B2-style comparisons use this to charge both engines
//! with the identical query rather than hand-written per-engine code.
//!
//! Lowering table (flat relations are sets of atomic rows, one `u32`
//! node index per attribute):
//!
//! | plan node      | flat operator                                      |
//! |----------------|----------------------------------------------------|
//! | `Scan`         | explicated positive extension loaded into a table  |
//! | `Select`       | per-column membership filter against the region's  |
//! |                | extension sets                                     |
//! | `SelectEq`     | same, after resolving the attribute/value names    |
//! | `Project`      | column projection + duplicate elimination          |
//! | `Join`         | hash join on the first shared attribute, residual  |
//! |                | equality filter on the rest, then the natural-join |
//! |                | column layout                                      |
//! | `Union`/`Diff`/`Intersect` | row-set operators                      |
//! | `Consolidate`  | no-op (the flat model is already canonical)        |
//! | `Explicate`    | no-op (rows are already atomic)                    |

use std::collections::BTreeSet;

use hrdm_core::error::{CoreError, Result};
use hrdm_core::flat::flatten;
use hrdm_core::plan::LogicalPlan;
use hrdm_obs::attrib;
use hrdm_obs::QueryTrace;
use hrdm_storage::exec;
use hrdm_storage::{Row, Table};

/// Execute `plan` on the flat engine: every base relation is explicated
/// to its positive extension and the operators run over plain rows.
/// Returns the result's atom rows in sorted order.
pub fn execute_flat(plan: &LogicalPlan) -> Result<Vec<Row>> {
    Ok(eval(plan)?.0)
}

/// [`execute_flat`] under a trace capture: the span tree mirrors the
/// plan shape with the same node names the hierarchical executor uses,
/// so the two engines' traces line up side by side.
pub fn execute_flat_traced(plan: &LogicalPlan) -> Result<(Vec<Row>, QueryTrace)> {
    let (rows, trace) = hrdm_obs::trace::capture("flatplan.execute", || execute_flat(plan));
    Ok((rows?, trace))
}

/// Evaluate to (sorted distinct rows, arity), one span per plan node.
/// Unlike the hierarchical executor's exclusive per-node attribution,
/// the cache/heap deltas here are inclusive of the subtree: the flat
/// operators rebuild tables at every step, so the interesting number is
/// how much I/O the whole subtree cost.
fn eval(plan: &LogicalPlan) -> Result<(Vec<Row>, usize)> {
    let mut span = hrdm_obs::span!(plan.kind());
    let before = attrib::snapshot();
    let result = eval_inner(plan)?;
    if span.is_active() {
        span.field_u64("rows", result.0.len() as u64);
        let delta = attrib::since(&before);
        for (key, name) in attrib::ALL_KEYS {
            if delta.get(key) > 0 {
                span.field_u64(name, delta.get(key));
            }
        }
    }
    Ok(result)
}

fn eval_inner(plan: &LogicalPlan) -> Result<(Vec<Row>, usize)> {
    match plan {
        LogicalPlan::Scan { relation, .. } => {
            let arity = relation.schema().arity();
            let rows: BTreeSet<Row> = flatten(relation)
                .iter()
                .map(|atom| {
                    (0..arity)
                        .map(|i| atom.component(i).index() as u32)
                        .collect()
                })
                .collect();
            Ok((rows.into_iter().collect(), arity))
        }
        LogicalPlan::Select { input, region } => {
            let (rows, arity) = eval(input)?;
            let schema = input.output_schema()?;
            // One allowed-instance set per column: the region component's
            // extension (subsumption restricted to atoms).
            let allowed: Vec<BTreeSet<u32>> = (0..arity)
                .map(|i| {
                    schema
                        .domain(i)
                        .extension(region.component(i))
                        .into_iter()
                        .map(|n| n.index() as u32)
                        .collect()
                })
                .collect();
            let t = load(rows, arity);
            let kept = exec::distinct(exec::filter(exec::scan(&t), |r| {
                r.iter().zip(&allowed).all(|(v, set)| set.contains(v))
            }));
            Ok((kept, arity))
        }
        LogicalPlan::SelectEq { input, attr, value } => {
            let (rows, arity) = eval(input)?;
            let schema = input.output_schema()?;
            let i = schema.index_of(attr)?;
            let node = schema.domain(i).node(value)?;
            let allowed: BTreeSet<u32> = schema
                .domain(i)
                .extension(node)
                .into_iter()
                .map(|n| n.index() as u32)
                .collect();
            let t = load(rows, arity);
            let kept = exec::distinct(exec::filter(exec::scan(&t), move |r| {
                allowed.contains(&r[i])
            }));
            Ok((kept, arity))
        }
        LogicalPlan::Project { input, attrs } => {
            let (rows, arity) = eval(input)?;
            for &a in attrs {
                if a >= arity {
                    return Err(CoreError::AttributeIndexOutOfRange(a));
                }
            }
            let t = load(rows, arity);
            let projected = exec::distinct(exec::project(exec::scan(&t), attrs));
            Ok((projected, attrs.len()))
        }
        LogicalPlan::Join { left, right } => {
            let (lrows, larity) = eval(left)?;
            let (rrows, rarity) = eval(right)?;
            let ls = left.output_schema()?;
            let rs = right.output_schema()?;
            // Natural-join layout: shared attributes matched by name,
            // output = left columns ++ right-only columns.
            let mut shared: Vec<(usize, usize)> = Vec::new();
            let mut right_only: Vec<usize> = Vec::new();
            for j in 0..rarity {
                let name = rs.attributes()[j].name();
                match (0..larity).find(|&i| ls.attributes()[i].name() == name) {
                    Some(i) => shared.push((i, j)),
                    None => right_only.push(j),
                }
            }
            if shared.is_empty() {
                return Err(CoreError::NoJoinAttributes);
            }
            let lt = load(lrows, larity);
            let rt = load(rrows, rarity);
            let (i0, j0) = shared[0];
            let joined = exec::hash_join(exec::scan(&lt), i0, exec::scan(&rt), j0);
            // Residual equality on the remaining shared columns (the
            // hash join keys on one), then the natural-join columns.
            let residual: Vec<(usize, usize)> = shared[1..].to_vec();
            let filtered = exec::filter(joined, move |r| {
                residual.iter().all(|&(i, j)| r[i] == r[larity + j])
            });
            let mut cols: Vec<usize> = (0..larity).collect();
            cols.extend(right_only.iter().map(|&j| larity + j));
            let out = exec::distinct(exec::project(filtered, &cols));
            Ok((out, cols.len()))
        }
        LogicalPlan::Union { left, right } => {
            let ((l, la), (r, ra)) = (eval(left)?, eval(right)?);
            check_compat(la, ra)?;
            Ok((exec::union(l.into_iter(), r.into_iter()), la))
        }
        LogicalPlan::Intersect { left, right } => {
            let ((l, la), (r, ra)) = (eval(left)?, eval(right)?);
            check_compat(la, ra)?;
            Ok((exec::intersection(l.into_iter(), r.into_iter()), la))
        }
        LogicalPlan::Diff { left, right } => {
            let ((l, la), (r, ra)) = (eval(left)?, eval(right)?);
            check_compat(la, ra)?;
            Ok((exec::difference(l.into_iter(), r.into_iter()), la))
        }
        // The flat rows are already the canonical, fully explicit
        // extension: both physical operators are identities here.
        LogicalPlan::Consolidate { input } => eval(input),
        LogicalPlan::Explicate { input, attrs } => {
            let (rows, arity) = eval(input)?;
            for (k, &a) in attrs.iter().enumerate() {
                if a >= arity {
                    return Err(CoreError::AttributeIndexOutOfRange(a));
                }
                if attrs[..k].contains(&a) {
                    return Err(CoreError::DuplicateAttributeIndex(a));
                }
            }
            Ok((rows, arity))
        }
    }
}

fn check_compat(la: usize, ra: usize) -> Result<()> {
    if la == ra {
        Ok(())
    } else {
        Err(CoreError::SchemaMismatch)
    }
}

/// Materialize rows into a storage table so the volcano operators can
/// scan them.
fn load(rows: Vec<Row>, arity: usize) -> Table {
    let mut t = Table::new("plan_step", arity.max(1));
    for row in rows {
        t.insert(&row).expect("rows match declared arity");
    }
    t
}

/// The hierarchical engine's answer to the same plan, rendered as flat
/// atom rows: execute, then explicate the (canonical) result. This is
/// the parity oracle the tests and the figures report compare against.
pub fn hierarchical_as_rows(plan: &LogicalPlan) -> Result<Vec<Row>> {
    let executed = plan.execute()?;
    let arity = executed.relation.schema().arity();
    let rows: BTreeSet<Row> = flatten(&executed.relation)
        .iter()
        .map(|atom| {
            (0..arity)
                .map(|i| atom.component(i).index() as u32)
                .collect()
        })
        .collect();
    Ok(rows.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig1_relation, fig1_taxonomy, fig2_graphs, fig3_respects};
    use crate::workloads::class_workload;

    fn assert_engines_agree(plan: &LogicalPlan) {
        let flat = execute_flat(plan).expect("flat engine evaluates");
        let hier = hierarchical_as_rows(plan).expect("hierarchical engine evaluates");
        assert_eq!(flat, hier, "engines disagree on {plan:?}");
        // The optimizer must not change either engine's answer.
        let (optimized, _) = plan.optimize();
        assert_eq!(execute_flat(&optimized).expect("optimized flat"), flat);
        assert_eq!(
            hierarchical_as_rows(&optimized).expect("optimized hierarchical"),
            hier
        );
    }

    #[test]
    fn scan_select_parity_on_fig1() {
        let tax = fig1_taxonomy();
        let r = fig1_relation(&tax);
        let penguins = r.item(&["Penguin"]).unwrap();
        assert_engines_agree(&LogicalPlan::scan("Flies", r.clone()));
        assert_engines_agree(&LogicalPlan::scan("Flies", r.clone()).select(penguins));
        assert_engines_agree(
            &LogicalPlan::scan("Flies", r.clone())
                .explicate(vec![0])
                .select_eq("Creature", "Penguin"),
        );
        assert_engines_agree(&LogicalPlan::scan("Flies", r).consolidate().consolidate());
    }

    #[test]
    fn join_union_diff_parity_on_fig3() {
        let (s, t) = fig2_graphs();
        let respects = fig3_respects(&s, &t);
        let base = || LogicalPlan::scan("Respects", respects.clone());
        assert_engines_agree(&base().join(base()));
        assert_engines_agree(&base().union(base()));
        assert_engines_agree(&base().intersect(base()));
        assert_engines_agree(&base().diff(base().select_eq("Teacher", "Incoherent Teacher")));
        assert_engines_agree(&base().project(vec![0]));
        let john = respects.item(&["John", "Teacher"]).unwrap();
        assert_engines_agree(&base().join(base()).select(john));
    }

    #[test]
    fn same_plan_both_engines_on_scaled_workload() {
        // The B2-style comparison: one logical plan, two engines, one
        // answer — a listing query over the class workload with its
        // exception list subtracted by the hierarchy.
        let w = class_workload(200, 5);
        let plan = LogicalPlan::scan("R", w.relation.clone()).explicate(vec![0]);
        let flat = execute_flat(&plan).unwrap();
        let hier = hierarchical_as_rows(&plan).unwrap();
        assert_eq!(flat, hier);
        assert_eq!(flat.len(), 195); // 200 members minus 5 exceptions
    }

    #[test]
    fn traced_flat_execution_mirrors_the_plan_shape() {
        let tax = fig1_taxonomy();
        let r = fig1_relation(&tax);
        let plan = LogicalPlan::scan("Flies", r)
            .explicate(vec![0])
            .select_eq("Creature", "Penguin");
        let (rows, trace) = execute_flat_traced(&plan).expect("traced eval");
        assert_eq!(rows, execute_flat(&plan).expect("plain eval"));
        assert_eq!(
            trace.root.as_ref().map(|r| r.name),
            Some("flatplan.execute")
        );
        // The span tree nests exactly like the plan: SelectEq → Explicate → Scan.
        let seleq = trace.find("SelectEq").expect("root operator span");
        let expl = trace.find("Explicate").expect("child span");
        let scan = trace.find("Scan").expect("leaf span");
        assert_eq!(seleq.field_u64("rows"), Some(rows.len() as u64));
        assert_eq!(expl.children.len(), 1);
        assert_eq!(expl.children[0].name, "Scan");
        // Flattening the base relation explicates through the
        // subsumption core, and the attribution is inclusive up the
        // subtree.
        let touched = scan.field_u64("subsumption_hits").unwrap_or(0)
            + scan.field_u64("subsumption_misses").unwrap_or(0);
        assert!(touched > 0, "scan fields: {:?}", scan.fields);
    }

    #[test]
    fn flat_engine_reports_plan_errors() {
        let tax = fig1_taxonomy();
        let r = fig1_relation(&tax);
        let bad = LogicalPlan::scan("Flies", r.clone()).project(vec![7]);
        assert!(matches!(
            execute_flat(&bad),
            Err(CoreError::AttributeIndexOutOfRange(7))
        ));
        let no_shared = LogicalPlan::scan("Flies", r.clone()).join(LogicalPlan::scan("Other", {
            let (s, t) = fig2_graphs();
            fig3_respects(&s, &t)
        }));
        assert!(matches!(
            execute_flat(&no_shared),
            Err(CoreError::NoJoinAttributes)
        ));
        assert!(matches!(
            execute_flat(&LogicalPlan::scan("Flies", r).explicate(vec![0, 0])),
            Err(CoreError::DuplicateAttributeIndex(0))
        ));
    }
}
