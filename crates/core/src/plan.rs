//! Logical query plans with hierarchy-aware rewrites and a physical
//! executor — the unified logical/physical query layer.
//!
//! The paper's §3 algebra gives the operators exploitable laws:
//! consolidate is *idempotent* (§3.3.1), selection commutes with join
//! and union (§3.4 keeps the flat semantics, where the classical
//! pushdown laws hold), and explication restricted to a selected region
//! can prune its fan-out *before* the expansion is materialized
//! (§3.3.2's enumeration only ever visits tuples intersecting the
//! region). This module turns those laws into a small rule-based
//! optimizer over a [`LogicalPlan`] IR, plus the executor — the only
//! one — which lowers plans onto the operator functions in
//! [`crate::ops`], [`crate::consolidate`] and [`crate::explicate`] on
//! the calling thread, over the graphs' memoized closures those
//! operators already sit on.
//!
//! # Canonical output
//!
//! A plan denotes a *flat model*, not a physical tuple set: two
//! physically different relations with the same flat extension are the
//! same query result. [`LogicalPlan::execute`] therefore returns the
//! **unique minimal physical form** — it runs a final
//! [`consolidate`](crate::consolidate::consolidate) at the plan root.
//! This is what makes the rewrites byte-exact: e.g. hoisting
//! consolidate above a selection can leave a parentless negated tuple
//! in one evaluation order and not the other, but both orders agree on
//! the flat model, and §3.3.1's unique-minimum theorem then guarantees
//! the consolidated results are identical. Callers who need a specific
//! *non*-minimal physical form (a fully explicated table, say) put the
//! `Explicate` node at the root and run [`LogicalPlan::execute_raw`],
//! the same evaluation without the final consolidate.
//!
//! Each executed node opens an `hrdm-obs` span (named by
//! [`LogicalPlan::kind`]) carrying its output rows, own-operator wall
//! time, and per-node cache-attribution fields; [`LogicalPlan::execute`]
//! captures the whole run into a [`QueryTrace`] returned on
//! [`Executed`], and the process-wide
//! [`EngineStats`](crate::stats::EngineStats) counters accumulate the
//! same quantities in the shared metrics registry.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hrdm_obs::attrib;
use hrdm_obs::trace::QueryTrace;

use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::ops;
use crate::ops::join::join_parts;
use crate::relation::HRelation;
use crate::schema::{Attribute, Schema};
use crate::stats;

/// A logical query plan over hierarchical relations.
///
/// Build plans with the fluent constructors ([`LogicalPlan::scan`],
/// [`select`](LogicalPlan::select), [`join`](LogicalPlan::join), …),
/// rewrite them with [`optimize`](LogicalPlan::optimize), and run them
/// with [`execute`](LogicalPlan::execute).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// A base-relation scan. The plan holds its own snapshot of the
    /// relation, so a plan is self-contained and re-executable.
    Scan {
        /// Display name of the relation (for EXPLAIN output).
        name: String,
        /// The scanned relation.
        relation: Arc<HRelation>,
    },
    /// §3.4 selection of a region (an item restricting each attribute).
    Select {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The selected region.
        region: Item,
    },
    /// Selection on one attribute by name, others unrestricted; the
    /// optimizer normalizes this into [`LogicalPlan::Select`] once the
    /// input schema is known.
    SelectEq {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Attribute name to restrict.
        attr: String,
        /// Class or instance name the attribute must fall under.
        value: String,
    },
    /// §3.4 projection onto attribute positions (doubles as column
    /// reordering, like [`ops::project()`]).
    Project {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Attribute positions to keep, in output order.
        attrs: Vec<usize>,
    },
    /// §3.4 natural join on the attributes shared by name.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Set union of two same-schema inputs.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Set intersection of two same-schema inputs.
    Intersect {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Set difference of two same-schema inputs.
    Diff {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// §3.3.1 consolidation (redundant-tuple elimination).
    Consolidate {
        /// The input plan.
        input: Box<LogicalPlan>,
    },
    /// §3.3.2 explication of the listed attribute positions.
    Explicate {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Attribute positions to explicate.
        attrs: Vec<usize>,
    },
}

impl LogicalPlan {
    /// Scan a base relation under a display name.
    pub fn scan(name: impl Into<String>, relation: HRelation) -> LogicalPlan {
        LogicalPlan::Scan {
            name: name.into(),
            relation: Arc::new(relation),
        }
    }

    /// Select the given region from this plan's output.
    pub fn select(self, region: Item) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            region,
        }
    }

    /// Select on one named attribute, leaving the others unrestricted.
    pub fn select_eq(self, attr: impl Into<String>, value: impl Into<String>) -> LogicalPlan {
        LogicalPlan::SelectEq {
            input: Box::new(self),
            attr: attr.into(),
            value: value.into(),
        }
    }

    /// Project onto the given attribute positions.
    pub fn project(self, attrs: Vec<usize>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            attrs,
        }
    }

    /// Natural join with another plan.
    pub fn join(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Union with another plan.
    pub fn union(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Intersection with another plan.
    pub fn intersect(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Intersect {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Difference with another plan (`self − right`).
    pub fn diff(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Diff {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Consolidate this plan's output.
    pub fn consolidate(self) -> LogicalPlan {
        LogicalPlan::Consolidate {
            input: Box::new(self),
        }
    }

    /// Explicate the given attribute positions of this plan's output.
    pub fn explicate(self, attrs: Vec<usize>) -> LogicalPlan {
        LogicalPlan::Explicate {
            input: Box::new(self),
            attrs,
        }
    }

    /// The schema of this plan's output, computed structurally (join
    /// schemas follow [`ops::join()`]'s left-then-right-only layout).
    ///
    /// Binary set operations report their left input's schema; actual
    /// compatibility is enforced by the operators at execution time.
    pub fn output_schema(&self) -> Result<Arc<Schema>> {
        match self {
            LogicalPlan::Scan { relation, .. } => Ok(relation.schema().clone()),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::SelectEq { input, .. }
            | LogicalPlan::Consolidate { input }
            | LogicalPlan::Explicate { input, .. } => input.output_schema(),
            LogicalPlan::Project { input, attrs } => {
                let s = input.output_schema()?;
                for &a in attrs {
                    if a >= s.arity() {
                        return Err(CoreError::AttributeIndexOutOfRange(a));
                    }
                }
                Ok(Arc::new(Schema::new(
                    attrs
                        .iter()
                        .map(|&a| {
                            let attr = s.attribute(a);
                            Attribute::new(attr.name(), attr.domain().clone())
                        })
                        .collect(),
                )))
            }
            LogicalPlan::Join { left, right } => {
                let ls = left.output_schema()?;
                let rs = right.output_schema()?;
                Ok(join_parts(&ls, &rs)?.schema)
            }
            LogicalPlan::Union { left, .. }
            | LogicalPlan::Intersect { left, .. }
            | LogicalPlan::Diff { left, .. } => left.output_schema(),
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------

/// One rewrite applied by [`LogicalPlan::optimize`], for EXPLAIN
/// annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// Stable rule identifier (e.g. `select-pushdown-join`).
    pub rule: &'static str,
    /// What the rule did at this site, human-readable.
    pub detail: String,
}

impl LogicalPlan {
    /// Rewrite this plan to a fixpoint of the rule set, returning the
    /// optimized plan and the log of applied rewrites (in application
    /// order, innermost first).
    ///
    /// The rules — each justified by a §3 law, each preserving the
    /// canonical (root-consolidated) output byte for byte:
    ///
    /// * `selecteq-normalize` — resolve a by-name [`LogicalPlan::SelectEq`]
    ///   into a region [`LogicalPlan::Select`] against the input schema.
    /// * `select-pushdown-join` — σ over ⋈ becomes ⋈ of σs, the region
    ///   split along the join's schema mapping (flat semantics, §3.4).
    /// * `select-pushdown-union` — σ over ∪ distributes into both
    ///   branches.
    /// * `consolidate-idempotent` — `Consolidate∘Consolidate` collapses
    ///   (§3.3.1: the minimum relation is unique, so consolidate is
    ///   idempotent).
    /// * `consolidate-hoist` — σ over consolidate becomes consolidate
    ///   over σ: consolidation then runs on the (smaller) selected
    ///   result instead of the whole input.
    /// * `explicate-select-fusion` — σ over explicate becomes explicate
    ///   over σ: the fan-out is restricted to the selected region
    ///   *before* the expansion is materialized (§3.3.2's enumeration
    ///   then only visits the region's members).
    pub fn optimize(&self) -> (LogicalPlan, Vec<Rewrite>) {
        let mut log = Vec::new();
        let out = opt(self.clone(), &mut log);
        (out, log)
    }
}

/// Bottom-up rewriting to a local fixpoint: children first, then rules
/// at this node; a successful rewrite re-enters the optimizer on the
/// new subtree (pushdowns expose further opportunities below).
fn opt(plan: LogicalPlan, log: &mut Vec<Rewrite>) -> LogicalPlan {
    let plan = map_children(plan, |c| opt(c, log));
    match try_rewrite(plan, log) {
        Ok(rewritten) => opt(rewritten, log),
        Err(unchanged) => unchanged,
    }
}

pub(crate) fn map_children(
    plan: LogicalPlan,
    mut f: impl FnMut(LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Select { input, region } => LogicalPlan::Select {
            input: Box::new(f(*input)),
            region,
        },
        LogicalPlan::SelectEq { input, attr, value } => LogicalPlan::SelectEq {
            input: Box::new(f(*input)),
            attr,
            value,
        },
        LogicalPlan::Project { input, attrs } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            attrs,
        },
        LogicalPlan::Join { left, right } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        LogicalPlan::Intersect { left, right } => LogicalPlan::Intersect {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        LogicalPlan::Diff { left, right } => LogicalPlan::Diff {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        LogicalPlan::Consolidate { input } => LogicalPlan::Consolidate {
            input: Box::new(f(*input)),
        },
        LogicalPlan::Explicate { input, attrs } => LogicalPlan::Explicate {
            input: Box::new(f(*input)),
            attrs,
        },
    }
}

/// Try every rule at this node. `Ok` carries the rewritten plan (the
/// rewrite was logged); `Err` returns the plan unchanged.
fn try_rewrite(
    plan: LogicalPlan,
    log: &mut Vec<Rewrite>,
) -> std::result::Result<LogicalPlan, LogicalPlan> {
    match plan {
        // selecteq-normalize: resolve names against the input schema.
        LogicalPlan::SelectEq { input, attr, value } => {
            let resolved = input.output_schema().ok().and_then(|schema| {
                let i = schema.index_of(&attr).ok()?;
                let node = schema.domain(i).node(&value).ok()?;
                Some((schema.universal_item().with_component(i, node), schema))
            });
            match resolved {
                Some((region, schema)) => {
                    log.push(Rewrite {
                        rule: "selecteq-normalize",
                        detail: format!(
                            "{attr} = {value} becomes region selection {}",
                            schema.display_item(&region)
                        ),
                    });
                    Ok(LogicalPlan::Select { input, region })
                }
                // Unresolvable names: leave for the executor to report.
                None => Err(LogicalPlan::SelectEq { input, attr, value }),
            }
        }
        LogicalPlan::Select { input, region } => match *input {
            // select-pushdown-join: split the region along the join's
            // schema mapping and select each input first.
            LogicalPlan::Join { left, right } => {
                let parts = match (left.output_schema(), right.output_schema()) {
                    (Ok(ls), Ok(rs)) => join_parts(&ls, &rs).ok().map(|p| (p, ls, rs)),
                    _ => None,
                };
                match parts {
                    Some((parts, ls, rs)) => {
                        let left_arity = ls.arity();
                        let region_l = Item::new(region.components()[..left_arity].to_vec());
                        let region_r = Item::new(
                            (0..rs.arity())
                                .map(|j| {
                                    if let Some(&(i, _)) =
                                        parts.shared.iter().find(|&&(_, sj)| sj == j)
                                    {
                                        region.component(i)
                                    } else {
                                        let pos = parts
                                            .right_only
                                            .iter()
                                            .position(|&r| r == j)
                                            .expect("partition");
                                        region.component(left_arity + pos)
                                    }
                                })
                                .collect(),
                        );
                        log.push(Rewrite {
                            rule: "select-pushdown-join",
                            detail: format!(
                                "selection split across join inputs: left {}, right {}",
                                ls.display_item(&region_l),
                                rs.display_item(&region_r)
                            ),
                        });
                        Ok(LogicalPlan::Join {
                            left: Box::new(LogicalPlan::Select {
                                input: left,
                                region: region_l,
                            }),
                            right: Box::new(LogicalPlan::Select {
                                input: right,
                                region: region_r,
                            }),
                        })
                    }
                    None => Err(LogicalPlan::Select {
                        input: Box::new(LogicalPlan::Join { left, right }),
                        region,
                    }),
                }
            }
            // select-pushdown-union: σ distributes over ∪.
            LogicalPlan::Union { left, right } => {
                log.push(Rewrite {
                    rule: "select-pushdown-union",
                    detail: "selection distributed into both union branches".into(),
                });
                Ok(LogicalPlan::Union {
                    left: Box::new(LogicalPlan::Select {
                        input: left,
                        region: region.clone(),
                    }),
                    right: Box::new(LogicalPlan::Select {
                        input: right,
                        region,
                    }),
                })
            }
            // consolidate-hoist: consolidate the selected result, not
            // the whole input.
            LogicalPlan::Consolidate { input } => {
                log.push(Rewrite {
                    rule: "consolidate-hoist",
                    detail: "consolidate hoisted above selection \
                             (consolidates the smaller selected result)"
                        .into(),
                });
                Ok(LogicalPlan::Consolidate {
                    input: Box::new(LogicalPlan::Select { input, region }),
                })
            }
            // explicate-select-fusion: restrict fan-out to the region
            // before expanding.
            LogicalPlan::Explicate { input, attrs } => {
                log.push(Rewrite {
                    rule: "explicate-select-fusion",
                    detail: "explication fan-out restricted to the selected \
                             region before expansion"
                        .into(),
                });
                Ok(LogicalPlan::Explicate {
                    input: Box::new(LogicalPlan::Select { input, region }),
                    attrs,
                })
            }
            other => Err(LogicalPlan::Select {
                input: Box::new(other),
                region,
            }),
        },
        // consolidate-idempotent: §3.3.1's unique minimum makes the
        // second consolidate a no-op.
        LogicalPlan::Consolidate { input } => match *input {
            LogicalPlan::Consolidate { input: inner } => {
                log.push(Rewrite {
                    rule: "consolidate-idempotent",
                    detail: "Consolidate∘Consolidate collapsed (consolidate is idempotent)".into(),
                });
                Ok(LogicalPlan::Consolidate { input: inner })
            }
            other => Err(LogicalPlan::Consolidate {
                input: Box::new(other),
            }),
        },
        other => Err(other),
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// A plan execution result: the canonical relation plus the recorded
/// execution trace.
#[derive(Debug)]
pub struct Executed {
    /// The canonical (root-consolidated) result relation.
    pub relation: HRelation,
    /// The span tree recorded while the plan ran: one node per plan
    /// operator (named by [`LogicalPlan::kind`], with `rows`, own-op
    /// `own_ns` and per-node cache-attribution fields), plus a
    /// `Canonicalize` node for the root consolidate, plus whatever the
    /// operators themselves opened underneath (closure builds,
    /// subsumption-graph builds).
    pub trace: QueryTrace,
    /// Tuples removed by the final canonicalizing consolidate.
    pub canonicalized_away: usize,
}

impl LogicalPlan {
    /// Execute this plan as written (no rewriting) and canonicalize the
    /// result to the unique minimal physical form (see the module docs
    /// for why the root consolidate is part of the plan contract).
    ///
    /// Callers wanting the optimized pipeline run
    /// `plan.optimize().0.execute()`; both evaluations produce
    /// byte-identical relations (property-tested in
    /// `crates/core/tests/properties.rs`).
    pub fn execute(&self) -> Result<Executed> {
        self.run(true)
    }

    /// Execute this plan as written and return the root node's output
    /// *without* the canonicalizing consolidate — for plans whose whole
    /// point is a non-minimal form (a top-level `Explicate`). The twin
    /// of [`MaterializedPlan::new_raw`](crate::differential::MaterializedPlan::new_raw).
    pub fn execute_raw(&self) -> Result<Executed> {
        self.run(false)
    }

    fn run(&self, canonical: bool) -> Result<Executed> {
        let (result, trace) = hrdm_obs::trace::capture("plan.execute", || -> Result<_> {
            let mut outputs = Vec::new();
            self.eval_into(&mut outputs)?;
            let raw = outputs.pop().expect("a plan has at least one node");
            // Only the root's output leaves; free the rest first.
            drop(outputs);
            if canonical {
                Ok(canonicalize(&raw))
            } else {
                Ok((Arc::try_unwrap(raw).unwrap_or_else(|r| (*r).clone()), 0))
            }
        });
        let (relation, canonicalized_away) = result?;
        stats::record_plan_exec();
        Ok(Executed {
            relation,
            trace,
            canonicalized_away,
        })
    }

    /// Evaluate every node bottom-up on the calling thread, pushing each
    /// node's output onto `outputs` in post-order (this node's last).
    /// This is the only plan walker: [`execute`](LogicalPlan::execute)
    /// keeps the last output, a
    /// [`MaterializedPlan`](crate::differential::MaterializedPlan) keeps
    /// all of them as its node caches.
    pub(crate) fn eval_into(&self, outputs: &mut Vec<Arc<HRelation>>) -> Result<()> {
        // The node's span opens before its children evaluate, so child
        // spans (and anything the operators open — closure builds)
        // parent under it; own-op time and cache attribution are
        // measured around this node's operator only.
        let mut span = hrdm_obs::span!(self.kind());
        if span.is_active() {
            self.annotate(&mut span);
        }
        let mut child_idx = Vec::new();
        for child in self.children() {
            child.eval_into(outputs)?;
            child_idx.push(outputs.len() - 1);
        }
        let inputs: Vec<&HRelation> = child_idx.iter().map(|&i| &*outputs[i]).collect();
        let before = attrib::snapshot();
        let start = Instant::now();
        let out = self.apply(&inputs)?;
        let own_ns = start.elapsed().as_nanos() as u64;
        stats::record_plan_node(out.len(), own_ns);
        if span.is_active() {
            span.field_u64("rows", out.len() as u64);
            if let LogicalPlan::Consolidate { .. } = self {
                // Consolidation only ever removes tuples.
                span.field_u64("eliminated", (inputs[0].len() - out.len()) as u64);
            }
            annotate_attrib(&mut span, &attrib::since(&before));
            span.field_u64("own_ns", own_ns);
        }
        outputs.push(out);
        Ok(())
    }

    /// Run this node's own operator over its already-evaluated inputs
    /// (one per child, in order). Also the entry point for
    /// [`crate::differential`]'s node-local recomputation.
    pub(crate) fn apply(&self, inputs: &[&HRelation]) -> Result<Arc<HRelation>> {
        let out = match self {
            // A scan shares the plan's snapshot instead of copying it.
            LogicalPlan::Scan { relation, .. } => return Ok(Arc::clone(relation)),
            LogicalPlan::Select { region, .. } => ops::select(inputs[0], region)?,
            LogicalPlan::SelectEq { attr, value, .. } => {
                let schema = inputs[0].schema();
                let i = schema.index_of(attr)?;
                let node = schema.domain(i).node(value)?;
                let region = schema.universal_item().with_component(i, node);
                ops::select(inputs[0], &region)?
            }
            LogicalPlan::Project { attrs, .. } => ops::project(inputs[0], attrs)?,
            LogicalPlan::Join { .. } => ops::join(inputs[0], inputs[1])?,
            LogicalPlan::Union { .. } => ops::union(inputs[0], inputs[1])?,
            LogicalPlan::Intersect { .. } => ops::intersection(inputs[0], inputs[1])?,
            LogicalPlan::Diff { .. } => ops::difference(inputs[0], inputs[1])?,
            LogicalPlan::Consolidate { .. } => crate::consolidate::consolidate(inputs[0]).relation,
            LogicalPlan::Explicate { attrs, .. } => crate::explicate::explicate(inputs[0], attrs)?,
        };
        Ok(Arc::new(out))
    }

    /// Stable, schema-derived span fields for this node (no row counts
    /// or timings — those are attached after the operator runs).
    fn annotate(&self, span: &mut hrdm_obs::SpanGuard) {
        match self {
            LogicalPlan::Scan { name, .. } => span.field_str("rel", name.clone()),
            LogicalPlan::Select { input, region } => {
                if let Ok(s) = input.output_schema() {
                    span.field_str("region", s.display_item(region));
                }
            }
            LogicalPlan::SelectEq { attr, value, .. } => {
                span.field_str("attr", attr.clone());
                span.field_str("value", value.clone());
            }
            LogicalPlan::Project { input, attrs } | LogicalPlan::Explicate { input, attrs } => {
                if let Ok(s) = input.output_schema() {
                    let names: Vec<&str> = attrs
                        .iter()
                        .filter(|&&a| a < s.arity())
                        .map(|&a| s.attribute(a).name())
                        .collect();
                    span.field_str("attrs", names.join(","));
                }
            }
            _ => {}
        }
    }
}

/// Attach the nonzero attribution deltas as span fields, in
/// [`attrib::ALL_KEYS`] order.
fn annotate_attrib(span: &mut hrdm_obs::SpanGuard, delta: &attrib::AttribSnapshot) {
    for (key, field) in attrib::ALL_KEYS {
        let v = delta.get(key);
        if v > 0 {
            span.field_u64(field, v);
        }
    }
}

/// The root consolidate that turns a plan's output into the unique
/// minimal form of its flat model, under a `Canonicalize` span. Returns
/// the canonical relation and how many tuples it eliminated.
pub(crate) fn canonicalize(raw: &HRelation) -> (HRelation, usize) {
    let mut span = hrdm_obs::span!("Canonicalize");
    let before = attrib::snapshot();
    let start = Instant::now();
    let canonical = crate::consolidate::consolidate(raw);
    let own_ns = start.elapsed().as_nanos() as u64;
    if span.is_active() {
        span.field_u64("rows", canonical.relation.len() as u64);
        span.field_u64("eliminated", canonical.removed.len() as u64);
        annotate_attrib(&mut span, &attrib::since(&before));
        span.field_u64("own_ns", own_ns);
    }
    (canonical.relation, canonical.removed.len())
}

// ---------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------

impl LogicalPlan {
    /// The operator kind as a static name — used as the span name for
    /// this node's execution trace, so `TRACE` output and chrome-trace
    /// events carry the node kind directly.
    pub fn kind(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Select { .. } => "Select",
            LogicalPlan::SelectEq { .. } => "SelectEq",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Intersect { .. } => "Intersect",
            LogicalPlan::Diff { .. } => "Diff",
            LogicalPlan::Consolidate { .. } => "Consolidate",
            LogicalPlan::Explicate { .. } => "Explicate",
        }
    }

    /// One-line label for this node (no children), used by the EXPLAIN
    /// tree renderer.
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::Scan { name, relation } => {
                format!("Scan {name} [{} stored tuple(s)]", relation.len())
            }
            LogicalPlan::Select { input, region } => match input.output_schema() {
                Ok(s) => format!("Select σ{}", s.display_item(region)),
                Err(_) => format!("Select σ{region:?}"),
            },
            LogicalPlan::SelectEq { attr, value, .. } => {
                format!("SelectEq {attr} = {value}")
            }
            LogicalPlan::Project { input, attrs } => match input.output_schema() {
                Ok(s) => {
                    let names: Vec<&str> = attrs
                        .iter()
                        .filter(|&&a| a < s.arity())
                        .map(|&a| s.attribute(a).name())
                        .collect();
                    format!("Project ({})", names.join(", "))
                }
                Err(_) => format!("Project {attrs:?}"),
            },
            LogicalPlan::Join { .. } => "Join".into(),
            LogicalPlan::Union { .. } => "Union".into(),
            LogicalPlan::Intersect { .. } => "Intersect".into(),
            LogicalPlan::Diff { .. } => "Diff".into(),
            LogicalPlan::Consolidate { .. } => "Consolidate".into(),
            LogicalPlan::Explicate { input, attrs } => match input.output_schema() {
                Ok(s) => {
                    let names: Vec<&str> = attrs
                        .iter()
                        .filter(|&&a| a < s.arity())
                        .map(|&a| s.attribute(a).name())
                        .collect();
                    format!("Explicate on ({})", names.join(", "))
                }
                Err(_) => format!("Explicate on {attrs:?}"),
            },
        }
    }

    pub(crate) fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::SelectEq { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Consolidate { input }
            | LogicalPlan::Explicate { input, .. } => vec![input],
            LogicalPlan::Join { left, right }
            | LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right }
            | LogicalPlan::Diff { left, right } => vec![left, right],
        }
    }

    /// Render this plan as an indented tree (one node per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.label());
        self.render_children("", &mut out);
        out
    }

    fn render_children(&self, prefix: &str, out: &mut String) {
        let children = self.children();
        for (k, child) in children.iter().enumerate() {
            let last = k + 1 == children.len();
            let (tee, cont) = if last {
                ("└── ", "    ")
            } else {
                ("├── ", "│   ")
            };
            let _ = writeln!(out, "{prefix}{tee}{}", child.label());
            child.render_children(&format!("{prefix}{cont}"), out);
        }
    }

    /// Optimize this plan and render the result with its rewrite log —
    /// the plan [`optimize`](LogicalPlan::optimize) hands the executor,
    /// and nothing else.
    pub fn explain(&self) -> String {
        let (optimized, rewrites) = self.optimize();
        optimized.render() + &render_rewrites(&rewrites)
    }
}

/// The `rewrites applied:` trailer of `EXPLAIN` and `TRACE` output.
pub fn render_rewrites(rewrites: &[Rewrite]) -> String {
    if rewrites.is_empty() {
        return "no rewrites applied\n".into();
    }
    let mut out = String::from("rewrites applied:\n");
    for (k, rw) in rewrites.iter().enumerate() {
        let _ = writeln!(out, "  {}. {} — {}", k + 1, rw.rule, rw.detail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_fixtures::*;
    use crate::truth::Truth;
    use crate::tuple::Tuple;

    /// Byte-level identity: the full stored tuple set.
    fn tuples_of(r: &HRelation) -> Vec<(Item, Truth)> {
        r.iter().map(|(i, t)| (i.clone(), t)).collect()
    }

    fn flying_plan() -> (LogicalPlan, HRelation) {
        let schema = animal_schema();
        let r = flying(&schema);
        (LogicalPlan::scan("Flying", r.clone()), r)
    }

    #[test]
    fn scan_executes_to_consolidated_input() {
        let (plan, r) = flying_plan();
        let out = plan.execute().unwrap();
        // Flying has one redundant tuple (+Peter under +AFP).
        assert_eq!(out.canonicalized_away, 1);
        assert_eq!(
            tuples_of(&out.relation),
            tuples_of(&crate::consolidate::consolidate(&r).relation)
        );
        let scan = out.trace.find("Scan").expect("scan node in trace");
        assert_eq!(scan.field_u64("rows"), Some(r.len() as u64));
        assert_eq!(scan.field("rel"), Some("Flying"));
    }

    #[test]
    fn execute_raw_skips_the_root_consolidate() {
        let (plan, r) = flying_plan();
        let raw = plan.explicate(vec![0]).execute_raw().unwrap();
        assert_eq!(
            tuples_of(&raw.relation),
            tuples_of(&crate::explicate::explicate(&r, &[0]).unwrap())
        );
        assert_eq!(raw.canonicalized_away, 0);
        assert!(raw.trace.find("Explicate").is_some());
        assert!(raw.trace.find("Canonicalize").is_none());
    }

    #[test]
    fn selecteq_normalizes_and_matches_select() {
        let (plan, r) = flying_plan();
        let eq = plan.clone().select_eq("Creature", "Penguin");
        let (optimized, rewrites) = eq.optimize();
        assert_eq!(rewrites[0].rule, "selecteq-normalize");
        assert!(matches!(optimized, LogicalPlan::Select { .. }));
        let region = r.item(&["Penguin"]).unwrap();
        let direct = plan.select(region).execute().unwrap();
        assert_eq!(
            tuples_of(&eq.execute().unwrap().relation),
            tuples_of(&direct.relation)
        );
        assert_eq!(
            tuples_of(&optimized.execute().unwrap().relation),
            tuples_of(&direct.relation)
        );
    }

    #[test]
    fn explicate_select_fusion_is_byte_identical_and_prunes() {
        let (plan, r) = flying_plan();
        let region = r.item(&["Penguin"]).unwrap();
        let query = plan.explicate(vec![0]).select(region);
        let (optimized, rewrites) = query.optimize();
        assert!(rewrites.iter().any(|w| w.rule == "explicate-select-fusion"));
        let naive = query.execute().unwrap();
        let fused = optimized.execute().unwrap();
        assert_eq!(tuples_of(&naive.relation), tuples_of(&fused.relation));
        // The fused pipeline expands fewer rows: the explicate node now
        // sees only the penguin region.
        let explicate_rows = |t: &hrdm_obs::QueryTrace| -> u64 {
            t.nodes()
                .iter()
                .filter(|n| n.name == "Explicate")
                .filter_map(|n| n.field_u64("rows"))
                .sum()
        };
        assert!(
            explicate_rows(&fused.trace) < explicate_rows(&naive.trace),
            "fusion must prune explication fan-out: fused {} vs naive {}",
            explicate_rows(&fused.trace),
            explicate_rows(&naive.trace)
        );
    }

    #[test]
    fn consolidate_hoist_is_byte_identical_via_canonical_form() {
        // The adversarial case: a parentless negated tuple appears in
        // one evaluation order and not the other; the canonical root
        // consolidate reconciles them.
        let schema = animal_schema();
        let mut r = HRelation::new(schema.clone());
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Paul"], Truth::Negative).unwrap();
        let region = r.item(&["Galapagos Penguin"]).unwrap();
        let query = LogicalPlan::scan("R", r).consolidate().select(region);
        let (optimized, rewrites) = query.optimize();
        assert!(rewrites.iter().any(|w| w.rule == "consolidate-hoist"));
        assert_eq!(
            tuples_of(&query.execute().unwrap().relation),
            tuples_of(&optimized.execute().unwrap().relation)
        );
    }

    #[test]
    fn consolidate_idempotence_collapses() {
        let (plan, _) = flying_plan();
        let query = plan.consolidate().consolidate();
        let (optimized, rewrites) = query.optimize();
        assert!(rewrites.iter().any(|w| w.rule == "consolidate-idempotent"));
        // Exactly one Consolidate survives.
        fn count(p: &LogicalPlan) -> usize {
            let own = usize::from(matches!(p, LogicalPlan::Consolidate { .. }));
            own + p.children().iter().map(|c| count(c)).sum::<usize>()
        }
        assert_eq!(count(&optimized), 1);
        assert_eq!(
            tuples_of(&query.execute().unwrap().relation),
            tuples_of(&optimized.execute().unwrap().relation)
        );
    }

    #[test]
    fn select_pushdown_union_fires_and_agrees() {
        let schema = animal_schema();
        let a = flying(&schema);
        let mut b = HRelation::new(schema.clone());
        b.assert_fact(&["Canary"], Truth::Positive).unwrap();
        let region = a.item(&["Bird"]).unwrap();
        let query = LogicalPlan::scan("A", a)
            .union(LogicalPlan::scan("B", b))
            .select(region);
        let (optimized, rewrites) = query.optimize();
        assert!(rewrites.iter().any(|w| w.rule == "select-pushdown-union"));
        assert_eq!(
            tuples_of(&query.execute().unwrap().relation),
            tuples_of(&optimized.execute().unwrap().relation)
        );
    }

    #[test]
    fn select_pushdown_join_splits_region() {
        let r = respects();
        let renamed = crate::ops::rename(&r, "Teacher", "Mentor").unwrap();
        // The Mentor attribute keeps the Teacher domain graph, so its
        // unrestricted region component is that graph's root.
        let region_names = ["John", "Teacher", "Teacher"];
        let query = LogicalPlan::scan("R", r.clone()).join(LogicalPlan::scan("M", renamed));
        let schema = query.output_schema().unwrap();
        let region = schema.item(&region_names).unwrap();
        let query = query.select(region);
        let (optimized, rewrites) = query.optimize();
        assert!(rewrites.iter().any(|w| w.rule == "select-pushdown-join"));
        // The selection now sits below the join on both sides.
        assert!(matches!(optimized, LogicalPlan::Join { .. }));
        assert_eq!(
            tuples_of(&query.execute().unwrap().relation),
            tuples_of(&optimized.execute().unwrap().relation)
        );
    }

    #[test]
    fn output_schema_follows_join_layout() {
        let r = respects();
        let renamed = crate::ops::rename(&r, "Teacher", "Mentor").unwrap();
        let plan = LogicalPlan::scan("R", r).join(LogicalPlan::scan("M", renamed));
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.attribute(0).name(), "Student");
        assert_eq!(schema.attribute(1).name(), "Teacher");
        assert_eq!(schema.attribute(2).name(), "Mentor");
    }

    #[test]
    fn explain_renders_tree_and_rewrites() {
        let (plan, r) = flying_plan();
        let region = r.item(&["Penguin"]).unwrap();
        let text = plan.explicate(vec![0]).select(region).explain();
        assert!(text.contains("Explicate on (Creature)"), "{text}");
        assert!(text.contains("Scan Flying"), "{text}");
        assert!(text.contains("explicate-select-fusion"), "{text}");
        assert!(text.contains("└── "), "{text}");

        let (plan, _) = flying_plan();
        let trivial = plan.explain();
        assert!(trivial.contains("no rewrites applied"), "{trivial}");
    }

    #[test]
    fn execute_returns_an_assembled_trace() {
        let (plan, r) = flying_plan();
        let region = r.item(&["Penguin"]).unwrap();
        let out = plan.select(region).execute().unwrap();
        let root = out.trace.root.as_ref().expect("trace recorded");
        assert_eq!(root.name, "plan.execute");
        // Node kinds mirror the executed plan, plus the canonicalizing
        // root consolidate.
        let select = out.trace.find("Select").expect("select node");
        // The Scan child parents under Select; operator-internal spans
        // (e.g. a closure build) may sit alongside it.
        assert_eq!(select.children[0].name, "Scan");
        let canon = out.trace.find("Canonicalize").expect("canonicalize node");
        assert_eq!(
            canon.field_u64("rows"),
            Some(out.relation.len() as u64),
            "canonicalize rows field is the final row count"
        );
        assert_eq!(
            canon.field_u64("eliminated"),
            Some(out.canonicalized_away as u64)
        );
        // Every plan node carries rows and own-op timing (operator-
        // internal spans are dotted names; plan kinds are bare words).
        for n in out.trace.nodes() {
            if !n.name.contains('.') {
                assert!(n.field_u64("rows").is_some(), "{} missing rows", n.name);
                assert!(n.field_u64("own_ns").is_some(), "{} missing own_ns", n.name);
            }
        }
        // The select runs over a fresh graph's closure on this thread:
        // the build shows up on the node that did the work.
        let attributed: u64 = out
            .trace
            .nodes()
            .iter()
            .map(|n| n.field_u64("closure_misses").unwrap_or(0))
            .sum();
        assert!(attributed > 0, "no closure traffic attributed to any node");
    }

    #[test]
    fn execute_records_engine_stats() {
        let before = stats::snapshot();
        let (plan, _) = flying_plan();
        plan.execute().unwrap();
        let after = stats::snapshot();
        assert!(after.plan_execs > before.plan_execs);
        assert!(after.plan_nodes > before.plan_nodes);
    }

    #[test]
    fn errors_surface_from_the_executor() {
        let (plan, _) = flying_plan();
        assert!(matches!(
            plan.clone().project(vec![7]).execute(),
            Err(CoreError::AttributeIndexOutOfRange(7))
        ));
        assert!(plan.select_eq("Nope", "Bird").execute().is_err());
    }

    #[test]
    fn conflicted_input_reports_input_inconsistent() {
        let schema = animal_schema();
        let mut r = flying(&schema);
        r.insert(Tuple::negative(r.item(&["Galapagos Penguin"]).unwrap()))
            .unwrap();
        let region = r.item(&["Penguin"]).unwrap();
        let plan = LogicalPlan::scan("Conflicted", r).select(region);
        assert!(matches!(
            plan.execute(),
            Err(CoreError::InputInconsistent(_))
        ));
    }
}
