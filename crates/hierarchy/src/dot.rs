//! Graphviz (DOT) export.
//!
//! Regenerates the paper's hierarchy figures (Fig. 1a, Fig. 2, Fig. 4)
//! for visual inspection: classes as boxes, instances as plain ovals,
//! preference edges dashed.

use std::fmt::Write as _;

use crate::elim::EliminationGraph;
use crate::graph::{EdgeKind, HierarchyGraph, NodeKind};

/// Render `g` as a DOT digraph named `name`.
pub fn to_dot(g: &HierarchyGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
    let _ = writeln!(out, "  rankdir=TB;");
    for id in g.node_ids() {
        let shape = match g.kind(id) {
            NodeKind::Domain => "doubleoctagon",
            NodeKind::Class => "box",
            NodeKind::Instance => "ellipse",
        };
        let _ = writeln!(
            out,
            "  {} [label=\"{}\", shape={}];",
            id.index(),
            escape(g.name(id).as_str()),
            shape
        );
    }
    for id in g.node_ids() {
        // In child order, not in the order the edges were added: a graph
        // decoded from an image adds a node's extra parents and its
        // preference edges after the rest, and must render the same.
        let mut children = g.children_with_kind(id).to_vec();
        children.sort_unstable_by_key(|&(c, kind)| (c.index(), kind == EdgeKind::Preference));
        for (c, kind) in children {
            let style = match kind {
                EdgeKind::Subset => "solid",
                EdgeKind::Preference => "dashed",
            };
            let _ = writeln!(out, "  {} -> {} [style={}];", id.index(), c.index(), style);
        }
    }
    out.push_str("}\n");
    out
}

/// Render the surviving part of an [`EliminationGraph`] (a subsumption or
/// tuple-binding graph) using the node names of the originating graph.
pub fn elimination_to_dot(e: &EliminationGraph, g: &HierarchyGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
    for id in e.alive_nodes() {
        let _ = writeln!(
            out,
            "  {} [label=\"{}\"];",
            id.index(),
            escape(g.name(id).as_str())
        );
    }
    for id in e.alive_nodes() {
        for &c in e.successors(id) {
            let _ = writeln!(out, "  {} -> {};", id.index(), c.index());
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::EliminationMode;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        g.add_instance("Tweety", bird).unwrap();
        let dot = to_dot(&g, "fig1a");
        assert!(dot.starts_with("digraph \"fig1a\""));
        assert!(dot.contains("label=\"Animal\""));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("0 -> 1"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn preference_edges_render_dashed() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_preference_edge(a, b).unwrap();
        let dot = to_dot(&g, "pref");
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn edges_render_in_child_order_not_insertion_order() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        let x = g.add_class("X", b).unwrap();
        g.add_preference_edge(b, a).unwrap();
        let dot = to_dot(&g, "order");
        let pref = dot.find(&format!("{} -> {} [style=dashed]", b.index(), a.index()));
        let subset = dot.find(&format!("{} -> {} [style=solid]", b.index(), x.index()));
        assert!(pref.is_some() && pref < subset, "{dot}");
    }

    #[test]
    fn quotes_escaped() {
        let g = HierarchyGraph::new("He said \"hi\"");
        let dot = to_dot(&g, "q");
        assert!(dot.contains("He said \\\"hi\\\""));
    }

    #[test]
    fn elimination_dot_renders_survivors_only() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.eliminate(a);
        let dot = elimination_to_dot(&e, &g, "sub");
        assert!(!dot.contains("label=\"A\""));
        assert!(dot.contains("label=\"B\""));
        assert!(dot.contains(&format!("{} -> {}", g.root().index(), b.index())));
    }
}
