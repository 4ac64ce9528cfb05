//! Parser fuzzing: random statements must survive a
//! display → parse round trip unchanged.

use proptest::prelude::*;

use hrdm_hql::ast::{Derivation, Source, Statement, ValueRef};
use hrdm_hql::parser::parse;

/// Names exercise bare words, digits-only words, hyphens, spaces,
/// quotes, and non-ASCII text.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[A-Za-z][A-Za-z0-9_]{0,8}",
        "[0-9]{1,4}",
        "[A-Za-z]{1,4}-[A-Za-z]{1,4}",
        "[A-Za-z]{1,5} [A-Za-z]{1,5}",
        Just("Amazing Flying Penguin".to_string()),
        Just("say \"hi\"".to_string()),
        Just("ALL".to_string()), // keyword-looking name must be quoted
        // Names are any UTF-8 text between quotes.
        Just("Ünits".to_string()),
        Just("Café au lait".to_string()),
        Just("東京".to_string()),
    ]
}

fn arb_value() -> impl Strategy<Value = ValueRef> {
    (arb_name(), any::<bool>()).prop_map(|(name, all)| ValueRef { name, all })
}

fn arb_values() -> impl Strategy<Value = Vec<ValueRef>> {
    prop::collection::vec(arb_value(), 1..4)
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_name(), 1..4)
}

/// Operands: mostly plain names, with nested derivations down to a
/// bounded depth so parenthesized compositions round-trip too.
fn arb_source(depth: u32) -> BoxedStrategy<Source> {
    if depth == 0 {
        arb_name().prop_map(Source::Named).boxed()
    } else {
        prop_oneof![
            arb_name().prop_map(Source::Named),
            arb_name().prop_map(Source::Named),
            arb_derivation_depth(depth - 1).prop_map(|d| Source::Derived(Box::new(d))),
        ]
        .boxed()
    }
}

fn arb_derivation_depth(depth: u32) -> BoxedStrategy<Derivation> {
    prop_oneof![
        (arb_source(depth), arb_source(depth)).prop_map(|(a, b)| Derivation::Union(a, b)),
        (arb_source(depth), arb_source(depth)).prop_map(|(a, b)| Derivation::Intersect(a, b)),
        (arb_source(depth), arb_source(depth)).prop_map(|(a, b)| Derivation::Difference(a, b)),
        (arb_source(depth), arb_source(depth)).prop_map(|(a, b)| Derivation::Join(a, b)),
        (arb_source(depth), arb_names()).prop_map(|(a, ns)| Derivation::Project(a, ns)),
        (
            arb_source(depth),
            prop::collection::vec((arb_name(), arb_value()), 1..3)
        )
            .prop_map(|(a, cs)| Derivation::Select(a, cs)),
        arb_source(depth).prop_map(Derivation::Consolidated),
        (arb_source(depth), prop::collection::vec(arb_name(), 0..3))
            .prop_map(|(a, ns)| Derivation::Explicated(a, ns)),
    ]
    .boxed()
}

fn arb_derivation() -> impl Strategy<Value = Derivation> {
    arb_derivation_depth(2)
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        arb_name().prop_map(|name| Statement::CreateDomain { name }),
        (arb_name(), arb_names())
            .prop_map(|(name, parents)| Statement::CreateClass { name, parents }),
        (arb_name(), arb_names())
            .prop_map(|(name, parents)| Statement::CreateInstance { name, parents }),
        (arb_name(), arb_name(), arb_name()).prop_map(|(stronger, weaker, domain)| {
            Statement::Prefer {
                stronger,
                weaker,
                domain,
            }
        }),
        (
            arb_name(),
            prop::collection::vec((arb_name(), arb_name()), 1..4)
        )
            .prop_map(|(name, attributes)| Statement::CreateRelation { name, attributes }),
        (arb_name(), any::<bool>(), arb_values()).prop_map(|(relation, negated, values)| {
            Statement::Assert {
                relation,
                negated,
                values,
            }
        }),
        (arb_name(), arb_values())
            .prop_map(|(relation, values)| Statement::Retract { relation, values }),
        (arb_name(), arb_values())
            .prop_map(|(relation, values)| Statement::Holds { relation, values }),
        (arb_name(), arb_values())
            .prop_map(|(relation, values)| Statement::Why { relation, values }),
        (arb_name(), arb_values())
            .prop_map(|(relation, values)| Statement::Holds3 { relation, values }),
        arb_name().prop_map(|relation| Statement::Check { relation }),
        arb_name().prop_map(|relation| Statement::Show { relation }),
        arb_name().prop_map(|name| Statement::ShowDomain { name }),
        arb_name().prop_map(|relation| Statement::Consolidate { relation }),
        (arb_name(), prop::collection::vec(arb_name(), 0..3))
            .prop_map(|(relation, attrs)| Statement::Explicate { relation, attrs }),
        (
            arb_name(),
            prop::sample::select(vec!["OFF-PATH", "ON-PATH", "NONE"])
        )
            .prop_map(|(relation, mode)| Statement::SetPreemption {
                relation,
                mode: mode.to_string(),
            }),
        (arb_name(), prop::option::of(arb_name()))
            .prop_map(|(relation, by)| Statement::Count { relation, by }),
        arb_name().prop_map(|path| Statement::Save { path }),
        arb_name().prop_map(|path| Statement::Load { path }),
        (arb_name(), arb_derivation())
            .prop_map(|(name, derivation)| Statement::Let { name, derivation }),
        arb_derivation().prop_map(|derivation| Statement::Explain { derivation }),
        prop::option::of(arb_name()).prop_map(|over| Statement::ShowRelations { over }),
        (arb_name(), arb_name()).prop_map(|(relation, to)| Statement::Dump { relation, to }),
        // A relation whose name is the listing keyword must come back
        // as a relation, not as the listing.
        Just(Statement::Show {
            relation: "Relations".to_string()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_round_trips(stmt in arb_statement()) {
        let rendered = stmt.to_string();
        let parsed = parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered {rendered:?} failed to parse: {e}"));
        prop_assert_eq!(parsed.len(), 1, "rendered {}", rendered);
        prop_assert_eq!(&parsed[0], &stmt, "rendered {}", rendered);
    }

    #[test]
    fn scripts_of_many_statements_round_trip(
        stmts in prop::collection::vec(arb_statement(), 1..6)
    ) {
        let script: String = stmts
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse(&script).expect("rendered scripts parse");
        prop_assert_eq!(parsed, stmts);
    }
}
