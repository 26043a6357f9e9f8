//! Repro bundles are **canonical**, pinned as a property: for any bundle —
//! arbitrary tenant names, engine configs, seed texts, replay logs, and
//! captured entries whose request/response strings mix quotes, escapes,
//! control characters and non-ASCII — `to_json` → `from_json` → `to_json`
//! is byte-identical, and the parsed bundle equals the original. This is
//! what makes a bundle a stable forensic artifact: exporting, shipping
//! through the JSON envelope of the `repro` verb, and re-saving it can
//! never silently alter the bytes it will be replayed against.

use knn_engine::bundle::{BundleEntry, ReproBundle};
use knn_engine::{EngineConfig, Mutation};
use knn_space::Label;
use proptest::prelude::*;

/// Strings that stress the JSON escaper: embedded quotes, backslashes,
/// newlines, tabs, non-ASCII, and JSON-looking fragments.
fn text_strategy() -> impl Strategy<Value = String> {
    let fragment = prop::sample::select(vec![
        r#"{"id":"q","cmd":"classify","point":[1,0.5]}"#,
        "plain",
        "\"",
        "\\",
        "line\nbreak",
        "tab\there",
        "π≠∅",
        "+ 1 0\n- 0 1\n",
        "",
    ]);
    prop::collection::vec(fragment, 0..=4).prop_map(|parts| parts.concat())
}

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    (0..4usize, 0..5000usize, prop::option::of(0..100u64)).prop_map(
        |(workers, cache_capacity, effort_budget)| EngineConfig {
            workers,
            cache_capacity,
            effort_budget,
        },
    )
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // Coordinates cover the number writer's branches: integral (printed as
    // integers, including -0.0 -> 0), fractional shortest-roundtrip, and
    // values only a shortest-roundtrip printer survives (0.1 + 0.2).
    let coord =
        prop::sample::select(vec![0.0, -0.0, 1.0, -3.0, 0.5, 0.30000000000000004, 1e-7, 9.0e14]);
    (any::<bool>(), prop::collection::vec(coord, 1..=4), any::<bool>(), 0..64usize).prop_map(
        |(is_insert, point, positive, id)| {
            if is_insert {
                let label = if positive { Label::Positive } else { Label::Negative };
                Mutation::Insert { point, label }
            } else {
                Mutation::Remove { id }
            }
        },
    )
}

fn entry_strategy() -> impl Strategy<Value = BundleEntry> {
    (
        (0..1_000_000u64, 0..1_000_000u64, prop::option::of(0..64u64), 0..1_000u64),
        prop::option::of(text_strategy()),
        text_strategy(),
        text_strategy(),
    )
        .prop_map(|((conn, seq, backend, epoch), trace, request, response)| BundleEntry {
            conn,
            seq,
            backend,
            epoch,
            trace,
            request,
            response,
        })
}

fn bundle_strategy() -> impl Strategy<Value = ReproBundle> {
    (
        prop::sample::select(vec!["toy", "hot", "t-0", "π"]),
        config_strategy(),
        text_strategy(),
        prop::collection::vec(mutation_strategy(), 0..=6),
        prop::collection::vec(entry_strategy(), 0..=6),
    )
        .prop_map(|(tenant, config, seed, replay, entries)| ReproBundle {
            tenant: tenant.to_string(),
            config,
            seed,
            replay,
            entries,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_serialize_is_byte_identical(bundle in bundle_strategy()) {
        let first = bundle.to_json();
        let parsed = ReproBundle::from_json(&first)
            .map_err(|e| TestCaseError::Fail(format!("own output rejected: {e}")))?;
        prop_assert_eq!(&parsed, &bundle, "parse loses information");
        let second = parsed.to_json();
        prop_assert_eq!(&first, &second, "re-serialization changed bytes");
    }
}
