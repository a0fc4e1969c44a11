//! Property-based tests for CScript: JSON roundtrips over arbitrary value
//! trees, parser robustness, and interpreter arithmetic consistency.

use ccf_script::{parse_json, to_json, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // Integers in the f64-exact range keep serialization canonical.
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
        "[ -~&&[^\"\\\\]]{0,16}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::arr),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(Value::obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_roundtrip(v in value_strategy()) {
        let text = to_json(&v);
        let reparsed = parse_json(&text).unwrap();
        prop_assert_eq!(&reparsed, &v);
        // Canonical: serializing again yields identical bytes.
        prop_assert_eq!(to_json(&reparsed), text);
    }

    #[test]
    fn json_parser_never_panics(text in "[ -~]{0,64}") {
        let _ = parse_json(&text);
    }

    #[test]
    fn lexer_never_panics(src in "[ -~]{0,128}") {
        let _ = ccf_script::compile(&src);
    }

    #[test]
    fn interpreter_arithmetic_matches_rust(a in -1000i64..1000, b in -1000i64..1000) {
        let src = "function main(a, b) { return a * 3 + b - a % 7; }".to_string();
        let out = ccf_script::run(
            &src,
            "main",
            vec![Value::Num(a as f64), Value::Num(b as f64)],
            &mut ccf_script::NoHost,
            100_000,
        )
        .unwrap();
        let expected = (a as f64) * 3.0 + (b as f64) - ((a as f64) % 7.0);
        prop_assert_eq!(out, Value::Num(expected));
    }

    #[test]
    fn fuel_always_terminates(
        fuel in 10u64..5000,
        n in 0u64..1000,
    ) {
        // A loop of arbitrary size either completes or runs out of fuel —
        // never hangs (checked by completing at all).
        let src = "function main(n) { let x = 0; let i = 0; while (i < n) { i = i + 1; x = x + i; } return x; }";
        let _ = ccf_script::run(
            src,
            "main",
            vec![Value::Num(n as f64)],
            &mut ccf_script::NoHost,
            fuel,
        );
    }
}
