//! Property tests on the vendored `serde_json`, the parser behind every
//! HTTP body and every JSONL replay: no input panics, every rejection is a
//! `serde_json::Error`, and generated `Value` trees reach a text fixed
//! point after one round trip.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Number;
use serde_json::Value;

/// Pieces of JSON text: structure, literals, number characters, escapes
/// (`\u` with and without four hex digits, surrogate halves) and
/// characters of every UTF-8 length.
const TOKENS: [&str; 36] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u00",
    "0041",
    "+",
    "-",
    ".",
    "e",
    "0",
    "7",
    "f",
    "A",
    "D800",
    "DBFF",
    "DC00",
    "DFFF",
    "\\uD83D",
    "\\uDE00",
    "null",
    "true",
    "false",
    " ",
    "\n",
    "\u{1}",
    "\u{7f}",
    "é",
    "€",
    "😀",
    "\u{10FFFF}",
];

/// Any Unicode scalar value, weighted towards ASCII.
fn any_char(rng: &mut StdRng) -> char {
    loop {
        let code = if rng.gen_bool(0.5) {
            rng.gen_range(0..0x80)
        } else {
            rng.gen_range(0x80..=0x10FFFF)
        };
        if let Some(c) = char::from_u32(code) {
            return c;
        }
    }
}

/// Runs of JSON tokens and random characters.
fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..TOKENS.len() + 1, 0u64..u64::MAX), 0..40).prop_map(|pieces| {
        let mut text = String::new();
        for (token, seed) in pieces {
            match TOKENS.get(token) {
                Some(token) => text.push_str(token),
                None => text.push(any_char(&mut StdRng::seed_from_u64(seed))),
            }
        }
        text
    })
}

fn string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..8)).map(|_| any_char(rng)).collect()
}

/// A finite number of any of the three kinds, including integral floats
/// on both sides of the magnitude where printing drops the `.0`.
fn number(rng: &mut StdRng) -> Number {
    match rng.gen_range(0..4) {
        0 => Number::U(rng.gen()),
        1 => Number::I(rng.gen()),
        2 => Number::F(rng.gen_range(-1e17..1e17f64).trunc()),
        _ => loop {
            let f = f64::from_bits(rng.gen());
            if f.is_finite() {
                break Number::F(f);
            }
        },
    }
}

/// A random `Value` tree at most `depth` containers deep.
fn tree(rng: &mut StdRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Num(number(rng)),
        3 => Value::Str(string(rng)),
        4 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn value_tree() -> impl Strategy<Value = Value> {
    (0usize..=6, 0u64..u64::MAX)
        .prop_map(|(depth, seed)| tree(&mut StdRng::seed_from_u64(seed), depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn token_soup_is_parsed_or_rejected_as_an_error(soup in token_soup()) {
        // Bare, and inside a string so escapes reach the string parser.
        for text in [soup.clone(), format!("\"{soup}\"")] {
            let parsed: Result<Value, serde_json::Error> = serde_json::from_str(&text);
            if let Ok(value) = parsed {
                let once = serde_json::to_string(&value).unwrap();
                let again: Value = serde_json::from_str(&once).unwrap();
                prop_assert_eq!(serde_json::to_string(&again).unwrap(), once, "from {:?}", text);
            }
        }
    }
}

proptest! {
    #[test]
    fn value_trees_reach_a_text_fixed_point(value in value_tree()) {
        let text = serde_json::to_string(&value).unwrap();
        let back: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{e} for {text:?}"));
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
