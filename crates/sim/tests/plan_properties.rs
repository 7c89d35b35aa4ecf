//! Property tests on the `--chaos-plan` grammar: no input panics the
//! parser, every rejection is an `Err`, and generated plans survive a
//! trip through `Display` and `parse` unchanged.

use hetsched_sim::chaos::{FaultKind, FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::ops::Range;

/// Pieces of plan text: separators, kind names, numbers at and past the
/// `u64` edge, whitespace and multi-byte characters.
const TOKENS: [&str; 30] = [
    "campaign.cell.run",
    "p",
    "@",
    "x",
    "=",
    ";",
    "[",
    "]",
    "seed=",
    "panic",
    "io",
    "abort",
    "delay:",
    "~",
    "0",
    "1",
    "7",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "-",
    "+",
    " ",
    "\t",
    "\n",
    "é",
    "€",
    "😀",
    "delay:1~18446744073709551615",
    "campaign.cell.run@1=",
];

/// Plan text run through up to eight edits, each inserting a token or a
/// random character or deleting a character. A quarter of the soups
/// start empty; the rest start from a generated plan, so many of them
/// sit just next to the grammar and some still parse.
fn token_soup() -> impl Strategy<Value = String> {
    let edit = (0..TOKENS.len() + 2, 0u32..0x11_0000, 0usize..1024);
    (0u8..4, plan(), prop::collection::vec(edit, 0..8)).prop_map(|(base, plan, edits)| {
        let mut chars: Vec<char> = match base {
            0 => Vec::new(),
            _ => plan.to_string().chars().collect(),
        };
        for (token, code, at) in edits {
            let at = at % (chars.len() + 1);
            match TOKENS.get(token) {
                Some(token) => drop(chars.splice(at..at, token.chars())),
                None if token == TOKENS.len() => drop(chars.splice(at..at, char::from_u32(code))),
                None if at < chars.len() => drop(chars.remove(at)),
                None => {}
            }
        }
        chars.into_iter().collect()
    })
}

/// Text over `alphabet`, whose bytes no part of the grammar treats
/// specially.
fn text(alphabet: &'static [u8], len: Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i] as char).collect())
}

fn kind() -> impl Strategy<Value = FaultKind> {
    (0u8..5, 0u64..=u64::MAX - 1, 0u64..=u64::MAX).prop_map(|(tag, millis, draw)| match tag {
        0 => FaultKind::Panic,
        1 => FaultKind::Io,
        2 => FaultKind::Abort,
        3 => FaultKind::Delay {
            millis: draw % 1000,
            jitter_millis: 0,
        },
        // Any jitter that keeps `millis + jitter + 1` inside `u64`.
        _ => FaultKind::Delay {
            millis,
            jitter_millis: draw % (u64::MAX - millis),
        },
    })
}

fn spec() -> impl Strategy<Value = FaultSpec> {
    let point = text(b"abcdefghijklmnopqrstuvwxyz._", 1..20);
    let scope = text(b"abcxyzABCXYZ0189/-._ ", 0..12);
    (point, (0u8..2, scope), 1u64..=u64::MAX, 1u64..4, kind()).prop_map(
        |(point, (scoped, scope), nth, count, kind)| {
            let spec = FaultSpec::new(point, nth, kind).times(count);
            if scoped == 0 {
                spec
            } else {
                spec.scoped(scope)
            }
        },
    )
}

fn plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..=u64::MAX, 0u8..2, prop::collection::vec(spec(), 1..5)).prop_map(
        |(seed, seeded, faults)| FaultPlan {
            seed: if seeded == 0 { 0 } else { seed },
            faults,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn token_soup_is_parsed_or_rejected_as_an_error(soup in token_soup()) {
        if let Ok(plan) = FaultPlan::parse(&soup) {
            // Every parsed delay can fire: its jitter span fits in `u64`.
            for spec in &plan.faults {
                if let FaultKind::Delay { millis, jitter_millis } = spec.kind {
                    let span = millis.checked_add(jitter_millis).and_then(|t| t.checked_add(1));
                    prop_assert!(span.is_some(), "{}", spec);
                }
            }
            let text = plan.to_string();
            prop_assert_eq!(FaultPlan::parse(&text), Ok(plan), "from {:?}", soup);
        }
    }
}

proptest! {
    #[test]
    fn generated_plans_round_trip_through_display(plan in plan()) {
        let text = plan.to_string();
        prop_assert_eq!(FaultPlan::parse(&text), Ok(plan), "{}", text);
    }
}
