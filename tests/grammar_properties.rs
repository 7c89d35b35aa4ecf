//! Property tests on two text grammars that reach the program from the
//! command line and the serve daemon: the `--log-level` directives
//! (`tracing::Directives`) and the arrival specs (`ArrivalSpec`). No input
//! panics either parser, every rejection is an `Err`, and generated valid
//! inputs survive a trip through `Display` and `parse` unchanged.

use hetsched::workload::arrivals::MAX_RATE;
use hetsched::workload::{ArrivalSpec, Burst};
use proptest::prelude::*;
use std::ops::Range;
use tracing::{Directives, Level};

/// `text` run through up to eight edits, each inserting one of `tokens`
/// or a random character, or deleting a character. A quarter of the
/// soups start empty; the rest start from a valid input, so many of them
/// sit just next to the grammar and some still parse.
fn edited(
    valid: impl Strategy<Value = String>,
    tokens: &'static [&'static str],
) -> impl Strategy<Value = String> {
    let edit = (0..tokens.len() + 2, 0u32..0x11_0000, 0usize..1024);
    (0u8..4, valid, prop::collection::vec(edit, 0..8)).prop_map(move |(base, text, edits)| {
        let mut chars: Vec<char> = match base {
            0 => Vec::new(),
            _ => text.chars().collect(),
        };
        for (token, code, at) in edits {
            let at = at % (chars.len() + 1);
            match tokens.get(token) {
                Some(token) => drop(chars.splice(at..at, token.chars())),
                None if token == tokens.len() => drop(chars.splice(at..at, char::from_u32(code))),
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

const LEVELS: [Level; 5] = [
    Level::ERROR,
    Level::WARN,
    Level::INFO,
    Level::DEBUG,
    Level::TRACE,
];

/// Directive pieces: separators, every level spelling, `off`, module
/// paths, whitespace and multi-byte characters.
const DIRECTIVE_TOKENS: [&str; 20] = [
    ",",
    "=",
    "::",
    "error",
    "warn",
    "warning",
    "info",
    "debug",
    "trace",
    "off",
    "OFF",
    "Info",
    "loud",
    "hetsched_core",
    "campaign",
    " ",
    "\t",
    "é",
    "€",
    "😀",
];

/// A default level plus up to four target rules (`None` = off).
fn directives() -> impl Strategy<Value = Directives> {
    let rule = (text(b"abcxyz_:", 1..16), 0..LEVELS.len() + 1);
    (0..LEVELS.len(), prop::collection::vec(rule, 0..5)).prop_map(|(default, rules)| {
        rules
            .into_iter()
            .fold(Directives::new(LEVELS[default]), |d, (target, level)| {
                d.with_target(target, LEVELS.get(level).copied())
            })
    })
}

/// Arrival-spec pieces: clause names, separators, numbers inside and
/// outside the valid ranges, non-finite spellings and multi-byte
/// characters.
const ARRIVAL_TOKENS: [&str; 22] = [
    "poisson:",
    "burst:",
    ",",
    ":",
    "x",
    "0",
    "1",
    "2",
    "2.5",
    "-1",
    "1e3",
    "1e-300",
    "500",
    "500.5",
    "inf",
    "NaN",
    " ",
    "é",
    "€",
    "poisson:1.5",
    "burst:3x30",
    "x0",
];

/// A valid spec: rate in `(0, MAX_RATE]`, and with a burst, a factor that
/// keeps the peak within `MAX_RATE` and a period of at least 2 s.
fn arrival_spec() -> impl Strategy<Value = ArrivalSpec> {
    (1e-6..=MAX_RATE, 0u8..2, 0.0f64..=1.0, 2.0f64..1e6).prop_map(
        |(rate, bursty, share, period)| {
            // Rounding can push the peak one ulp past the cap.
            let factor = 1.0 + share * (MAX_RATE / rate - 1.0);
            let factor = if rate * factor <= MAX_RATE {
                factor
            } else {
                1.0
            };
            ArrivalSpec {
                rate,
                burst: (bursty == 1).then_some(Burst { factor, period }),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn directive_soup_is_parsed_or_rejected_as_an_error(
        soup in edited(directives().prop_map(|d| d.to_string()), &DIRECTIVE_TOKENS)
    ) {
        if let Ok(parsed) = soup.parse::<Directives>() {
            prop_assert_eq!(parsed.to_string().parse(), Ok(parsed), "from {:?}", soup);
        }
    }

    #[test]
    fn arrival_soup_is_parsed_or_rejected_as_an_error(
        soup in edited(arrival_spec().prop_map(|s| s.to_string()), &ARRIVAL_TOKENS)
    ) {
        if let Ok(spec) = soup.parse::<ArrivalSpec>() {
            let peak = spec.rate * spec.burst.map_or(1.0, |b| b.factor);
            prop_assert!(spec.rate > 0.0 && peak <= MAX_RATE, "{} from {:?}", spec, soup);
            let again: ArrivalSpec = spec.to_string().parse().unwrap();
            prop_assert_eq!(again, spec, "from {:?}", soup);
        }
    }
}

proptest! {
    #[test]
    fn generated_directives_round_trip_through_display(d in directives()) {
        let text = d.to_string();
        prop_assert_eq!(text.parse::<Directives>(), Ok(d), "{}", text);
    }

    #[test]
    fn generated_arrival_specs_round_trip_through_display(spec in arrival_spec()) {
        let text = spec.to_string();
        let back: ArrivalSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("{e} for {text:?}"));
        prop_assert_eq!(back, spec, "{}", text);
    }
}
