//! Output digests and the committed reference they are checked against.
//!
//! Every workload reduces its outputs to FNV-1a digests. Within a run,
//! all iterations must agree with the warm-up; for the default seed the
//! digests must also equal the ones committed in `perfbench/reference.json`,
//! so a change that alters results fails the benchmark even when it is
//! self-consistent. `GOLDEN_REGEN=1` rewrites the committed entry instead
//! of checking it.

use serde::Value;
use std::path::Path;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5EED;

const COMMITTED: &str = include_str!("../reference.json");

/// FNV-1a over `parts`, as 16 hex digits.
pub fn digest(parts: &[&[u8]]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Checks `value` against the committed digest `key` when running on the
/// default seed; returns the failure, if any.
pub fn check(key: &str, seed: u64, value: &str) -> Option<String> {
    if seed != DEFAULT_SEED {
        return None;
    }
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        return regenerate(key, value).err();
    }
    compare(COMMITTED, key, value)
}

fn compare(committed: &str, key: &str, value: &str) -> Option<String> {
    let committed: Value = match serde_json::from_str(committed) {
        Ok(v) => v,
        Err(e) => return Some(format!("reference.json does not parse: {e}")),
    };
    match committed.get(key).and_then(Value::as_str) {
        Some(expected) if expected == value => None,
        Some(expected) => Some(format!(
            "{key}: output digest {value} differs from the committed reference {expected}"
        )),
        None => Some(format!("{key}: no committed reference digest")),
    }
}

/// Rewrites entry `key` of the source tree's `reference.json`.
fn regenerate(key: &str, value: &str) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    let mut entries: Vec<(String, String)> = match serde_json::from_str::<Value>(&text) {
        Ok(Value::Object(entries)) => entries
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_str()?.to_string())))
            .collect(),
        _ => Vec::new(),
    };
    entries.retain(|(k, _)| k != key);
    entries.push((key.to_string(), value.to_string()));
    entries.sort();
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("write {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_over_the_concatenated_parts() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(digest(&[]), "cbf29ce484222325");
        assert_eq!(digest(&[b"a"]), "af63dc4c8601ec8c");
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"abc"]));
    }

    #[test]
    fn only_the_default_seed_is_checked_against_the_reference() {
        assert_eq!(check("paper-ds2", DEFAULT_SEED + 1, "nonsense"), None);
        let committed = r#"{"a": "00ff"}"#;
        assert_eq!(compare(committed, "a", "00ff"), None);
        let differs = compare(committed, "a", "1234").unwrap();
        assert!(differs.contains("differs"), "{differs}");
        let missing = compare(committed, "b", "00ff").unwrap();
        assert!(missing.contains("no committed reference"), "{missing}");
    }
}
