//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled in: the workloads, and the name, unit, direction and bound of
//! every metric. Runs print the metrics it lists and `perf compare` judges
//! by its bounds, so the list is kept in that one file.

use serde::Value;
use std::sync::OnceLock;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The compiled-in `BENCHMARK.json`.
pub fn get() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn list<'a>(spec: &'a Value, key: &str) -> Result<&'a [Value], String> {
    spec.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no `{key}` list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("an entry without `{key}`"))
}

fn metrics(spec: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(spec, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?.to_string(),
                unit: field(m, "unit")?.to_string(),
                lower_is_better: field(m, "better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let spec: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let end_to_end = metrics(&spec, "end_to_end")?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric `{}` has no bound", m.name));
    }
    Ok(Spec {
        workloads: list(&spec, "workloads")?
            .iter()
            .map(|w| field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?,
        end_to_end,
        per_layer: metrics(&spec, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_workloads_metrics_directions_and_bounds() {
        let spec = parse(
            r#"{"workloads": [{"name": "a", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["a"]);
        assert!(spec.end_to_end[0].lower_is_better);
        assert!(!spec.end_to_end[1].lower_is_better);
        assert_eq!(spec.end_to_end[1].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].unit, "count");
        assert_eq!(spec.per_layer[0].bound, None);
        let unbounded = r#"{"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}]}"#;
        assert!(parse(unbounded).unwrap_err().contains("no bound"));
        // The committed declaration parses.
        assert!(!get().workloads.is_empty());
    }
}
