//! Persistence integration: systems, traces, and allocations survive a JSON
//! round-trip and evaluate to identical objectives afterwards — the
//! contract behind storing "a trace from any given system" on disk and
//! analysing it later. The last tests pin the serde derive's optional-key
//! attributes that the manifest, trace and wire formats are built on.

use hetsched::data::HcSystem;
use hetsched::heuristics::{max_utility, min_min_completion_time};
use hetsched::sim::{Allocation, Evaluator};
use hetsched::synth::builder::dataset2_system;
use hetsched::workload::{Trace, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

#[test]
fn synthetic_system_roundtrips_with_infinities() {
    let mut rng = StdRng::seed_from_u64(5);
    let sys = dataset2_system(&mut rng).unwrap();
    let json = serde_json::to_string(&sys).unwrap();
    let back: HcSystem = serde_json::from_str(&json).unwrap();
    assert_eq!(sys, back);
    // Special-purpose incompatibilities (ETC = +inf) survived the trip.
    let mut saw_infinite = false;
    for t in 0..sys.task_type_count() {
        for m in 0..sys.machine_type_count() {
            let t = hetsched::data::TaskTypeId(t as u16);
            let m = hetsched::data::MachineTypeId(m as u16);
            assert_eq!(
                sys.etc().time(t, m).is_finite(),
                back.etc().time(t, m).is_finite()
            );
            saw_infinite |= !sys.etc().time(t, m).is_finite();
        }
    }
    assert!(saw_infinite, "dataset 2 must contain incompatible pairs");
}

#[test]
fn full_experiment_state_roundtrips() {
    let mut rng = StdRng::seed_from_u64(6);
    let sys = dataset2_system(&mut rng).unwrap();
    let trace = TraceGenerator::new(50, 900.0, sys.task_type_count())
        .generate(&mut rng)
        .unwrap();
    let alloc = min_min_completion_time(&sys, &trace);

    let sys_json = serde_json::to_string(&sys).unwrap();
    let trace_json = serde_json::to_string(&trace).unwrap();
    let alloc_json = serde_json::to_string(&alloc).unwrap();

    let sys2: HcSystem = serde_json::from_str(&sys_json).unwrap();
    let trace2: Trace = serde_json::from_str::<Trace>(&trace_json)
        .unwrap()
        .after_deserialize();
    let alloc2: Allocation = serde_json::from_str(&alloc_json).unwrap();

    let before = Evaluator::new(&sys, &trace).evaluate(&alloc);
    let after = Evaluator::new(&sys2, &trace2).evaluate(&alloc2);
    assert!((before.utility - after.utility).abs() < 1e-9);
    assert!((before.energy - after.energy).abs() < 1e-9);
    assert!((before.makespan - after.makespan).abs() < 1e-9);
}

#[test]
fn heuristics_agree_across_roundtripped_state() {
    // Regenerate a heuristic allocation from deserialised state: it must
    // equal the one computed from the originals (nothing hidden was lost).
    let sys = hetsched::data::real_system();
    let trace = TraceGenerator::new(35, 900.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(8))
        .unwrap();
    let trace2: Trace = serde_json::from_str::<Trace>(&serde_json::to_string(&trace).unwrap())
        .unwrap()
        .after_deserialize();
    assert_eq!(max_utility(&sys, &trace), max_utility(&sys, &trace2));
}

/// One field per derive attribute, with required fields on both ends.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Knobs {
    name: String,
    #[serde(default)]
    count: u32,
    #[serde(default = "half")]
    rate: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    label: Option<String>,
    tail: u8,
}

fn half() -> f64 {
    0.5
}

fn knobs(label: Option<&str>) -> Knobs {
    Knobs {
        name: "a".to_string(),
        count: 3,
        rate: 0.25,
        label: label.map(str::to_string),
        tail: 1,
    }
}

#[test]
fn missing_keys_take_their_defaults_and_present_keys_their_values() {
    let bare: Knobs = serde_json::from_str(r#"{"name":"a","tail":1}"#).unwrap();
    assert_eq!(bare.count, 0, "`default` reads Default::default()");
    assert_eq!(bare.rate, 0.5, "`default = \"half\"` reads half()");
    assert_eq!(bare.label, None);
    let full: Knobs =
        serde_json::from_str(r#"{"tail":1,"label":"x","rate":0.25,"count":3,"name":"a"}"#).unwrap();
    assert_eq!(full, knobs(Some("x")));
}

#[test]
fn null_on_a_defaulted_option_reads_as_none() {
    let parsed: Knobs = serde_json::from_str(r#"{"name":"a","label":null,"tail":1}"#).unwrap();
    assert_eq!(parsed.label, None);
}

#[test]
fn a_skipped_none_is_omitted_and_keys_keep_declaration_order() {
    let json = serde_json::to_string(&knobs(None)).unwrap();
    assert_eq!(json, r#"{"name":"a","count":3,"rate":0.25,"tail":1}"#);
    assert_eq!(serde_json::from_str::<Knobs>(&json).unwrap(), knobs(None));
    let json = serde_json::to_string(&knobs(Some("x"))).unwrap();
    assert_eq!(
        json,
        r#"{"name":"a","count":3,"rate":0.25,"label":"x","tail":1}"#
    );
    assert_eq!(
        serde_json::from_str::<Knobs>(&json).unwrap(),
        knobs(Some("x"))
    );
}

#[test]
fn a_missing_required_field_is_still_an_error() {
    for (json, field) in [
        (r#"{"count":3,"tail":1}"#, "name"),
        (r#"{"name":"a","count":3}"#, "tail"),
    ] {
        let err = serde_json::from_str::<Knobs>(json).unwrap_err();
        assert!(err.to_string().contains(field), "{err}");
    }
    // A present key of the wrong type is an error too, default or not.
    assert!(serde_json::from_str::<Knobs>(r#"{"name":"a","count":"3","tail":1}"#).is_err());
}
