//! `--chaos-plan` end to end. Each test runs the `hetsched` binary as a
//! child process, because the fault registry is process-global: a plan
//! armed inside the test harness would fire in the tests running beside
//! it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetsched-chaos-plan-{}-{name}", std::process::id()))
}

/// `hetsched run` of a one-replicate campaign (five cells) under `plan`,
/// exporting its metrics to `telemetry`.
fn run_campaign(plan: &str, telemetry: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetsched"))
        .args(["run", "--replicates", "1", "--tasks", "15", "--pop", "8"])
        .args([
            "--scale",
            "0.00002",
            "--chaos-plan",
            plan,
            "--telemetry-out",
        ])
        .arg(telemetry)
        .output()
        .expect("the hetsched binary starts")
}

#[test]
fn a_planned_fault_fires_and_is_counted() {
    let telemetry = scratch("fires.prom");
    // The first cell attempt panics; its retry completes the campaign.
    let out = run_campaign("campaign.cell.run@1=panic", &telemetry);
    let metrics = std::fs::read_to_string(&telemetry).unwrap_or_default();
    let _ = std::fs::remove_file(&telemetry);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        metrics
            .lines()
            .any(|line| line == "hetsched_chaos_faults_injected_total 1"),
        "{metrics}"
    );
}

#[test]
fn a_misspelt_fault_point_is_a_usage_error() {
    let telemetry = scratch("misspelt.prom");
    let out = run_campaign("campain.cell.run@1=panic", &telemetry);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("campain.cell.run"), "{stderr}");
    assert!(!telemetry.exists(), "the campaign must not run");
}
