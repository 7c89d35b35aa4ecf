//! Chaos suite: deterministic fault injection against the hardened
//! campaign executor.
//!
//! Each test arms a [`FaultPlan`] on the process-global registry, runs a
//! small campaign through the injected faults, and asserts the recovery
//! contract from README § Fault tolerance:
//!
//! * injected panics and manifest I/O errors are invisible in the final
//!   reports — byte-identical to an uninjected run, including across a
//!   kill-and-resume;
//! * a hung cell is recorded as timed out while every other cell's
//!   result still matches the clean run;
//! * telemetry counters account for every fault the plan injected.
//!
//! Between them the plans fire at all ten fault points, and every point
//! they name must be listed in [`POINTS`], the names `--chaos-plan`
//! accepts.
//!
//! The registry is global, so the tests serialise on a lock; everything
//! else in this binary stays chaos-armed-free.

use hetsched::core::chaos::{armed, injected_total, FaultPlan, POINTS};
use hetsched::core::RunJournal;
use hetsched::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serialises the tests: the chaos registry is process-global state.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Parses `text`, a plan whose points must all be in [`POINTS`].
fn checked_plan(text: &str) -> FaultPlan {
    let plan = FaultPlan::parse(text).unwrap();
    for spec in &plan.faults {
        let point = spec.point.as_str();
        assert!(POINTS.contains(&point), "`{point}` is not in POINTS");
    }
    plan
}

/// 1 dataset × 2 algorithms × 2 replicates × 2 seed kinds = 8 cells.
fn tiny_spec() -> CampaignSpec {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2, 4])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(0xC4405)
        .parallel(false)
        .build()
        .expect("tiny chaos config is consistent");
    CampaignSpec::builder(base)
        .algorithms(vec![Algorithm::Nsga2, Algorithm::Spea2])
        .replicates(2)
        .build()
        .expect("tiny chaos grid is consistent")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetsched-chaos-{}-{tag}", std::process::id()))
}

/// The campaign reports, serialised for byte-identity comparison.
fn report_bytes(outcome: &CampaignOutcome) -> Vec<String> {
    outcome
        .reports
        .iter()
        .map(|r| {
            format!(
                "{:?}/{}/{}",
                r.algorithm,
                r.replicate,
                serde_json::to_string(&r.report).unwrap()
            )
        })
        .collect()
}

#[test]
fn injected_faults_and_a_kill_are_invisible_after_resume() {
    let _serial = serial();
    let spec = tiny_spec();
    let clean = Campaign::new(spec.clone()).run(None).unwrap();
    assert!(clean.is_complete());

    let manifest = scratch("differential.jsonl");
    let _ = std::fs::remove_file(&manifest);

    // Two cell panics (each recovered by a retry) plus one manifest
    // append error (the checkpoint line is lost; the in-memory record is
    // still used).
    let plan = checked_plan(
        "seed=7;campaign.cell.run@1=panic;campaign.cell.run@4=panic;manifest.append@2=io",
    );
    let before = injected_total();
    let faulted = {
        let _armed = armed(plan);
        Campaign::new(spec.clone())
            .attempts(3)
            .run(Some(&manifest))
            .unwrap()
    };
    assert_eq!(injected_total() - before, 3, "every planned fault fired");
    assert!(faulted.is_complete(), "retries absorb the injected panics");
    assert_eq!(report_bytes(&clean), report_bytes(&faulted));

    // The io fault cost exactly one checkpoint line: header + 7 records.
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(text.lines().count(), 1 + 7, "{text}");

    // Kill: truncate the manifest to header + 3 records, then resume with
    // no faults armed. Only the missing cells re-execute, and the final
    // reports are byte-identical to the uninterrupted, uninjected run.
    let kept: Vec<&str> = text.lines().take(1 + 3).collect();
    std::fs::write(&manifest, format!("{}\n", kept.join("\n"))).unwrap();
    let resumed = Campaign::new(spec).run(Some(&manifest)).unwrap();
    let _ = std::fs::remove_file(&manifest);
    assert!(resumed.is_complete());
    assert_eq!(resumed.replayed, 3);
    assert_eq!(resumed.executed, 5);
    assert_eq!(report_bytes(&clean), report_bytes(&resumed));
}

#[test]
fn hung_cell_times_out_while_every_other_cell_matches() {
    let _serial = serial();
    let spec = tiny_spec();
    let clean = Campaign::new(spec.clone()).run(None).unwrap();

    // One cell sleeps far past the watchdog budget; the injected delay is
    // scoped so exactly that cell hangs.
    let plan = checked_plan("seed=3;campaign.cell.run[One/nsga2/min-energy/r0]@1=delay:1500");
    let registry = Arc::new(MetricsRegistry::new());
    let outcome = {
        let _armed = armed(plan);
        Campaign::new(spec)
            .cell_timeout(Duration::from_millis(300))
            .with_telemetry(Arc::clone(&registry))
            .run(None)
            .unwrap()
    };

    assert_eq!(outcome.failed.len(), 1, "exactly one cell times out");
    let record = &outcome.failed[0];
    assert_eq!(record.outcome, CellOutcome::TimedOut);
    assert_eq!(record.cell.to_string(), "One/nsga2/min-energy/r0");
    assert_eq!(record.attempts, 1, "timeouts are terminal");
    assert!(record.error.as_deref().unwrap().contains("cell timeout"));

    // The timed-out cell removes its (algorithm, replicate) group's
    // report; every surviving report matches the clean run byte for byte.
    let clean_reports = report_bytes(&clean);
    let survivors = report_bytes(&outcome);
    assert_eq!(survivors.len(), clean_reports.len() - 1);
    for line in &survivors {
        assert!(clean_reports.contains(line), "report drifted: {line}");
    }

    // The timeout is visible in the telemetry counters.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.cells_timed_out, 1);
    assert_eq!(snapshot.cells_poisoned, 0);
    assert_eq!(snapshot.cells_failed, 1);

    // Let the abandoned watchdog orphan drain before the next test arms
    // its own plan (the orphan would otherwise consume its fault hits).
    std::thread::sleep(Duration::from_millis(1700));
}

#[test]
fn evaluator_faults_retry_to_identical_results() {
    let _serial = serial();
    let spec = tiny_spec();
    let clean = Campaign::new(spec.clone()).run(None).unwrap();

    // The panic fires deep inside the simulator on some cell's first
    // evaluation; the attempt dies, the retry replays the cell from its
    // own RNG stream and must land on identical results.
    let plan = checked_plan("evaluator.evaluate@1=panic");
    let before = injected_total();
    let outcome = {
        let _armed = armed(plan);
        Campaign::new(spec).attempts(2).run(None).unwrap()
    };
    assert_eq!(injected_total() - before, 1);
    assert!(outcome.is_complete());
    assert_eq!(report_bytes(&clean), report_bytes(&outcome));
}

#[test]
fn journal_write_faults_surface_as_append_errors() {
    let _serial = serial();
    let path = scratch("journal.jsonl");
    let plan = checked_plan("journal.write@1=io");
    let _armed = armed(plan);

    let journal = RunJournal::create(&path).unwrap();
    let record = hetsched::core::JournalRecord {
        population: "Random".to_string(),
        stream: 1,
        stats: hetsched::moea::observe::GenerationStats {
            generation: 1,
            front_sizes: vec![2],
            ideal: [-1.0, 1.0],
            hypervolume: None,
            crowding_spread: 0.0,
            evaluations: 4,
            timings: Default::default(),
        },
    };
    let err = journal.append(&record).unwrap_err();
    assert!(err.to_string().contains("journal.write"), "{err}");
    // The sink survives the fault: the next append goes through.
    journal.append(&record).unwrap();
    drop(journal);
    let read = RunJournal::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(read.len(), 1);
}

#[test]
fn heartbeat_faults_are_swallowed_and_the_campaign_completes() {
    let _serial = serial();
    let heartbeat = scratch("heartbeat.jsonl");
    let _ = std::fs::remove_file(&heartbeat);

    let plan = checked_plan("heartbeat.tick@1=io");
    let hb = hetsched::core::Heartbeat::create(&heartbeat, Duration::ZERO).unwrap();
    let registry = Arc::new(MetricsRegistry::new().with_heartbeat(hb));
    let outcome = {
        let _armed = armed(plan);
        Campaign::new(tiny_spec())
            .with_telemetry(registry)
            .run(None)
            .unwrap()
    };
    assert!(
        outcome.is_complete(),
        "a broken heartbeat never fails a run"
    );

    // One line was sacrificed to the fault; the rest are valid JSON.
    let text = std::fs::read_to_string(&heartbeat).unwrap();
    let _ = std::fs::remove_file(&heartbeat);
    let mut lines = 0;
    for line in text.lines() {
        serde_json::from_str::<hetsched::core::HeartbeatLine>(line)
            .unwrap_or_else(|e| panic!("bad heartbeat line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines >= 1, "surviving heartbeat lines expected: {text}");
}

#[test]
fn manifest_append_panic_poisons_the_sink_and_only_that_cell_reruns() {
    let _serial = serial();
    let manifest = scratch("poison.jsonl");
    let _ = std::fs::remove_file(&manifest);

    // The panic fires *inside* the sink's critical section, genuinely
    // poisoning the mutex; later appends must recover the lock and keep
    // checkpointing.
    let plan = checked_plan("manifest.append[One/spea2/random/r1]@1=panic");
    let spec = tiny_spec();
    let first = {
        let _armed = armed(plan);
        Campaign::new(spec.clone()).run(Some(&manifest)).unwrap()
    };
    assert!(first.is_complete(), "an append panic never fails the run");

    // Exactly the faulted cell's checkpoint line is missing.
    let lines = std::fs::read_to_string(&manifest).unwrap().lines().count();
    assert_eq!(lines, 1 + 7);

    // Resume re-executes just that cell.
    let resumed = Campaign::new(spec).run(Some(&manifest)).unwrap();
    let _ = std::fs::remove_file(&manifest);
    assert!(resumed.is_complete());
    assert_eq!(resumed.replayed, 7);
    assert_eq!(resumed.executed, 1);
}

mod distributed {
    use super::{armed, checked_plan, injected_total, report_bytes, scratch, serial, tiny_spec};
    use hetsched::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// A worker killed at the lease-acquire fault point leaves no trace:
    /// the panic fires before the acquire line is appended, so a
    /// survivor starts from an empty grid and the merged reports are
    /// byte-identical to an uninjected single-process run.
    #[test]
    fn worker_killed_mid_acquire_leaves_no_trace() {
        let _serial = serial();
        let spec = tiny_spec();
        let clean = Campaign::new(spec.clone()).run(None).unwrap();
        let manifest = scratch("dist-acquire.jsonl");
        let _ = std::fs::remove_file(&manifest);

        let plan = checked_plan("seed=11;lease.acquire@1=panic");
        let before = injected_total();
        {
            let _armed = armed(plan);
            let victim = Worker::new(Campaign::new(spec.clone()), "victim")
                .lease_ttl(Duration::from_millis(150))
                .skew_slack(0.0);
            let killed = catch_unwind(AssertUnwindSafe(|| victim.run(&manifest)));
            assert!(killed.is_err(), "the armed fault must kill the worker");
        }
        assert_eq!(injected_total() - before, 1);

        let survivor = Worker::new(Campaign::new(spec), "survivor")
            .skew_slack(0.0)
            .run(&manifest)
            .unwrap();
        let _ = std::fs::remove_file(&manifest);
        assert_eq!(survivor.executed, 8);
        assert_eq!(survivor.stolen, 0, "no lease was ever appended");
        assert!(survivor.outcome.is_complete());
        assert_eq!(report_bytes(&clean), report_bytes(&survivor.outcome));
    }

    /// A worker killed between finishing a cell and appending its result
    /// dies holding the lease. Once the lease lapses a survivor steals
    /// it, re-runs the cell on the same decorrelated RNG stream, and the
    /// merged reports never drift.
    #[test]
    fn worker_killed_mid_append_is_stolen_from_and_reports_match() {
        let _serial = serial();
        let spec = tiny_spec();
        let clean = Campaign::new(spec.clone()).run(None).unwrap();
        let manifest = scratch("dist-append.jsonl");
        let _ = std::fs::remove_file(&manifest);

        let plan = checked_plan("seed=12;worker.cell.append@1=panic");
        let before = injected_total();
        {
            let _armed = armed(plan);
            let victim = Worker::new(Campaign::new(spec.clone()), "victim")
                .lease_ttl(Duration::from_millis(150))
                .skew_slack(0.0);
            let killed = catch_unwind(AssertUnwindSafe(|| victim.run(&manifest)));
            assert!(killed.is_err(), "the armed fault must kill the worker");
        }
        assert_eq!(injected_total() - before, 1);

        // Let the orphaned lease lapse, then take over.
        std::thread::sleep(Duration::from_millis(500));
        let survivor = Worker::new(Campaign::new(spec), "survivor")
            .skew_slack(0.0)
            .run(&manifest)
            .unwrap();
        let _ = std::fs::remove_file(&manifest);
        assert_eq!(survivor.executed, 8, "the lost cell re-ran");
        assert_eq!(survivor.stolen, 1, "exactly the victim's lease was stolen");
        assert!(survivor.outcome.is_complete());
        assert_eq!(report_bytes(&clean), report_bytes(&survivor.outcome));
    }

    /// The zombie scenario: a worker stalls inside a cell past its TTL
    /// (its renewal heartbeat killed by the armed fault), a survivor
    /// steals the cell at a higher epoch, and the zombie's late commit is
    /// rejected by epoch fencing — the merge never sees it, and the
    /// final reports stay byte-identical to the clean run.
    #[test]
    fn zombie_commit_is_fenced_and_the_merge_stays_clean() {
        let _serial = serial();
        let spec = tiny_spec();
        let clean = Campaign::new(spec.clone()).run(None).unwrap();
        let manifest = scratch("dist-zombie.jsonl");
        let _ = std::fs::remove_file(&manifest);

        // First renewal attempt panics (killing the heartbeat), and the
        // first cell in grid order stalls well past the 150ms TTL.
        let plan = checked_plan(
            "seed=13;lease.renew@1=panic;campaign.cell.run[One/nsga2/min-energy/r0]@1=delay:700",
        );
        let before = injected_total();
        let _armed = armed(plan);

        let zombie_spec = spec.clone();
        let zombie_manifest = manifest.clone();
        let zombie = std::thread::spawn(move || {
            Worker::new(Campaign::new(zombie_spec), "zombie")
                .lease_ttl(Duration::from_millis(150))
                .skew_slack(0.0)
                .run(&zombie_manifest)
                .unwrap()
        });

        // Wait past the zombie's deadline, then take over the grid while
        // it is still stalled inside the delayed cell.
        std::thread::sleep(Duration::from_millis(300));
        let survivor = Worker::new(Campaign::new(spec), "survivor")
            .skew_slack(0.0)
            .run(&manifest)
            .unwrap();
        let zombie = zombie.join().unwrap();
        let _ = std::fs::remove_file(&manifest);

        assert_eq!(injected_total() - before, 2, "renew panic + cell delay");
        assert_eq!(survivor.stolen, 1, "the stalled cell was taken over");
        assert_eq!(zombie.fenced, 1, "the zombie's late commit was discarded");
        assert_eq!(
            zombie.executed + survivor.executed,
            8,
            "every cell merged exactly once"
        );
        assert!(zombie.outcome.is_complete());
        assert!(survivor.outcome.is_complete());
        assert_eq!(report_bytes(&clean), report_bytes(&survivor.outcome));
        assert_eq!(report_bytes(&clean), report_bytes(&zombie.outcome));
    }
}

mod streaming {
    use super::{armed, checked_plan, injected_total, scratch, serial};
    use hetsched::core::{
        EngineStreamSpec, HorizonConfig, OptimizerSpec, StreamConfig, StreamRunner,
    };
    use hetsched::prelude::*;
    use hetsched::workload::{ArrivalSpec, ArrivalStream, TufPolicy};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn stream_config() -> StreamConfig {
        StreamConfig {
            horizon: HorizonConfig {
                horizon: 20.0,
                energy_budget: f64::INFINITY,
            },
            optimizer: OptimizerSpec::Engine(EngineStreamSpec {
                engine: EngineConfig::builder()
                    .algorithm(Algorithm::Nsga2)
                    .population(10)
                    .mutation_rate(0.08)
                    .generations(4)
                    .parallel(false)
                    .build()
                    .unwrap(),
                seed_kind: SeedKind::MinMinCompletionTime,
                rng_seed: 0xC4405,
                stream: 0,
                warm_start: true,
            }),
        }
    }

    fn arrivals() -> ArrivalStream {
        ArrivalStream::new(
            ArrivalSpec::poisson(1.5).unwrap(),
            13,
            hetsched::data::real_system().task_type_count(),
            TufPolicy::essc_default(),
        )
    }

    /// Drives a manifested stream until an injected fault kills it, then
    /// resumes from the manifest and verifies the finished stream is
    /// byte-identical to an uninjected in-memory run.
    fn kill_and_resume(tag: &str, plan: &str, expected_resumed_ticks: usize) {
        let _serial = serial();
        let config = stream_config();

        // Uninjected reference (no manifest, same arrivals).
        let mut clean = StreamRunner::new(hetsched::data::real_system(), config).unwrap();
        clean.drive(&mut arrivals(), 80.0).unwrap();

        // Durable run killed mid-stream by the armed fault.
        let manifest = scratch(tag);
        let _ = std::fs::remove_file(&manifest);
        let plan = checked_plan(plan);
        let before = injected_total();
        {
            let _armed = armed(plan);
            let mut doomed =
                StreamRunner::resume(hetsched::data::real_system(), config, &manifest).unwrap();
            let killed = catch_unwind(AssertUnwindSafe(|| doomed.drive(&mut arrivals(), 80.0)));
            assert!(killed.is_err(), "the armed fault must kill the stream");
        }
        assert_eq!(injected_total() - before, 1, "exactly one fault fired");

        // Resume with no faults armed: the manifest replays the committed
        // prefix, and the continued stream matches the clean run exactly.
        let mut resumed =
            StreamRunner::resume(hetsched::data::real_system(), config, &manifest).unwrap();
        assert_eq!(resumed.scheduler().ticks(), expected_resumed_ticks);
        resumed.drive(&mut arrivals(), 80.0).unwrap();
        let _ = std::fs::remove_file(&manifest);

        assert_eq!(
            serde_json::to_string(clean.scheduler().timeline()).unwrap(),
            serde_json::to_string(resumed.scheduler().timeline()).unwrap(),
            "manifest replay must re-commit a byte-identical schedule"
        );
        assert_eq!(clean.scheduler().records(), resumed.scheduler().records());
    }

    #[test]
    fn stream_killed_mid_commit_resumes_byte_identically() {
        // The panic fires inside tick 2's commit, before its manifest line
        // is appended: the manifest holds two committed ticks plus tick
        // 2's feed, which resume replays before re-running the tick.
        kill_and_resume("stream-commit.jsonl", "scheduler.horizon.commit@3=panic", 2);
    }

    #[test]
    fn stream_killed_mid_feed_resumes_byte_identically() {
        // The panic fires entering the second feed, before any of its
        // tasks are recorded: the manifest holds exactly one fed-and-
        // committed horizon.
        kill_and_resume("stream-feed.jsonl", "arrivals.feed@2=panic", 1);
    }
}

#[test]
fn telemetry_accounts_for_poisoned_cells_and_injected_faults() {
    let _serial = serial();
    // Both attempts of one cell panic: the cell exhausts its budget and
    // is quarantined.
    let plan = checked_plan("campaign.cell.run[One/spea2/min-energy/r0]@1x2=panic");
    let registry = Arc::new(MetricsRegistry::new());
    let before = injected_total();
    let outcome = {
        let _armed = armed(plan);
        Campaign::new(tiny_spec())
            .attempts(2)
            .retry_backoff(Duration::ZERO, Duration::ZERO)
            .with_telemetry(Arc::clone(&registry))
            .run(None)
            .unwrap()
    };
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].outcome, CellOutcome::Poisoned);
    assert_eq!(outcome.failed[0].attempts, 2);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.cells_poisoned, 1);
    assert_eq!(snapshot.cells_timed_out, 0);
    assert_eq!(snapshot.cells_failed, 1);
    // Global counter: exactly the two planned panics fired during the
    // run, and the snapshot carries the cumulative total.
    assert_eq!(injected_total() - before, 2);
    assert_eq!(snapshot.faults_injected, injected_total());
}
