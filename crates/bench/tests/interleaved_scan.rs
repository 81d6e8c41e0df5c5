//! A lone giant audit through the service, on its interleaved scan.
//!
//! One Intersectional-Coverage job over the 24-cell giant-audit census
//! (gender × race × age, τ = 50) runs alone on a deterministic `MTurkSim`.
//! Its super-group scan sends every live item's next wave as one set
//! request, so the job pays one dispatcher round per step of its longest
//! Group-Coverage run, not one per wave of every item. These tests pin
//! that through the scoped `AuditService::run` and through `AuditDaemon`,
//! against the serial engine run, and pin what a budget that runs out
//! inside the scan leaves behind.

use coverage_core::prelude::*;
use coverage_service::{
    AuditDaemon, AuditKind, AuditOutcome, AuditService, BudgetScope, DispatchStats, JobReport,
    JobSpec, JobStatus, ServiceConfig,
};
use crowd_sim::{MTurkSim, PlatformStats, PoolConfig, QualityControl, WorkerPool};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::{Dataset, DatasetBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 33;
const TAU: usize = 50;
/// Dispatcher rounds of the lone audit: one for the `c·τ` sample, one per
/// step of the interleaved scan, one for the witness-label batch. The
/// same audit scanned one item after another took 277.
const ROUNDS: u64 = 70;
/// The crowd bill of the lone audit: 2,229 set queries and 122 labels in
/// three HITs.
const CROWD_TASKS: u64 = 2_232;
/// Set queries in the scan's first request: every run's first wave.
const FIRST_REQUEST: u64 = 1_050;
/// Tasks the `c·τ = 100`-label sample costs before the scan starts.
const SAMPLE_TASKS: u64 = 2;

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng)
}

fn platform(data: &Dataset) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        giant_audit_schema(),
        workers,
        QualityControl::with_rating(),
        SEED,
    )
}

fn spec(data: &Dataset) -> JobSpec {
    JobSpec::new(
        "census/intersectional",
        data.all_ids(),
        AuditKind::IntersectionalCoverage {
            schema: giant_audit_schema(),
        },
    )
    .tau(TAU)
    .seed(5)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// The serial engine run on the same platform, no service: the outcome
/// JSON and the ledger every front door must report.
fn serial(data: &Dataset) -> (String, TaskLedger) {
    let spec = spec(data);
    let mut engine = Engine::with_point_batch(platform(data), spec.n);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let report = intersectional_coverage(
        &mut engine,
        &spec.pool,
        &giant_audit_schema(),
        &MultipleConfig {
            tau: spec.tau,
            n: spec.n,
            ..MultipleConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let outcome = AuditOutcome::Intersectional(report);
    (serde_json::to_string(&outcome).unwrap(), *engine.ledger())
}

fn lattice(report: &JobReport) -> &IntersectionalReport {
    match report.outcome.as_ref() {
        Some(AuditOutcome::Intersectional(out)) => out,
        other => panic!("expected an Intersectional-Coverage outcome, got {other:?}"),
    }
}

/// A lone audit reports the serial run's outcome and ledger, in
/// [`ROUNDS`] rounds, for [`CROWD_TASKS`] tasks.
fn assert_lone_audit(
    data: &Dataset,
    report: &JobReport,
    dispatch: &DispatchStats,
    platform: &PlatformStats,
) {
    assert_eq!(report.status, JobStatus::Done, "{:?}", report.error);
    let (outcome, ledger) = serial(data);
    assert_eq!(
        serde_json::to_string(report.outcome.as_ref().unwrap()).unwrap(),
        outcome
    );
    assert_eq!(report.ledger, ledger);
    assert_eq!(dispatch.rounds, ROUNDS);
    assert_eq!(report.crowd_tasks, CROWD_TASKS);
    assert_eq!(platform.hits_published, CROWD_TASKS);
    assert_eq!(dispatch.max_round_questions, FIRST_REQUEST);
}

#[test]
fn lone_giant_audit_shares_rounds_through_the_scoped_service() {
    let data = dataset();
    let mut service = AuditService::new(config());
    let id = service.submit(spec(&data));
    let (report, source) = service.run(platform(&data));
    assert_lone_audit(
        &data,
        report.job(id).unwrap(),
        &report.dispatch,
        source.stats(),
    );
}

#[test]
fn lone_giant_audit_shares_rounds_through_the_daemon() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let daemon = AuditDaemon::start(config(), platform(data));
    let id = daemon.submit(spec(data)).unwrap();
    daemon.drain();
    let job = daemon.report(id).unwrap();
    let (report, source) = daemon.shutdown().expect("first shutdown");
    assert_lone_audit(data, &job, &report.dispatch, source.stats());
}

/// A budget that runs out inside the scan — in its first request, and in
/// a later one — ends the job `Exhausted` at its own cap. Every group it
/// decided carries the uncapped verdict, and the same spec re-run on the
/// same daemon buys exactly what the cut run did not.
#[test]
fn budget_running_out_inside_the_scan_keeps_sound_verdicts() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let uncapped = {
        let daemon = AuditDaemon::start(config(), platform(data));
        let id = daemon.submit(spec(data)).unwrap();
        daemon.drain();
        let report = daemon.report(id).unwrap();
        daemon.shutdown();
        report
    };
    let full = lattice(&uncapped);
    let first_cut = SAMPLE_TASKS + FIRST_REQUEST / 2;
    for budget in [first_cut, 1_600] {
        let daemon = AuditDaemon::start(config(), platform(data));
        let capped = daemon.submit(spec(data).budget(budget)).unwrap();
        daemon.drain();
        let capped = daemon.report(capped).unwrap();
        assert_eq!(
            capped.status,
            JobStatus::Exhausted {
                scope: BudgetScope::Job,
                spent: budget,
                cap: budget,
            }
        );
        assert_eq!(capped.crowd_tasks, budget);
        assert_eq!(capped.ledger.total_tasks(), budget);
        let partial = lattice(&capped);
        if budget == first_cut {
            // Every run's first wave was still in flight: nothing decided.
            assert_eq!(capped.ledger.set_queries(), budget - SAMPLE_TASKS);
            assert!(partial.full_groups.is_empty());
        } else {
            assert!(!partial.full_groups.is_empty(), "a later cut decides some");
        }
        for result in &partial.full_groups {
            let verdict = full.full_groups.iter().find(|r| r.group == result.group);
            assert_eq!(Some(result), verdict, "budget {budget}");
        }
        for pattern in &partial.patterns {
            let verdict = full.coverage_of(&pattern.pattern).unwrap();
            assert_eq!(pattern.covered, verdict.covered, "budget {budget}");
        }

        let rerun = daemon.submit(spec(data)).unwrap();
        daemon.drain();
        let rerun = daemon.report(rerun).unwrap();
        assert_eq!(rerun.status, JobStatus::Done, "{:?}", rerun.error);
        assert_eq!(
            serde_json::to_string(rerun.outcome.as_ref().unwrap()).unwrap(),
            serde_json::to_string(uncapped.outcome.as_ref().unwrap()).unwrap()
        );
        assert_eq!(rerun.ledger, uncapped.ledger);
        assert_eq!(capped.crowd_tasks + rerun.crowd_tasks, CROWD_TASKS);
        let (_, source) = daemon.shutdown().expect("first shutdown");
        assert_eq!(
            source.stats().hits_published,
            CROWD_TASKS,
            "no question of the cut run was bought twice"
        );
    }
}
