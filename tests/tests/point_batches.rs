//! A point-label batch crosses the service as one request.
//!
//! Multiple-Coverage opens with a sample of `c·τ` point labels
//! (Algorithm 6, lines 1-5). A job running alone must get the paper's HIT
//! layout for it: the whole sample reaches the dispatcher in one round and
//! goes out as `⌈c·τ/n⌉` point HITs, not one single-image HIT per label.
//! These tests pin that layout on a deterministic `MTurkSim`, through the
//! scoped `AuditService::run` and through `AuditDaemon`, and pin what a
//! budget that runs out inside a batch leaves behind.

use coverage_core::prelude::*;
use coverage_service::{
    AuditDaemon, AuditKind, AuditService, BudgetScope, DispatchStats, JobId, JobReport, JobSpec,
    JobStatus, PhaseDurations, ServiceConfig,
};
use crowd_sim::{MTurkSim, PlatformStats, PoolConfig, QualityControl, WorkerPool};
use dataset_sim::{binary_dataset, Dataset, Placement};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 19;
const TAU: usize = 40;
const N: usize = 50;
/// The phase-1 sample: `c·τ` with the paper's `c = 2`.
const SAMPLE: u64 = 2 * TAU as u64;

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    binary_dataset(600, 45, Placement::Shuffled, &mut rng)
}

fn platform(data: &Dataset) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        AttributeSchema::single_binary("attr", "majority", "minority"),
        workers,
        QualityControl::with_rating(),
        SEED,
    )
}

/// A Multiple-Coverage job over both groups of the binary attribute. The
/// service runs it without resolving super-group members, so its only
/// point labels are the phase-1 sample.
fn spec(data: &Dataset) -> JobSpec {
    JobSpec::new(
        "lab/multiple",
        data.all_ids(),
        AuditKind::MultipleCoverage {
            groups: vec![Pattern::parse("0").unwrap(), Pattern::parse("1").unwrap()],
        },
    )
    .tau(TAU)
    .n(N)
    .seed(SEED)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// The HIT layout of a lone job's run.
fn assert_lone_job_layout(report: &JobReport, dispatch: &DispatchStats, platform: &PlatformStats) {
    assert_eq!(report.status, JobStatus::Done, "{:?}", report.error);
    assert_eq!(report.ledger.point_labels(), SAMPLE);
    // The whole sample reached the dispatcher in one round...
    assert_eq!(dispatch.max_round_questions, SAMPLE);
    assert_eq!(dispatch.points_served, SAMPLE);
    // ...and went out as ⌈c·τ/n⌉ point HITs, not c·τ.
    assert_eq!(dispatch.point_hits, SAMPLE.div_ceil(N as u64));
    assert_eq!(platform.point_images, SAMPLE);
    assert_eq!(
        platform.hits_published - platform.query_hits,
        dispatch.point_hits,
        "every point HIT the platform published is one the dispatcher laid out"
    );
}

#[test]
fn lone_job_sample_goes_out_as_ceil_hits_through_the_scoped_service() {
    let data = dataset();
    let mut service = AuditService::new(config());
    let id = service.submit(spec(&data));
    let (report, source) = service.run(platform(&data));
    assert_lone_job_layout(report.job(id).unwrap(), &report.dispatch, source.stats());
}

#[test]
fn lone_job_sample_goes_out_as_ceil_hits_through_the_daemon() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let daemon = AuditDaemon::start(config(), platform(data));
    let id = daemon.submit(spec(data)).unwrap();
    daemon.drain();
    let job = daemon.report(id).unwrap();
    let (report, source) = daemon.shutdown().expect("first shutdown");
    assert_lone_job_layout(&job, &report.dispatch, source.stats());

    // The daemon path reports what the scoped path reports.
    let mut scoped = AuditService::new(config());
    let scoped_id = scoped.submit(spec(data));
    let (scoped_report, _) = scoped.run(platform(data));
    let scoped_job = scoped_report.job(scoped_id).unwrap();
    assert_eq!(normalized(&job), normalized(scoped_job));
}

/// A report without its wall-clock fields and the daemon's own job id.
fn normalized(report: &JobReport) -> String {
    let mut report = report.clone();
    report.id = JobId(0);
    report.wall_ms = 0;
    report.phases_ms = PhaseDurations::default();
    report.to_json()
}

#[test]
fn budget_running_out_inside_a_batch_keeps_the_admitted_prefix() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let daemon = AuditDaemon::start(config(), platform(data));

    // One task of budget admits one 50-image HIT of the 80-label sample.
    let capped = daemon.submit(spec(data).budget(1)).unwrap();
    daemon.drain();
    let capped = daemon.report(capped).unwrap();
    assert_eq!(
        capped.status,
        JobStatus::Exhausted {
            scope: BudgetScope::Job,
            spent: 1,
            cap: 1,
        }
    );
    assert_eq!(capped.crowd_tasks, 1);
    // The engine meters exactly the admitted prefix, and nothing else.
    assert_eq!(capped.ledger.point_labels(), N as u64);
    assert_eq!(capped.ledger.point_tasks(), 1);
    assert_eq!(capped.ledger.set_queries(), 0);
    assert_eq!(capped.reuse.forwarded, N as u64);

    // The same spec with room to finish: the admitted prefix is already
    // in the store, so only the rest of the sample is bought.
    let rerun = daemon.submit(spec(data).budget(1_000)).unwrap();
    daemon.drain();
    let rerun = daemon.report(rerun).unwrap();
    assert_eq!(rerun.status, JobStatus::Done, "{:?}", rerun.error);
    assert_eq!(rerun.ledger.point_labels(), SAMPLE);
    assert!(rerun.reuse.hits >= N as u64, "{:?}", rerun.reuse);

    let (report, source) = daemon.shutdown().expect("first shutdown");
    assert_eq!(
        source.stats().point_images,
        SAMPLE,
        "no label of the refused job's prefix was bought twice"
    );
    assert_eq!(report.dispatch.points_served, SAMPLE);
}
