//! Group-Coverage asks its set queries in waves.
//!
//! Algorithm 1 keeps its open sets in a queue of disjoint sets, and the
//! driver asks every set query it is certain to ask next as one request.
//! A job running alone must therefore pay one dispatcher round per wave,
//! not one per set query, for the same bill. These tests pin that on the
//! Table 1 FERET slice (τ = n = 50) on a deterministic `MTurkSim`, through
//! the scoped `AuditService::run` and through `AuditDaemon`, and pin what a
//! budget that runs out inside a wave leaves behind.

use coverage_core::prelude::*;
use coverage_service::{
    AuditDaemon, AuditKind, AuditOutcome, AuditService, BudgetScope, DispatchStats, JobReport,
    JobSpec, JobStatus, ServiceConfig,
};
use crowd_sim::{MTurkSim, PlatformStats, PoolConfig, QualityControl, WorkerPool};
use dataset_sim::{catalogs, Dataset};
use integration_tests::female;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 20;
const TAU: usize = 50;
const N: usize = 50;
/// The set queries Group-Coverage asks on this slice and platform.
const SETS: u64 = 71;

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    catalogs::feret_215_1307(&mut rng)
}

fn platform(data: &Dataset) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        data.schema().clone(),
        workers,
        QualityControl::with_rating(),
        SEED,
    )
}

fn spec(data: &Dataset) -> JobSpec {
    JobSpec::new(
        "lab/group",
        data.all_ids(),
        AuditKind::GroupCoverage { target: female() },
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

/// The set queries a one-at-a-time Group-Coverage run asks on the same
/// platform: the bill a wave run must match exactly.
fn one_at_a_time_set_queries(data: &Dataset) -> u64 {
    let mut engine = Engine::with_point_batch(platform(data), N);
    let out = group_coverage(
        &mut engine,
        &data.all_ids(),
        &female(),
        TAU,
        N,
        &DncConfig::default(),
    )
    .unwrap();
    out.set_queries
}

fn coverage(report: &JobReport) -> &GroupCoverageOutcome {
    match report.outcome.as_ref() {
        Some(AuditOutcome::Coverage(out)) => out,
        other => panic!("expected a Group-Coverage outcome, got {other:?}"),
    }
}

/// The round layout of a lone Group-Coverage job.
fn assert_lone_job_waves(
    data: &Dataset,
    report: &JobReport,
    dispatch: &DispatchStats,
    platform: &PlatformStats,
) {
    assert_eq!(report.status, JobStatus::Done, "{:?}", report.error);
    assert!(coverage(report).covered, "215 females cover τ = 50");
    // The same bill as asking one set at a time...
    let sets = report.ledger.set_queries();
    assert_eq!(sets, one_at_a_time_set_queries(data));
    assert_eq!(sets, SETS);
    assert_eq!(report.crowd_tasks, sets);
    assert_eq!(dispatch.set_queries_served, sets);
    assert_eq!(platform.query_hits, sets);
    // ...asked in five rounds, not 71: three waves went out as one
    // coalesced platform call each, and two waves held a single set.
    assert_eq!(dispatch.rounds, 5);
    assert_eq!(dispatch.set_batches, 3);
    assert_eq!(
        dispatch.max_round_questions, 31,
        "the first wave is every root"
    );
}

#[test]
fn lone_job_pays_one_round_per_wave_through_the_scoped_service() {
    let data = dataset();
    let mut service = AuditService::new(config());
    let id = service.submit(spec(&data));
    let (report, source) = service.run(platform(&data));
    assert_lone_job_waves(
        &data,
        report.job(id).unwrap(),
        &report.dispatch,
        source.stats(),
    );
}

#[test]
fn lone_job_pays_one_round_per_wave_through_the_daemon() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let daemon = AuditDaemon::start(config(), platform(data));
    let id = daemon.submit(spec(data)).unwrap();
    daemon.drain();
    let job = daemon.report(id).unwrap();
    let (report, source) = daemon.shutdown().expect("first shutdown");
    assert_lone_job_waves(data, &job, &report.dispatch, source.stats());
}

#[test]
fn budget_running_out_inside_a_wave_keeps_the_admitted_prefix() {
    let data: &'static Dataset = Box::leak(Box::new(dataset()));
    let daemon = AuditDaemon::start(config(), platform(data));

    // Twenty tasks admit twenty of the first wave's 31 root sets.
    let capped = daemon.submit(spec(data).budget(20)).unwrap();
    daemon.drain();
    let capped = daemon.report(capped).unwrap();
    assert_eq!(
        capped.status,
        JobStatus::Exhausted {
            scope: BudgetScope::Job,
            spent: 20,
            cap: 20,
        }
    );
    assert_eq!(capped.crowd_tasks, 20);
    // The engine meters exactly the delivered sets, and nothing else.
    assert_eq!(capped.ledger.set_queries(), 20);
    assert_eq!(capped.ledger.total_tasks(), 20);
    assert_eq!(capped.reuse.forwarded, 20);
    let partial = coverage(&capped);
    assert!(!partial.covered);
    assert_eq!(partial.set_queries, 20);

    // The same spec with room to finish: the delivered sets are already
    // in the store, so only the rest of the run is bought.
    let rerun = daemon.submit(spec(data).budget(1_000)).unwrap();
    daemon.drain();
    let rerun = daemon.report(rerun).unwrap();
    assert_eq!(rerun.status, JobStatus::Done, "{:?}", rerun.error);
    assert_eq!(rerun.ledger.set_queries(), SETS);
    assert_eq!(rerun.reuse.hits, 20, "{:?}", rerun.reuse);
    assert_eq!(rerun.crowd_tasks, SETS - 20);

    let (report, source) = daemon.shutdown().expect("first shutdown");
    assert_eq!(
        source.stats().query_hits,
        SETS,
        "no set of the refused job's prefix was bought twice"
    );
    assert_eq!(report.dispatch.set_queries_served, SETS);
}

/// A per-run cap with the governor's prefix rule: a wave is admitted up
/// to the cap and the rest refused. The service's Group-Coverage jobs do
/// not collect witnesses, so the witness check runs on the core driver.
struct PrefixCap<S> {
    inner: S,
    spent: u64,
    cap: u64,
}

impl<S: AnswerSource> AnswerSource for PrefixCap<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.try_answer_sets_many(&[(objects, target)])
            .into_result()
            .map(|answers| answers[0])
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.inner.try_answer_point_labels(object)
    }

    fn try_answer_sets_many(&mut self, sets: &[SetQuery<'_>]) -> SetBatch {
        let admitted = (self.cap - self.spent).min(sets.len() as u64) as usize;
        self.spent += admitted as u64;
        let mut batch = self.inner.try_answer_sets_many(&sets[..admitted]);
        batch.slots.resize(sets.len(), None);
        if admitted < sets.len() {
            batch.error = batch
                .error
                .or(Some(AskError::BudgetExhausted(BudgetSnapshot {
                    spent: self.spent,
                    cap: self.cap,
                    shared: false,
                })));
        }
        batch
    }
}

/// Cut at every point of the run, a wave-driven run's witnesses are a
/// prefix of the uncapped run's, its ledger counts every delivered set,
/// and behind a shared store the finishing run buys only the rest.
#[test]
fn a_cut_wave_leaves_a_prefix_of_the_witnesses() {
    let data = dataset();
    let pool = data.all_ids();
    let config = DncConfig::with_witnesses();
    let run = |cap: u64, store: &SharedKnowledgeSource<()>| {
        let source = store.with_inner(PrefixCap {
            inner: platform(&data),
            spent: 0,
            cap,
        });
        let mut engine = Engine::with_point_batch(source, N);
        let out = group_coverage(&mut engine, &pool, &female(), TAU, N, &config);
        (out, *engine.ledger(), engine.source().inner().spent)
    };
    let (full, full_ledger, _) = run(u64::MAX, &SharedKnowledgeSource::new(()));
    let full = full.unwrap();
    assert_eq!(full_ledger.set_queries(), SETS);
    for cap in [0, 1, 20, 31, 40, 55, SETS - 1] {
        let store = SharedKnowledgeSource::new(());
        let (cut, ledger, spent) = run(cap, &store);
        let cut = cut.unwrap_err();
        assert!(
            matches!(cut.error, AskError::BudgetExhausted(_)),
            "cap {cap}"
        );
        assert_eq!(
            ledger.set_queries(),
            spent,
            "cap {cap}: delivered sets metered"
        );
        assert_eq!(spent, cap);
        assert!(
            full.witnesses.starts_with(&cut.partial.witnesses),
            "cap {cap}: {:?} is not a prefix of {:?}",
            cut.partial.witnesses,
            full.witnesses
        );
        let (rest, _, rest_spent) = run(u64::MAX, &store);
        assert_eq!(rest.unwrap(), full, "cap {cap}");
        assert_eq!(
            rest_spent,
            SETS - cap,
            "cap {cap}: a delivered set bought twice"
        );
    }
}
