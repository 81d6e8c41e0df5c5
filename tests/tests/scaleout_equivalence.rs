//! Scale-out equivalence: sharding the knowledge store is a pure
//! contention knob.
//!
//! The contract under test: for a consistent answer source, every one of
//! the paper's five drivers run against a **sharded**
//! [`SharedKnowledgeSource`] produces outcomes and logical [`TaskLedger`]s
//! **byte-identical** to the single-shard baseline; and for a serial
//! service run, the shard count does not move the [`ReuseStats`]-metered
//! crowd spend by a single task. The `intra_parallelism` field older
//! clients put in a job body is accepted and ignored.

use coverage_core::classifier::{classifier_coverage, ClassifierConfig};
use coverage_core::prelude::*;
use coverage_service::http::HttpServer;
use coverage_service::{
    AuditDaemon, AuditKind, AuditService, JobId, JobSpec, JobStatus, ServiceConfig, ServiceReport,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Deterministic pseudo-random two-attribute labeling (gender × skin).
fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
    let mut labels = Vec::with_capacity(n_total);
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(99991);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n_total {
        let a = u8::from(next() % 100 < density_pct);
        let b = u8::from(next() % 100 < 50);
        labels.push(Labels::new(&[a, b]));
    }
    VecGroundTruth::new(labels)
}

fn schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").unwrap(),
        Attribute::binary("skin", "light", "dark").unwrap(),
    ])
    .unwrap()
}

fn female() -> Target {
    Target::group(Pattern::parse("1X").unwrap())
}

/// Runs the paper's five drivers back to back on ONE engine and returns
/// every outcome serialized, ready for byte comparison.
fn full_audit<S: AnswerSource>(
    engine: &mut Engine<S>,
    truth: &VecGroundTruth,
    tau: usize,
    n: usize,
    seed: u64,
) -> Vec<String> {
    let pool = truth.all_ids();
    let target = female();
    let predicted: Vec<ObjectId> = pool
        .iter()
        .copied()
        .filter(|id| target.matches(&truth.labels_of(*id)))
        .take(3 * tau)
        .collect();
    let groups = vec![Pattern::parse("0X").unwrap(), Pattern::parse("1X").unwrap()];
    let multiple_cfg = MultipleConfig {
        tau,
        n,
        ..MultipleConfig::default()
    };
    let classifier_cfg = ClassifierConfig {
        tau,
        n,
        ..ClassifierConfig::default()
    };

    let mut outcomes = Vec::new();
    outcomes
        .push(serde_json::to_string(&base_coverage(engine, &pool, &target, tau).unwrap()).unwrap());
    outcomes.push(
        serde_json::to_string(
            &group_coverage(engine, &pool, &target, tau, n, &DncConfig::with_witnesses()).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &multiple_coverage(engine, &pool, &groups, &multiple_cfg, &mut rng).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &intersectional_coverage(engine, &pool, &schema(), &multiple_cfg, &mut rng).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &classifier_coverage(
                engine,
                &pool,
                &predicted,
                &target,
                &classifier_cfg,
                &mut rng,
            )
            .unwrap(),
        )
        .unwrap(),
    );
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All five drivers: a sharded store yields outcomes and logical
    /// ledgers byte-identical to the single-shard baseline.
    #[test]
    fn sharded_audit_matches_single_shard(
        n_total in 1usize..300,
        density_pct in 0u64..40,
        tau in 1usize..50,
        n in 1usize..64,
        seed in 0u64..1000,
        shards in 2usize..16,
    ) {
        let truth = synth_truth(n_total, density_pct, seed);

        let mut serial = Engine::with_point_batch(
            SharedKnowledgeSource::with_shards(PerfectSource::new(&truth), 1), n);
        let serial_outcomes = full_audit(&mut serial, &truth, tau, n, seed);

        let mut sharded = Engine::with_point_batch(
            SharedKnowledgeSource::with_shards(PerfectSource::new(&truth), shards), n);
        let sharded_outcomes = full_audit(&mut sharded, &truth, tau, n, seed);

        prop_assert_eq!(&serial_outcomes, &sharded_outcomes);
        prop_assert_eq!(serial.ledger(), sharded.ledger());
        // Both layers answer every logical question exactly once.
        let a = serial.source().reuse_stats();
        let b = sharded.source().reuse_stats();
        prop_assert_eq!(a.questions(), b.questions());
    }
}

/// Job bodies written by older clients carry `"intra_parallelism"` (at
/// least as `null`). The field is accepted and ignored: a high-arity audit
/// whose body carries `4`, `0` or `null` is accepted with a `201` and
/// reports byte-identically, up to wall-clock, to the same body without
/// the field.
#[test]
fn intra_parallelism_field_is_accepted_and_ignored() {
    let truth = Arc::new(synth_truth(2500, 22, 11));
    let spec = JobSpec::new(
        "giant",
        truth.all_ids(),
        AuditKind::IntersectionalCoverage { schema: schema() },
    )
    .tau(40)
    .seed(7);
    let body = serde_json::to_string(&spec).unwrap();
    let run = |body: &str| {
        let daemon = Arc::new(AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        ));
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let (code, reply) =
            coverage_service::http::http_request(server.local_addr(), "POST", "/jobs", Some(body))
                .unwrap();
        assert_eq!(code, 201, "{reply}");
        daemon.drain();
        let mut report = daemon.report(JobId(0)).unwrap();
        server.shutdown();
        assert_eq!(report.status, JobStatus::Done, "{}", report.to_json());
        report.wall_ms = 0;
        report.phases_ms = coverage_service::PhaseDurations::default();
        report.to_json()
    };
    let plain = run(&body);
    for value in ["4", "0", "null"] {
        let older = body.replacen('{', &format!("{{\"intra_parallelism\":{value},"), 1);
        assert!(older.contains("intra_parallelism"));
        assert_eq!(
            run(&older),
            plain,
            "intra_parallelism {value} changed the report"
        );
    }
}

/// Shard count never changes the `ReuseStats`-metered crowd spend: a
/// serial (one-worker, one-thread-per-job) service run is bitwise
/// deterministic, so 1, 2 and 8 store shards must produce the same
/// disposition tally, the same crowd bill, and the same job reports.
#[test]
fn shard_count_never_changes_metered_crowd_spend() {
    let truth = synth_truth(1800, 18, 3);
    let pool = truth.all_ids();
    let run = |store_shards: usize| -> ServiceReport {
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            store_shards,
            ..ServiceConfig::default()
        });
        service.submit(
            JobSpec::new(
                "group",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(30)
            .seed(1),
        );
        service.submit(
            JobSpec::new(
                "base",
                pool[..400].to_vec(),
                AuditKind::BaseCoverage { target: female() },
            )
            .tau(25)
            .seed(2),
        );
        service.submit(
            JobSpec::new(
                "lattice",
                pool.clone(),
                AuditKind::IntersectionalCoverage { schema: schema() },
            )
            .tau(35)
            .seed(3),
        );
        let (report, _) = service.run(PerfectSource::new(&truth));
        assert_eq!(report.count_status(JobStatus::Done), 3);
        report
    };
    let baseline = run(1);
    for shards in [2usize, 8] {
        let sharded = run(shards);
        assert_eq!(
            sharded.reuse, baseline.reuse,
            "{shards} shards moved the reuse tally"
        );
        assert_eq!(sharded.crowd_tasks, baseline.crowd_tasks);
        assert_eq!(sharded.total_logical, baseline.total_logical);
        for (a, b) in baseline.jobs.iter().zip(&sharded.jobs) {
            assert_eq!(a.reuse, b.reuse, "job {} reuse moved", a.name);
            assert_eq!(a.crowd_tasks, b.crowd_tasks, "job {} bill moved", a.name);
            assert_eq!(a.ledger, b.ledger, "job {} ledger moved", a.name);
        }
    }
}
