//! Seeded inputs shared by the workloads, and the serial zero-latency
//! reference every service verdict is checked against.

use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditOutcome, HashRing, JobReport, JobSpec};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::{catalogs, Dataset, DatasetBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Coverage threshold of the census audit.
pub const CENSUS_TAU: usize = 50;
/// Virtual points per node on the fleet's ring (the service default).
pub const RING_REPLICAS: usize = 32;
/// Group-Coverage tasks for `female` on the Table 1 FERET slice (215 F /
/// 1307 M, τ = n = 50, rating QC, seed 1000), pinned: a change to what
/// the algorithm buys shows here first.
pub const TABLE1_GC_TASKS: u64 = 69;

/// A deterministic simulated crowd over `data`: rating quality control,
/// per-question seeding, so every interleaving gets the same answers.
pub fn platform(data: &Dataset, seed: u64) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        data.schema().clone(),
        workers,
        QualityControl::with_rating(),
        seed,
    )
}

/// The census giant-audit population: gender × race × age, 2762 objects
/// in a seeded order.
pub fn census_dataset(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng)
}

/// The census pool cut by ring ownership into one Intersectional-Coverage
/// job per node.
pub fn census_shards(data: &Dataset, nodes: usize) -> Vec<JobSpec> {
    let ring = HashRing::new(nodes, RING_REPLICAS);
    let mut pools: Vec<Vec<ObjectId>> = vec![Vec::new(); nodes];
    for object in data.all_ids() {
        pools[ring.owner_of(object)].push(object);
    }
    pools
        .into_iter()
        .enumerate()
        .map(|(shard, pool)| {
            JobSpec::new(
                format!("census/shard-{shard}"),
                pool,
                AuditKind::IntersectionalCoverage {
                    schema: giant_audit_schema(),
                },
            )
            .tau(CENSUS_TAU)
            .seed(shard as u64)
        })
        .collect()
}

fn face_schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").expect("attribute"),
        Attribute::binary("skin", "light", "dark").expect("attribute"),
    ])
    .expect("schema")
}

/// A FERET-flavoured face population of about `objects` images (gender ×
/// skin, 12 % female, 3 % dark-skinned) in a seeded order.
pub fn tenant_dataset(seed: u64, objects: usize) -> Dataset {
    // male-light, male-dark, female-light, female-dark per 1580 images.
    let shares = [1337, 28, 195, 20];
    let counts: Vec<usize> = shares.iter().map(|s| s * objects / 1580).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    DatasetBuilder::new(face_schema())
        .counts(&counts)
        .build(&mut rng)
}

/// `jobs` audit jobs from nine tenant templates (press / ngo / lab /
/// vendor, all five algorithms). Job `k` audits a window of `window`
/// objects that starts half a window after job `k-1`'s, plus seeded
/// jitter, so each pool overlaps its neighbours and store reuse holds at a
/// steady share instead of climbing. The first window starts at object 0;
/// windows wrap around the first `usable` objects, and the rest of the
/// dataset lies outside every pool.
pub fn tenant_specs(
    data: &Dataset,
    seed: u64,
    jobs: usize,
    window: usize,
    usable: usize,
) -> Vec<JobSpec> {
    let schema = face_schema();
    let pattern = |attr: &str, value: &str| schema.pattern(&[(attr, value)]).expect("pattern");
    let female = Target::group(pattern("gender", "female"));
    let dark = Target::group(pattern("skin", "dark"));
    let span = usable - window;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x007e_4a17);
    let mut start = 0;
    (0..jobs)
        .map(|k| {
            let pool: Vec<ObjectId> = (start..start + window)
                .map(|i| ObjectId(i as u32))
                .collect();
            start = (start + window / 2 + rng.gen_range(0..window / 8)) % span;
            let (name, kind, tau) = match k % 9 {
                0 => (
                    "press/female-50",
                    AuditKind::GroupCoverage {
                        target: female.clone(),
                    },
                    50,
                ),
                1 => (
                    "press/dark-50",
                    AuditKind::GroupCoverage {
                        target: dark.clone(),
                    },
                    50,
                ),
                2 => (
                    "ngo/base-female",
                    AuditKind::BaseCoverage {
                        target: female.clone(),
                    },
                    20,
                ),
                3 => (
                    "lab/genders",
                    AuditKind::MultipleCoverage {
                        groups: vec![pattern("gender", "male"), pattern("gender", "female")],
                    },
                    50,
                ),
                4 => (
                    "lab/intersections",
                    AuditKind::IntersectionalCoverage {
                        schema: schema.clone(),
                    },
                    50,
                ),
                5 => {
                    // A high-precision classifier: the first 20 true
                    // females of the window.
                    let predicted = pool
                        .iter()
                        .copied()
                        .filter(|id| female.matches(&data.labels_of(*id)))
                        .take(20)
                        .collect();
                    (
                        "vendor/classifier",
                        AuditKind::ClassifierCoverage {
                            target: female.clone(),
                            predicted,
                        },
                        50,
                    )
                }
                6 => (
                    "press/female-30",
                    AuditKind::GroupCoverage {
                        target: female.clone(),
                    },
                    30,
                ),
                7 => (
                    "lab/skins",
                    AuditKind::MultipleCoverage {
                        groups: vec![pattern("skin", "light"), pattern("skin", "dark")],
                    },
                    50,
                ),
                _ => (
                    "press/dark-80",
                    AuditKind::GroupCoverage {
                        target: dark.clone(),
                    },
                    80,
                ),
            };
            JobSpec::new(format!("{name}#{k}"), pool, kind)
                .tau(tau)
                .seed(k as u64)
        })
        .collect()
}

/// What a job must report whatever serves it: the outcome and the logical
/// ledger, as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub outcome: String,
    pub ledger: String,
    /// Logical ledger tasks (the questions the algorithm asked).
    pub questions: u64,
}

impl Verdict {
    /// The verdict a service report carries, or `None` when the job did
    /// not finish `Done`.
    pub fn of_report(report: &JobReport) -> Option<Self> {
        if report.status != coverage_service::JobStatus::Done {
            return None;
        }
        let outcome = report.outcome.as_ref()?;
        Some(Self {
            outcome: serde_json::to_string(outcome).expect("outcome serializes"),
            ledger: serde_json::to_string(&report.ledger).expect("ledger serializes"),
            questions: report.ledger.total_tasks(),
        })
    }
}

/// Runs `spec` serially through its `coverage-core` algorithm on `source`
/// with no service, store or latency: the reference verdict, and the
/// engine time it took in milliseconds.
pub fn reference<S: AnswerSource>(spec: &JobSpec, source: S) -> (Verdict, f64) {
    let started = Instant::now();
    let mut engine = Engine::with_point_batch(source, spec.n);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let config = MultipleConfig {
        tau: spec.tau,
        n: spec.n,
        ..MultipleConfig::default()
    };
    let outcome = match &spec.kind {
        AuditKind::BaseCoverage { target } => {
            base_coverage(&mut engine, &spec.pool, target, spec.tau)
                .map(AuditOutcome::Coverage)
                .ok()
        }
        AuditKind::GroupCoverage { target } => group_coverage(
            &mut engine,
            &spec.pool,
            target,
            spec.tau,
            spec.n,
            &DncConfig::default(),
        )
        .map(AuditOutcome::Coverage)
        .ok(),
        AuditKind::MultipleCoverage { groups } => {
            multiple_coverage(&mut engine, &spec.pool, groups, &config, &mut rng)
                .map(AuditOutcome::Multiple)
                .ok()
        }
        AuditKind::IntersectionalCoverage { schema } => {
            intersectional_coverage(&mut engine, &spec.pool, schema, &config, &mut rng)
                .map(AuditOutcome::Intersectional)
                .ok()
        }
        AuditKind::ClassifierCoverage { target, predicted } => classifier_coverage(
            &mut engine,
            &spec.pool,
            predicted,
            target,
            &ClassifierConfig {
                tau: spec.tau,
                n: spec.n,
                ..ClassifierConfig::default()
            },
            &mut rng,
        )
        .map(AuditOutcome::Classifier)
        .ok(),
    }
    .unwrap_or_else(|| panic!("the reference run of `{}` cannot be refused", spec.name));
    let compute_ms = started.elapsed().as_secs_f64() * 1e3;
    let verdict = Verdict {
        outcome: serde_json::to_string(&outcome).expect("outcome serializes"),
        ledger: serde_json::to_string(engine.ledger()).expect("ledger serializes"),
        questions: engine.ledger().total_tasks(),
    };
    (verdict, compute_ms)
}

/// Group-Coverage tasks on the Table 1 FERET slice, and the §3.2 bound
/// `N/n + τ·log10 n` they must stay under.
pub fn table1_gc_tasks() -> (u64, f64) {
    const TAU: usize = 50;
    const N: usize = 50;
    let mut rng = SmallRng::seed_from_u64(1000);
    let data = catalogs::feret_215_1307(&mut rng);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    let sim = MTurkSim::new(
        &data,
        data.schema().clone(),
        workers,
        QualityControl::with_rating(),
        0,
    );
    let mut engine = Engine::with_point_batch(sim, N);
    let female = Target::group(Pattern::parse("1").expect("pattern"));
    group_coverage(
        &mut engine,
        &data.all_ids(),
        &female,
        TAU,
        N,
        &DncConfig::default(),
    )
    .expect("the simulated crowd never refuses");
    let bound = group_coverage_upper_bound(data.len(), N, TAU, LogBase::Ten);
    (engine.ledger().total_tasks(), bound)
}
