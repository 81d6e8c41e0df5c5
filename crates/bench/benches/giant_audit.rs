//! Scale-out of ONE giant audit: the interleaved Intersectional-Coverage
//! super-group scan over the lock-striped knowledge store, measured on a
//! single high-arity tenant.
//!
//! Complements `service_throughput` (which scales *across* jobs): here
//! there is exactly one job, one runner thread, and a simulated platform
//! round-trip, so the wall-clock is the job's dispatcher rounds — every
//! live scan item's next wave shares one round. The sweep runs the store
//! striped 1, 2, 4 and 8 ways. The instrumented `emit_scaleout_report`
//! target asserts that the stripe count moves no outcome, ledger or round,
//! and records the curve and the dense-vs-HashMap `mups_from_counts`
//! timings in `results/BENCH_scaleout.json` (the `giant_audit` example
//! writes its own section; CI surfaces both).

use coverage_core::mup::FullGroupCounts;
use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditService, JobId, JobSpec, ServiceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use cvg_bench::report::{bench_scaleout_path, json_object, update_json_report};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::Dataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::time::{Duration, Instant};

const SEED: u64 = 33;
const TAU: usize = 50;
const ROUND_LATENCY: Duration = Duration::from_micros(300);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    dataset_sim::DatasetBuilder::new(giant_audit_schema())
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

/// One giant audit at `shards` store stripes: the run's wall-clock
/// milliseconds, and what must not depend on the stripe count — the
/// outcome JSON, the logical ledger and the dispatcher rounds.
fn run_giant(data: &Dataset, shards: usize) -> (u64, (String, TaskLedger, u64)) {
    let mut service = AuditService::new(ServiceConfig {
        workers: 1,
        round_latency: ROUND_LATENCY,
        store_shards: shards,
        ..ServiceConfig::default()
    });
    service.submit(
        JobSpec::new(
            "census/intersectional",
            data.all_ids(),
            AuditKind::IntersectionalCoverage {
                schema: giant_audit_schema(),
            },
        )
        .tau(TAU)
        .seed(5),
    );
    let (report, _platform) = service.run(platform(data));
    let job = report.job(JobId(0)).unwrap();
    assert!(job.status.is_done(), "{}", report.to_json());
    let outcome = serde_json::to_string(job.outcome.as_ref().unwrap()).unwrap();
    (
        report.wall_ms,
        (outcome, job.ledger, report.dispatch.rounds),
    )
}

fn bench_giant_audit_shards(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("giant_audit/intersectional_2x4x3");
    for shards in SHARD_COUNTS {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| run_giant(&data, shards))
        });
    }
    group.finish();
}

fn mup_bench_inputs() -> (AttributeSchema, FullGroupCounts) {
    let schema = AttributeSchema::new(vec![
        Attribute::new("a", ["0", "1", "2", "3", "4"]).unwrap(),
        Attribute::new("b", ["0", "1", "2", "3", "4"]).unwrap(),
        Attribute::new("c", ["0", "1", "2", "3", "4"]).unwrap(),
    ])
    .unwrap();
    let graph = PatternGraph::new(&schema);
    let counts: FullGroupCounts = graph
        .full_groups()
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, if i % 7 == 0 { 12 } else { 80 + i % 40 }))
        .collect();
    (schema, counts)
}

/// Not a timing benchmark: one instrumented sweep recorded as the
/// `giant_audit_bench` section of `results/BENCH_scaleout.json`, so the
/// scale-out trajectory is tracked across PRs by CI's bench smoke step.
fn emit_scaleout_report(_c: &mut Criterion) {
    let data = dataset();
    let mut rows = Vec::new();
    let mut walls = Vec::new();
    let mut baseline = None;
    for shards in SHARD_COUNTS {
        let (wall_ms, run) = run_giant(&data, shards);
        let baseline = baseline.get_or_insert_with(|| run.clone());
        assert_eq!(
            &run, baseline,
            "{shards} store shards moved the outcome, ledger or rounds"
        );
        walls.push((shards, wall_ms));
        rows.push(json_object(vec![
            ("shards", Value::UInt(shards as u64)),
            ("wall_ms", Value::UInt(wall_ms)),
        ]));
    }
    let rounds = baseline.map_or(0, |(_, _, rounds)| rounds);
    let (schema, counts) = mup_bench_inputs();
    const ITERS: u32 = 100;
    let started = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(mups_from_counts(&schema, &counts, TAU));
    }
    let dense_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(mups_from_counts_baseline(&schema, &counts, TAU));
    }
    let hashmap_ns = started.elapsed().as_nanos() as u64;
    let section = json_object(vec![
        (
            "round_latency_us",
            Value::UInt(ROUND_LATENCY.as_micros() as u64),
        ),
        ("dispatch_rounds", Value::UInt(rounds)),
        ("shard_scaling", Value::Array(rows)),
        ("mups_dense_ns", Value::UInt(dense_ns)),
        ("mups_hashmap_ns", Value::UInt(hashmap_ns)),
    ]);
    update_json_report(bench_scaleout_path(), "giant_audit_bench", section)
        .expect("write BENCH_scaleout.json");
    println!(
        "giant_audit scale-out: {} dispatcher rounds, {:?} (ms by shard count), mups dense/hashmap {:.2}x, recorded in {}",
        rounds,
        walls,
        hashmap_ns as f64 / dense_ns.max(1) as f64,
        bench_scaleout_path().display(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_giant_audit_shards, emit_scaleout_report
}
criterion_main!(benches);
