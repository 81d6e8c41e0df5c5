//! One giant audit: the scale-out tour.
//!
//! A single high-arity tenant — Intersectional-Coverage over gender × race
//! × age (24 cells, 60 lattice patterns) on one simulated crowd platform —
//! is run with the knowledge store lock-striped 1, 2, 4 and 8 ways. Its
//! super-group scan is interleaved: every live scan item's next wave shares
//! one set request, so the job pays the dispatcher rounds of its longest
//! Group-Coverage run. The audit's verdicts, MUPs, logical ledger and
//! dispatcher rounds are asserted identical across all four runs: the
//! stripe count is a contention knob, never a cost.
//!
//! The tour closes with the dense-lattice `mups_from_counts` against the
//! historical `HashMap`-keyed baseline on a 3-attribute schema — the dense
//! path must win — and records everything in `results/BENCH_scaleout.json`.
//!
//! ```sh
//! cargo run --release -p cvg-examples --bin giant_audit
//! ```

use coverage_core::mup::FullGroupCounts;
use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditService, JobId, JobSpec, JobStatus, ServiceConfig};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use cvg_bench::report::{bench_scaleout_path, json_object, update_json_report};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::{Dataset, DatasetBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::time::{Duration, Instant};

const SEED: u64 = 33;
const TAU: usize = 50;
/// Simulated crowd round trip per dispatcher round.
const ROUND_LATENCY: Duration = Duration::from_micros(2500);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// What one run of the giant audit reports.
struct Run {
    outcome: String,
    ledger: TaskLedger,
    rounds: u64,
    wall_ms: u64,
    reuse: ReuseStats,
}

/// Runs the one giant audit with `shards` store stripes.
fn run_sharded(data: &Dataset, shards: usize) -> Run {
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
    let job = report.job(JobId(0)).expect("job reported");
    assert_eq!(job.status, JobStatus::Done, "{}", report.to_json());
    Run {
        outcome: serde_json::to_string(job.outcome.as_ref().expect("outcome"))
            .expect("outcome serializes"),
        ledger: job.ledger,
        rounds: report.dispatch.rounds,
        wall_ms: report.wall_ms,
        reuse: job.reuse,
    }
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let data = DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng);
    println!(
        "=== one giant audit: {} objects, {} cells, tau {} ===",
        data.len(),
        giant_audit_counts().len(),
        TAU
    );

    let mut walls: Vec<(usize, u64)> = Vec::new();
    let mut baseline: Option<Run> = None;
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "shards", "wall ms", "rounds", "tasks", "reuse hits", "forwarded"
    );
    for shards in SHARD_COUNTS {
        let run = run_sharded(&data, shards);
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10}",
            shards,
            run.wall_ms,
            run.rounds,
            run.ledger.total_tasks(),
            run.reuse.hits,
            run.reuse.forwarded
        );
        walls.push((shards, run.wall_ms));
        match &baseline {
            None => baseline = Some(run),
            Some(base) => {
                assert_eq!(
                    run.outcome, base.outcome,
                    "{shards} shards changed the audit outcome"
                );
                assert_eq!(
                    run.ledger, base.ledger,
                    "{shards} shards changed the logical ledger"
                );
                assert_eq!(
                    run.rounds, base.rounds,
                    "{shards} shards changed the dispatcher rounds"
                );
            }
        }
    }
    let rounds = baseline.as_ref().map_or(0, |run| run.rounds);

    // Dense lattice vs the HashMap baseline on a 3-attribute schema: same
    // MUPs, and the dense path must be measurably faster.
    let schema = AttributeSchema::new(vec![
        Attribute::new("a", ["0", "1", "2", "3", "4"]).expect("attribute"),
        Attribute::new("b", ["0", "1", "2", "3", "4"]).expect("attribute"),
        Attribute::new("c", ["0", "1", "2", "3", "4"]).expect("attribute"),
    ])
    .expect("schema");
    let graph = PatternGraph::new(&schema);
    let counts: FullGroupCounts = graph
        .full_groups()
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, if i % 7 == 0 { 12 } else { 80 + i % 40 }))
        .collect();
    const ITERS: u32 = 200;
    let started = Instant::now();
    let mut dense_mups = Vec::new();
    for _ in 0..ITERS {
        dense_mups = mups_from_counts(&schema, &counts, TAU);
    }
    let dense_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let mut baseline_mups = Vec::new();
    for _ in 0..ITERS {
        baseline_mups = mups_from_counts_baseline(&schema, &counts, TAU);
    }
    let hashmap_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(dense_mups, baseline_mups, "detectors must agree");
    assert!(
        dense_ns < hashmap_ns,
        "dense mups_from_counts ({dense_ns} ns) must beat the HashMap baseline ({hashmap_ns} ns)"
    );
    println!(
        "mups_from_counts on 5x5x5 ({} patterns): dense {:.2} ms vs hashmap {:.2} ms ({:.1}x) over {ITERS} iters",
        graph.len(),
        dense_ns as f64 / 1e6,
        hashmap_ns as f64 / 1e6,
        hashmap_ns as f64 / dense_ns.max(1) as f64,
    );

    let shard_rows: Vec<Value> = walls
        .iter()
        .map(|(shards, wall_ms)| {
            json_object(vec![
                ("shards", Value::UInt(*shards as u64)),
                ("wall_ms", Value::UInt(*wall_ms)),
            ])
        })
        .collect();
    let section = json_object(vec![
        ("objects", Value::UInt(data.len() as u64)),
        ("cells", Value::UInt(giant_audit_counts().len() as u64)),
        ("tau", Value::UInt(TAU as u64)),
        ("dispatch_rounds", Value::UInt(rounds)),
        ("shard_scaling", Value::Array(shard_rows)),
        ("mups_dense_ns", Value::UInt(dense_ns)),
        ("mups_hashmap_ns", Value::UInt(hashmap_ns)),
        (
            "mups_speedup",
            Value::Str(format!("{:.2}", hashmap_ns as f64 / dense_ns.max(1) as f64)),
        ),
    ]);
    update_json_report(bench_scaleout_path(), "giant_audit", section)
        .expect("write BENCH_scaleout.json");
    println!(
        "scale-out metrics recorded in {}",
        bench_scaleout_path().display()
    );
}
