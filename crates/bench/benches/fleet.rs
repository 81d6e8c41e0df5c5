//! Fleet scale-out of the census giant audit: the consistent-hash ring
//! partitions the high-arity census pool into M disjoint shards, one
//! Intersectional-Coverage job each, and an M-node fleet runs the shards
//! in parallel where a single node runs them back to back.
//!
//! Both arms use the *same* per-job configuration (one worker per node,
//! 8 store shards, the same simulated platform round-trip), so the only
//! measured variable is fleet parallelism. The shards are disjoint, so
//! the crowd bill may grow by at most one pool-independent question per
//! extra node — pinned as an assertion — and
//! the instrumented run records the `{m, wall_ms, crowd_tasks}` curve as
//! the `fleet_bench` section of `results/BENCH_fleet.json`, with the
//! M=4-beats-single-node headline asserted. Each multi-node row also
//! records the anti-entropy bytes of the busiest link against one
//! whole-store ship, and asserts that no link carries more than 1.25× a
//! whole-store ship per audit: the exchange ships deltas, not stores.

use coverage_core::prelude::*;
use coverage_service::fleet::{FleetDelta, FleetJobId, FleetNode, FleetRouter, HashRing};
use coverage_service::{AuditKind, JobSpec, JobStatus, ServiceConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use cvg_bench::report::{bench_fleet_path, json_object, update_json_report};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::Dataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 77;
const TAU: usize = 50;
const RING_REPLICAS: usize = 32;
const ROUND_LATENCY: Duration = Duration::from_micros(300);
/// Fleet sizes measured; the last one is the headline M=4 arm.
const FLEETS: [usize; 3] = [1, 2, 4];
/// Anti-entropy cadence of every node.
const ANTI_ENTROPY: Duration = Duration::from_millis(500);
/// The most one link may carry per audit, in whole-store ships.
const LINK_BYTES_BOUND: f64 = 1.25;
/// The ring every arm shards the pool with — the M=4 fleet's own ring,
/// so in that arm every job lands on the node that owns its entire pool.
const SHARDS: usize = 4;

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    dataset_sim::DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng)
}

/// The census pool cut into [`SHARDS`] disjoint sub-pools by ring
/// ownership, one Intersectional-Coverage job per shard.
fn shard_specs(data: &Dataset) -> Vec<JobSpec> {
    let ring = HashRing::new(SHARDS, RING_REPLICAS);
    let mut pools: Vec<Vec<ObjectId>> = vec![Vec::new(); SHARDS];
    for object in data.all_ids() {
        pools[ring.owner_of(object)].push(object);
    }
    pools
        .into_iter()
        .enumerate()
        .map(|(shard, pool)| {
            assert!(!pool.is_empty(), "ring left shard {shard} empty");
            JobSpec::new(
                format!("census/shard-{shard}"),
                pool,
                AuditKind::IntersectionalCoverage {
                    schema: giant_audit_schema(),
                },
            )
            .tau(TAU)
            .seed(shard as u64)
        })
        .collect()
}

/// One measured arm's figures.
struct Arm {
    /// Wall-clock around submit→drain only, node startup and teardown
    /// excluded.
    wall_ms: u64,
    crowd_tasks: u64,
    /// `/fleet/delta` body bytes of the busiest link once the fleet has
    /// converged (0 for one node).
    link_bytes: u64,
    /// One whole-store ship of the converged fact base.
    store_bytes: u64,
}

/// Waits until every node holds the same facts and two more rounds have
/// carried any relay still in flight, then returns the busiest link's
/// `audit_fleet_delta_bytes_total` and the size of one whole-store ship.
fn settled_link_bytes(nodes: &[FleetNode<SharedTruthSource<Dataset>>]) -> (u64, u64) {
    let started = Instant::now();
    let store = loop {
        let stores: Vec<_> = nodes.iter().map(|n| n.daemon().export_store()).collect();
        if stores.windows(2).all(|pair| {
            pair[0].delta_since(&pair[1]).is_empty() && pair[1].delta_since(&pair[0]).is_empty()
        }) {
            break stores.into_iter().next().expect("a fleet has a node");
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the fleet never converged"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    std::thread::sleep(ANTI_ENTROPY * 2);
    let link_bytes = nodes
        .iter()
        .flat_map(|node| {
            let page = node.daemon().telemetry().render_prometheus();
            page.lines()
                .filter(|line| line.starts_with("audit_fleet_delta_bytes_total{"))
                .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
                .collect::<Vec<_>>()
        })
        .max()
        .unwrap_or(0);
    let whole = serde_json::to_string(&FleetDelta {
        from: nodes[0].name().to_string(),
        store,
    })
    .expect("a store serializes");
    (link_bytes, whole.len() as u64)
}

/// One measured arm: the four shard jobs routed over an `m`-node fleet.
fn run_fleet(data: &Arc<Dataset>, m: usize) -> Arm {
    let nodes: Vec<FleetNode<SharedTruthSource<Dataset>>> = (0..m)
        .map(|i| {
            FleetNode::start(
                format!("node{i}"),
                "127.0.0.1:0",
                ServiceConfig {
                    workers: 1,
                    store_shards: 8,
                    round_latency: ROUND_LATENCY,
                    anti_entropy_ms: ANTI_ENTROPY.as_millis() as u64,
                    ..ServiceConfig::default()
                },
                SharedTruthSource::new(Arc::clone(data)),
            )
            .expect("fleet node binds")
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(FleetNode::addr).collect();
    if m > 1 {
        for (i, node) in nodes.iter().enumerate() {
            node.join(
                (0..m)
                    .filter(|j| *j != i)
                    .map(|j| addrs[j])
                    .collect::<Vec<_>>(),
            );
        }
    }
    let router = FleetRouter::new(addrs, RING_REPLICAS);

    let started = Instant::now();
    let placed: Vec<FleetJobId> = shard_specs(data)
        .iter()
        .map(|spec| router.submit(spec).expect("fleet accepts the shard job"))
        .collect();
    router.drain();
    for id in &placed {
        let report = router
            .report(*id)
            .expect("owning node reachable")
            .expect("drained fleet has terminal reports");
        assert_eq!(report.status, JobStatus::Done, "{}", report.to_json());
    }
    let wall_ms = started.elapsed().as_millis() as u64;
    let (link_bytes, store_bytes) = if m > 1 {
        settled_link_bytes(&nodes)
    } else {
        (0, 0)
    };

    let crowd_tasks = nodes
        .into_iter()
        .map(|node| node.shutdown().expect("first shutdown").0.crowd_tasks)
        .sum();
    Arm {
        wall_ms,
        crowd_tasks,
        link_bytes,
        store_bytes,
    }
}

/// Not a timing benchmark in the Criterion sense: one instrumented run
/// per fleet size, recorded as the `fleet_bench` section of
/// `results/BENCH_fleet.json`, with the spend and wall-clock invariants
/// asserted.
fn emit_fleet_report(_c: &mut Criterion) {
    let data = Arc::new(dataset());
    let mut rows = Vec::new();
    let mut walls = Vec::new();
    let mut spends = Vec::new();
    let mut links = Vec::new();
    for m in FLEETS {
        let arm = run_fleet(&data, m);
        rows.push(json_object(vec![
            ("m", Value::UInt(m as u64)),
            ("wall_ms", Value::UInt(arm.wall_ms)),
            ("crowd_tasks", Value::UInt(arm.crowd_tasks)),
            ("max_link_delta_bytes", Value::UInt(arm.link_bytes)),
            ("whole_store_bytes", Value::UInt(arm.store_bytes)),
        ]));
        assert!(
            arm.link_bytes as f64 <= LINK_BYTES_BOUND * arm.store_bytes as f64,
            "an {m}-node fleet shipped {} bytes over one link, above \
             {LINK_BYTES_BOUND}x one whole-store ship ({} bytes)",
            arm.link_bytes,
            arm.store_bytes
        );
        walls.push(arm.wall_ms);
        spends.push(arm.crowd_tasks);
        links.push((arm.link_bytes, arm.store_bytes));
    }
    // Disjoint shards share no object, so the only reuse the partition
    // can lose is on pool-independent questions — and the census audit
    // asks exactly one, which the single shared store answers once while
    // every extra node re-buys it. The bill is pinned to that bound: at
    // most m-1 extra tasks on a five-figure spend, never more.
    for (m, spend) in FLEETS.iter().zip(&spends) {
        assert!(
            *spend <= spends[0] + (*m as u64 - 1),
            "an {m}-node fleet outspent the single node by more than its \
             one pool-independent question per node: {spend} vs {}",
            spends[0]
        );
    }
    // The headline: the M=4 fleet beats the single 8-shard node on
    // wall-clock for the same giant audit.
    assert!(
        walls[FLEETS.len() - 1] < walls[0],
        "the 4-node fleet must beat the single node: {walls:?}"
    );

    let section = json_object(vec![
        ("pool", Value::UInt(data.all_ids().len() as u64)),
        ("tau", Value::UInt(TAU as u64)),
        ("shards", Value::UInt(SHARDS as u64)),
        ("ring_replicas", Value::UInt(RING_REPLICAS as u64)),
        ("fleets", Value::Array(rows)),
    ]);
    update_json_report(bench_fleet_path(), "fleet_bench", section).expect("write BENCH_fleet.json");
    println!(
        "fleet: census giant audit wall {walls:?} ms at M={FLEETS:?}, \
         spend {spends:?}, (busiest link, whole-store ship) bytes {links:?}, \
         recorded in {}",
        bench_fleet_path().display(),
    );
}

// No wall-clock Criterion group: each arm is measured directly around the
// one submit→drain window that matters, and the spend invariants are
// correctness pins — re-sampling them adds no signal.
criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = emit_fleet_report
}
criterion_main!(benches);
