//! `census_fleet`: the census giant audit (2762 objects, gender × race ×
//! age, τ = 50, Intersectional-Coverage) cut by the consistent-hash ring
//! into one shard job per node of a 2-node fleet, placed by
//! `FleetRouter` over HTTP. Closed loop: one router thread submits both
//! shards, then reads their status on a schedule (one read per [`POLL`]
//! on average) until both are terminal.
//! Each audit runs on a fresh fleet, so every iteration pays the crowd
//! again and sets up again.

use crate::harness::{
    peak_rss_mb, repeated_setup, reset_peak_rss, wait_ready, Metrics, Pacer, Tally, WARM_UPS,
};
use crate::layers::{self, Samples};
use crate::platform::{PlatformMeter, TimedSource};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{census_dataset, census_shards, platform, reference, Verdict, RING_REPLICAS};
use coverage_core::prelude::*;
use coverage_service::fleet::{FleetDelta, FleetJobId, FleetNode, FleetRouter};
use coverage_service::{
    AuditDaemon, AuditService, JobReport, JobSpec, ServiceConfig, ServiceReport,
};
use crowd_sim::MTurkSim;
use dataset_sim::Dataset;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 2;
/// The census population's order is pinned, so seeds compare like with
/// like; `--seed` draws the simulated crowd.
const POPULATION_SEED: u64 = 77;
/// Simulated crowd round trip per dispatcher round.
const ROUND_LATENCY: Duration = Duration::from_micros(300);
/// Mean interval of the router's status-read schedule.
const POLL: Duration = Duration::from_millis(2);
/// Timed fleet set-ups per audit; the last one runs the audit.
const SETUPS: usize = 2;

type Source = TimedSource<MTurkSim<'static, Dataset>>;

pub struct Prep {
    seed: u64,
    data: &'static Dataset,
    specs: Vec<JobSpec>,
    bodies: Vec<String>,
    expected: Vec<Verdict>,
    /// Crowd tasks of the same shards on one node: the fleet may exceed
    /// it by at most one pool-independent question per extra node.
    single_node_tasks: u64,
    engine_ms: f64,
}

/// Generates the inputs and the serial references (untimed).
pub fn prepare(seed: u64) -> Prep {
    // The fleet's sources borrow the dataset for as long as the process
    // runs.
    let data: &'static Dataset = Box::leak(Box::new(census_dataset(POPULATION_SEED)));
    let specs = census_shards(data, NODES);
    let mut expected = Vec::new();
    let mut engine_ms = 0.0;
    for spec in &specs {
        let (verdict, ms) = reference(spec, platform(data, seed));
        expected.push(verdict);
        engine_ms += ms;
    }
    let mut single = AuditService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    for spec in &specs {
        single.submit(spec.clone());
    }
    let (report, _) = single.run(platform(data, seed));
    let bodies = specs
        .iter()
        .map(|spec| serde_json::to_string(spec).expect("a spec serializes"))
        .collect();
    Prep {
        seed,
        data,
        specs,
        bodies,
        expected,
        single_node_tasks: report.crowd_tasks,
        engine_ms,
    }
}

/// The fleet's per-audit figures.
#[derive(Default)]
struct Audit {
    wall_s: f64,
    crowd_tasks: f64,
    crowd_hits: f64,
    peak_rss_mb: f64,
}

pub fn measure(
    prep: &Prep,
    seconds: f64,
    tracer: &Arc<Tracer>,
    tally: &Tally,
) -> Result<(Metrics, Metrics), String> {
    let mut audits: Vec<Audit> = Vec::new();
    let mut samples = Samples {
        round_latency_ms: ROUND_LATENCY.as_secs_f64() * 1e3,
        ..Samples::default()
    };
    let mut setups = Vec::new();
    let started = Instant::now();
    while audits.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let warm = if audits.is_empty() { WARM_UPS } else { 0 };
        audits.push(audit(prep, warm, tracer, tally, &mut samples, &mut setups)?);
    }
    let column = |f: fn(&Audit) -> f64| audits.iter().map(f).collect::<Vec<f64>>();
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setups), "s");
    e2e.put("wall_s", median(&column(|a| a.wall_s)), "s");
    e2e.put("crowd_tasks", median(&column(|a| a.crowd_tasks)), "count");
    e2e.put("crowd_hits", median(&column(|a| a.crowd_hits)), "count");
    layers::put_http(&mut e2e, &samples, layers::Pace::Paced)?;
    e2e.put("peak_rss_mb", median(&column(|a| a.peak_rss_mb)), "MB");
    samples.engine_ms.push(prep.engine_ms);
    let layer = layers::per_layer(&samples, tracer, audits.len() as f64);
    eprintln!(
        "census_fleet: {} audits on {NODES} nodes, single-node bill {} tasks",
        audits.len(),
        prep.single_node_tasks
    );
    Ok((e2e, layer))
}

fn start_node(index: usize, source: Source) -> FleetNode<Source> {
    FleetNode::start(
        format!("node{index}"),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            store_shards: 8,
            round_latency: ROUND_LATENCY,
            ..ServiceConfig::default()
        },
        source,
    )
    .expect("a fleet node binds a loopback port")
}

/// Starts the fleet, joins every node to the others and waits for each
/// `/readyz`: the nodes and the seconds that took. The simulated crowds
/// are inputs, built before the clock starts.
fn start_fleet(
    prep: &Prep,
    meter: &Arc<PlatformMeter>,
    tracer: &Arc<Tracer>,
    parent: Option<u64>,
) -> Result<(Vec<FleetNode<Source>>, f64), String> {
    let sources: Vec<Source> = (0..NODES)
        .map(|_| {
            TimedSource::new(
                platform(prep.data, prep.seed),
                Arc::clone(meter),
                Arc::clone(tracer),
            )
        })
        .collect();
    let _span = tracer.span("setup", parent);
    let started = Instant::now();
    let nodes: Vec<_> = sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| start_node(i, source))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(FleetNode::addr).collect();
    for (i, node) in nodes.iter().enumerate() {
        let peers = addrs.iter().enumerate().filter(|(j, _)| *j != i);
        node.join(peers.map(|(_, addr)| *addr).collect());
    }
    for addr in &addrs {
        wait_ready(*addr)?;
    }
    Ok((nodes, started.elapsed().as_secs_f64()))
}

/// Shuts every node down at once (each waits out its gossip sleep) and
/// returns their lifetime reports and sources.
fn stop_fleet(nodes: Vec<FleetNode<Source>>) -> Vec<(ServiceReport, Source)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|node| scope.spawn(move || node.shutdown().expect("first shutdown")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a node shuts down cleanly"))
            .collect()
    })
}

/// One audit on a fresh fleet, started after `warm` untimed and
/// [`SETUPS`] timed set-ups whose seconds go to `setups`.
fn audit(
    prep: &Prep,
    warm: usize,
    tracer: &Arc<Tracer>,
    tally: &Tally,
    samples: &mut Samples,
    setups: &mut Vec<f64>,
) -> Result<Audit, String> {
    let root = tracer.span("census.audit", None);
    let meter = Arc::new(PlatformMeter::default());
    reset_peak_rss();

    let (nodes, seconds) = repeated_setup(
        warm,
        SETUPS,
        |_| start_fleet(prep, &meter, tracer, root.id()),
        |nodes| {
            stop_fleet(nodes);
        },
    )?;
    setups.extend(seconds);
    let router = FleetRouter::new(nodes.iter().map(FleetNode::addr).collect(), RING_REPLICAS);

    if tracer.enabled() {
        for body in &prep.bodies {
            let parsed = tracer.time("http.spec_parse", root.id(), || {
                serde_json::from_str::<JobSpec>(body)
            });
            tally.check(parsed.is_ok(), || {
                "a census shard body does not parse".into()
            });
        }
    }

    let started = Instant::now();
    let mut placed: Vec<(FleetJobId, usize)> = Vec::new();
    for (index, spec) in prep.specs.iter().enumerate() {
        let result = samples.request(tracer, "http.post_job", root.id(), || router.submit(spec));
        match result {
            Ok(id) => {
                tally.ok();
                placed.push((id, index));
            }
            Err(e) => tally.fail(format!("router refused {}: {e}", spec.name)),
        }
    }

    // One status read per tick, round-robin over the unfinished jobs, so
    // the read rate does not depend on how many jobs are still running.
    let mut pacer = Pacer::new(prep.seed ^ 0x9011, POLL);
    let mut reports: Vec<Option<JobReport>> = vec![None; prep.specs.len()];
    let mut pending = placed;
    let mut next = 0;
    let mut finished = started;
    while !pending.is_empty() {
        next %= pending.len();
        let (id, index) = pending[next];
        let result = samples.request(tracer, "http.get_job", root.id(), || router.report(id));
        match result {
            Ok(Some(report)) => {
                tally.ok();
                finished = Instant::now();
                reports[index] = Some(report);
                pending.remove(next);
            }
            Ok(None) => {
                tally.ok();
                next += 1;
            }
            Err(e) => {
                tally.fail(format!("status read failed: {e}"));
                if started.elapsed() > Duration::from_secs(120) {
                    return Err("the census audit never finished".into());
                }
            }
        }
        pacer.wait();
    }
    let wall_s = finished.duration_since(started).as_secs_f64();

    let mut crowd_tasks = 0;
    for (index, report) in reports.iter().enumerate() {
        let verdict = report.as_ref().and_then(Verdict::of_report);
        tally.check(verdict.as_ref() == Some(&prep.expected[index]), || {
            format!(
                "{} differs from its serial reference",
                prep.specs[index].name
            )
        });
        if let Some(report) = report {
            samples.job(report);
            samples.questions += report.ledger.total_tasks() as f64;
            if tracer.enabled() {
                tracer.time("http.report_to_json", root.id(), || report.to_json());
            }
        }
    }

    if tracer.enabled() {
        fleet_layer(prep, &nodes, tracer, samples);
    }
    samples.scrape(&nodes.iter().map(FleetNode::addr).collect::<Vec<_>>());
    let peak_rss_mb = peak_rss_mb();

    let mut crowd_hits = 0;
    for (report, source) in stop_fleet(nodes) {
        crowd_tasks += report.crowd_tasks;
        crowd_hits += source.inner().stats().hits_published;
        samples.service(&report);
    }
    samples.platform(&meter);
    tally.check(
        crowd_tasks <= prep.single_node_tasks + (NODES as u64 - 1),
        || {
            format!(
                "the fleet spent {crowd_tasks} tasks, above the single node's {} plus one per extra node",
                prep.single_node_tasks
            )
        },
    );
    drop(root);
    Ok(Audit {
        wall_s,
        crowd_tasks: crowd_tasks as f64,
        crowd_hits: crowd_hits as f64,
        peak_rss_mb,
    })
}

/// Store and anti-entropy costs, measured after the audit: convergence,
/// one store export, the delta of that store against an empty one (what a
/// full ship to a restarted peer carries), and absorbing that delta into a
/// fresh daemon. Nothing here runs inside the audit's timed window.
fn fleet_layer(prep: &Prep, nodes: &[FleetNode<Source>], tracer: &Tracer, samples: &mut Samples) {
    let drained = Instant::now();
    loop {
        let a = nodes[0].daemon().export_store();
        let b = nodes[1].daemon().export_store();
        if a.delta_since(&b).is_empty() && b.delta_since(&a).is_empty() {
            break;
        }
        if drained.elapsed() > Duration::from_secs(10) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    samples
        .converge_ms
        .push(drained.elapsed().as_secs_f64() * 1e3);

    let export = Instant::now();
    let store = tracer.time("store.export", None, || nodes[0].daemon().export_store());
    samples.export_ms.push(export.elapsed().as_secs_f64() * 1e3);
    samples.facts.push(store.fact_count() as f64);

    let baseline = KnowledgeStore::default();
    let diff = Instant::now();
    let delta = tracer.time("fleet.delta_since", None, || store.delta_since(&baseline));
    samples.delta_ms.push(diff.elapsed().as_secs_f64() * 1e3);
    let body = serde_json::to_string(&FleetDelta {
        from: "node0".into(),
        store: delta,
    })
    .expect("a delta serializes");
    samples.delta_bytes.push(body.len() as f64);

    let fresh = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        platform(prep.data, prep.seed),
    );
    let delta: FleetDelta = serde_json::from_str(&body).expect("a delta parses");
    let absorb = Instant::now();
    tracer.time("fleet.absorb", None, || {
        fresh.absorb_fleet_delta(&delta.from, &delta.store)
    });
    samples.absorb_ms.push(absorb.elapsed().as_secs_f64() * 1e3);
    fresh.shutdown();
}
