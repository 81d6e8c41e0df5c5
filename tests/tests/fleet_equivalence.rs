//! The fleet-equivalence test plane (ISSUE 10's headline).
//!
//! The contract: a fleet of N cooperating daemons — consistent-hash
//! placement, anti-entropy fact exchange, availability-first degradation
//! — is a pure *throughput* construct. Specifically:
//!
//! * **Verdict identity.** An M-node fleet (M ∈ {1,2,3,4}) running a
//!   nine-tenant workload spanning all five audit drivers produces
//!   verdicts byte-identical to a single node running the same workload,
//!   for any M — proptested over pool density, tau and seed.
//! * **Spend dominance.** With the anti-entropy exchange on, the fleet's
//!   total crowd bill never exceeds the same nodes run in *isolation*
//!   (same placement, no fact exchange): shipped facts can only turn
//!   crowd questions into memo hits.
//! * **Chaos composition.** Killing one node mid-run degrades locality,
//!   never progress: the router forwards around the hole (counted by
//!   `audit_fleet_forwarded_total`), resubmitted jobs finish with correct
//!   verdicts, survivors' spend stays bounded, and `/readyz` shows the
//!   dead peer without flipping `ready`.
//! * **Restart recovery.** A crashed node recovers its fact base from its
//!   own WAL before rejoining: the re-run of its workload spends zero.

use coverage_core::prelude::*;
use coverage_service::fleet::{FleetJobId, FleetNode, FleetRouter};
use coverage_service::http::http_request;
use coverage_service::{AuditKind, JobSpec, JobStatus, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic pseudo-random two-attribute labeling (gender × skin) —
/// the `scaleout_equivalence` fixture.
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

fn female() -> Target {
    Target::group(Pattern::parse("1X").unwrap())
}

fn schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").unwrap(),
        Attribute::binary("skin", "light", "dark").unwrap(),
    ])
    .unwrap()
}

/// Nine tenants, one job each, cycling through the paper's five drivers —
/// every driver appears at least once and no two tenants share a name
/// prefix, so placement exercises the tenant-load tie-breaker too.
fn workload(truth: &VecGroundTruth, tau: usize) -> Vec<JobSpec> {
    let pool = truth.all_ids();
    (0..9)
        .map(|i| {
            let slice = pool.len() / 9;
            let spec = match i % 5 {
                0 => JobSpec::new(
                    format!("tenant-{i}/group"),
                    pool.clone(),
                    AuditKind::GroupCoverage { target: female() },
                ),
                1 => JobSpec::new(
                    format!("tenant-{i}/base"),
                    pool[i * slice..(i + 1) * slice].to_vec(),
                    AuditKind::BaseCoverage { target: female() },
                ),
                2 => JobSpec::new(
                    format!("tenant-{i}/multiple"),
                    pool.clone(),
                    AuditKind::MultipleCoverage {
                        groups: vec![Pattern::parse("0X").unwrap(), Pattern::parse("1X").unwrap()],
                    },
                ),
                3 => JobSpec::new(
                    format!("tenant-{i}/intersectional"),
                    pool.clone(),
                    AuditKind::IntersectionalCoverage { schema: schema() },
                ),
                _ => JobSpec::new(
                    format!("tenant-{i}/classifier"),
                    pool.clone(),
                    AuditKind::ClassifierCoverage {
                        target: female(),
                        predicted: pool[i * slice..(i + 1) * slice].to_vec(),
                    },
                ),
            };
            spec.tau(tau).seed(i as u64)
        })
        .collect()
}

/// Polls `f` every millisecond until it returns `Some`, bounded by a
/// generous timeout so a broken fleet fails the test instead of hanging.
fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..60_000 {
        if let Some(value) = f() {
            return value;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("polling timed out after 60s");
}

/// The verdict of one finished job: its serialized outcome. Status must
/// be `Done` — anything else is a test failure, not a verdict.
fn verdict(report: &coverage_service::JobReport) -> String {
    assert_eq!(report.status, JobStatus::Done, "{}", report.to_json());
    serde_json::to_string(report.outcome.as_ref().unwrap()).unwrap()
}

fn node_config(anti_entropy_ms: u64) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        anti_entropy_ms,
        ..ServiceConfig::default()
    }
}

/// Starts `m` fleet nodes over `truth`, optionally `synced` by the
/// anti-entropy exchange, routes the nine-tenant workload through a
/// [`FleetRouter`], and returns `(verdicts by job name, total crowd
/// spend)` after a clean shutdown of every node.
fn run_fleet(
    m: usize,
    synced: bool,
    truth: &Arc<VecGroundTruth>,
    tau: usize,
) -> (BTreeMap<String, String>, u64) {
    let nodes: Vec<_> = (0..m)
        .map(|i| {
            FleetNode::start(
                format!("node{i}"),
                "127.0.0.1:0",
                node_config(20),
                SharedTruthSource::new(Arc::clone(truth)),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(FleetNode::addr).collect();
    if synced && m > 1 {
        for (i, node) in nodes.iter().enumerate() {
            let peers: Vec<SocketAddr> = (0..m).filter(|j| *j != i).map(|j| addrs[j]).collect();
            node.join(peers);
        }
    }
    let router = FleetRouter::new(addrs, 32);
    let placed: Vec<(String, FleetJobId)> = workload(truth, tau)
        .into_iter()
        .map(|spec| {
            let id = router.submit(&spec).unwrap();
            (spec.name, id)
        })
        .collect();
    router.drain();
    let verdicts: BTreeMap<String, String> = placed
        .into_iter()
        .map(|(name, id)| {
            let report = poll_until(|| router.report(id).unwrap());
            (name, verdict(&report))
        })
        .collect();
    let spend: u64 = nodes
        .into_iter()
        .map(|node| node.shutdown().unwrap().0.crowd_tasks)
        .sum();
    (verdicts, spend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline property: any fleet topology M ∈ {1,2,3,4} is
    /// verdict-identical to a single node across all five drivers, and
    /// the synced fleet never outspends the same nodes run in isolation.
    #[test]
    fn fleet_is_verdict_identical_and_never_outspends_isolated_nodes(
        m in 1usize..5,
        density_pct in 5u64..40,
        tau in 3usize..14,
        seed in 0u64..500,
    ) {
        let truth = Arc::new(synth_truth(315, density_pct, seed));
        let (single_verdicts, _) = run_fleet(1, false, &truth, tau);
        let (fleet_verdicts, fleet_spend) = run_fleet(m, true, &truth, tau);
        let (isolated_verdicts, isolated_spend) = run_fleet(m, false, &truth, tau);
        prop_assert_eq!(&fleet_verdicts, &single_verdicts,
            "an {}-node synced fleet moved a verdict", m);
        prop_assert_eq!(&isolated_verdicts, &single_verdicts,
            "{} isolated nodes moved a verdict", m);
        prop_assert!(
            fleet_spend <= isolated_spend,
            "anti-entropy must never increase the crowd bill: \
             fleet={fleet_spend} isolated={isolated_spend}"
        );
    }
}

/// Chaos composition: killing one of three peers mid-run (the seeded
/// schedule: the victim is whichever node the first job landed on) leaves
/// a fleet that still completes every job with correct verdicts. The
/// router forwards the victim's resubmitted jobs around the hole, the
/// survivors' `/readyz` shows the dead peer without flipping `ready`,
/// and the survivors' total spend stays within twice the single-node
/// bill (the duplicated facts are bounded by what the victim knew).
#[test]
fn killing_a_peer_mid_run_degrades_locality_never_progress() {
    let truth = Arc::new(synth_truth(420, 25, 7));
    let tau = 8;
    let (baseline, single_spend) = run_fleet(1, false, &truth, tau);

    // Three synced nodes, slowed enough that the kill lands mid-run.
    let mut nodes: Vec<Option<FleetNode<SharedTruthSource<VecGroundTruth>>>> = (0..3)
        .map(|i| {
            let config = ServiceConfig {
                round_latency: Duration::from_millis(3),
                ..node_config(15)
            };
            Some(
                FleetNode::start(
                    format!("node{i}"),
                    "127.0.0.1:0",
                    config,
                    SharedTruthSource::new(Arc::clone(&truth)),
                )
                .unwrap(),
            )
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes
        .iter()
        .map(|node| node.as_ref().unwrap().addr())
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        let peers: Vec<SocketAddr> = (0..3).filter(|j| *j != i).map(|j| addrs[j]).collect();
        node.as_ref().unwrap().join(peers);
    }
    let router = FleetRouter::new(addrs.clone(), 32);
    let placed: Vec<(JobSpec, FleetJobId)> = workload(&truth, tau)
        .into_iter()
        .map(|spec| {
            let id = router.submit(&spec).unwrap();
            (spec, id)
        })
        .collect();

    // The seeded schedule: kill the node that got the first job, the
    // moment it is actually executing something.
    let victim = placed[0].1.node;
    poll_until(|| (nodes[victim].as_ref().unwrap().daemon().stats().running > 0).then_some(()));
    nodes[victim].take().unwrap().kill();

    // A survivor's readiness shows the hole without leaving rotation.
    let survivor = (0..3).find(|i| *i != victim).unwrap();
    poll_until(|| {
        let (code, body) = http_request(addrs[survivor], "GET", "/readyz", None).unwrap();
        assert_eq!(code, 200, "a dead peer must not flip ready: {body}");
        (body.contains(&format!("\"peer\": \"{}\"", addrs[victim]))
            && body.contains("\"state\": \"down\""))
        .then_some(())
    });

    // Resubmit the victim's jobs; the router's fallback places each on a
    // survivor and counts the detour.
    let forwarded_before = router.telemetry().fleet_forwarded_total();
    let rerouted: Vec<(String, FleetJobId)> = placed
        .iter()
        .filter(|(_, id)| id.node == victim)
        .map(|(spec, _)| (spec.name.clone(), router.submit(spec).unwrap()))
        .collect();
    assert!(!rerouted.is_empty(), "the victim must have owned some jobs");
    for (name, id) in &rerouted {
        assert_ne!(id.node, victim, "job {name} was re-placed on the corpse");
    }
    assert!(
        router.telemetry().fleet_forwarded_total() > forwarded_before,
        "forwarding around a dead owner must tick audit_fleet_forwarded_total"
    );

    // Every job — survivor-placed originals plus reroutes — finishes with
    // the baseline verdict.
    router.drain();
    let mut verdicts: BTreeMap<String, String> = BTreeMap::new();
    for (spec, id) in placed.iter().filter(|(_, id)| id.node != victim) {
        let report = poll_until(|| router.report(*id).unwrap());
        verdicts.insert(spec.name.clone(), verdict(&report));
    }
    for (name, id) in &rerouted {
        let report = poll_until(|| router.report(*id).unwrap());
        verdicts.insert(name.clone(), verdict(&report));
    }
    assert_eq!(verdicts, baseline, "a mid-run kill moved a verdict");

    // Bounded extra spend: the survivors may re-buy at most what died
    // with the victim, so their combined bill stays within twice the
    // single-node bill.
    let survivor_spend: u64 = nodes
        .into_iter()
        .flatten()
        .map(|node| node.shutdown().unwrap().0.crowd_tasks)
        .sum();
    assert!(
        survivor_spend <= 2 * single_spend,
        "survivors overspent: {survivor_spend} vs single-node {single_spend}"
    );
}

/// A fresh scratch directory under the system temp dir; unique per call
/// so concurrent tests never share state.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cvg-fleet-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Restart recovery: a node killed mid-fleet recovers its shard from its
/// own WAL — re-running its workload spends zero — and a *fresh* peer
/// joining the exchange converges to the same facts without paying the
/// crowd either (its first exchange ships the store the node held at
/// join).
#[test]
fn a_restarted_node_recovers_from_its_wal_and_spends_zero() {
    let truth = Arc::new(synth_truth(400, 22, 13));
    let dir = scratch_dir("restart");
    let config = || ServiceConfig {
        data_dir: Some(dir.clone()),
        ..node_config(10)
    };
    let spec = workload(&truth, 9).remove(0);

    // First life: run one job with the WAL on, then crash (no final
    // snapshot — `kill` drops the daemon without a graceful shutdown).
    let node = FleetNode::start(
        "node0",
        "127.0.0.1:0",
        config(),
        SharedTruthSource::new(Arc::clone(&truth)),
    )
    .unwrap();
    let first = node.daemon().submit(spec.clone()).unwrap();
    node.daemon().drain();
    let first_report = node.daemon().report(first).unwrap();
    assert!(first_report.crowd_tasks > 0, "{}", first_report.to_json());
    let facts_before = node.daemon().export_store();
    node.kill();

    // Second life, same data_dir: the shard comes back from the WAL
    // before the node rejoins, so the re-run buys nothing.
    let node = FleetNode::start(
        "node0",
        "127.0.0.1:0",
        config(),
        SharedTruthSource::new(Arc::clone(&truth)),
    )
    .unwrap();
    let recovered = node.daemon().export_store();
    assert!(
        recovered.delta_since(&facts_before).is_empty()
            && facts_before.delta_since(&recovered).is_empty(),
        "WAL replay must reconstruct the exact fact base: \
         before={} after={}",
        facts_before.fact_count(),
        recovered.fact_count()
    );
    let again = node.daemon().submit(spec.clone()).unwrap();
    node.daemon().drain();
    let again_report = node.daemon().report(again).unwrap();
    assert_eq!(
        verdict(&again_report),
        verdict(&first_report),
        "recovery moved the verdict"
    );
    assert_eq!(again_report.crowd_tasks, 0, "{}", again_report.to_json());

    // A fresh, empty peer joins the exchange: anti-entropy ships it the
    // recovered facts, after which it too can run the job for free.
    let fresh = FleetNode::start(
        "node1",
        "127.0.0.1:0",
        node_config(10),
        SharedTruthSource::new(Arc::clone(&truth)),
    )
    .unwrap();
    node.join(vec![fresh.addr()]);
    fresh.join(vec![node.addr()]);
    let want = facts_before.fact_count();
    poll_until(|| (fresh.daemon().export_store().fact_count() >= want).then_some(()));
    let echoed = fresh.daemon().submit(spec).unwrap();
    fresh.daemon().drain();
    let echoed_report = fresh.daemon().report(echoed).unwrap();
    assert_eq!(verdict(&echoed_report), verdict(&first_report));
    assert_eq!(echoed_report.crowd_tasks, 0, "{}", echoed_report.to_json());
    assert!(
        fresh
            .daemon()
            .telemetry()
            .render_prometheus()
            .contains("audit_fleet_deltas_total{peer=\"node0\"}"),
        "the delta counter must name the sending peer"
    );

    fresh.shutdown().unwrap();
    node.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
