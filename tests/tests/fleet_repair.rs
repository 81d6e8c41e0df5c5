//! Anti-entropy repair by acked watermarks.
//!
//! A peer that crashes and restarts has lost every fact it held only
//! because the fleet shipped it (seeded facts never reach the receiver's
//! WAL). Its watermark for the survivor restarts at 0, the survivor hears
//! that on its next round and repairs the peer on the one after: the
//! restarted peer holds the survivor's facts within two rounds, and runs
//! the survivor's job again without paying the crowd.

use coverage_core::prelude::*;
use coverage_service::fleet::FleetNode;
use coverage_service::{AuditKind, JobSpec, ServiceConfig};
use integration_tests::female;
use std::sync::Arc;
use std::time::Duration;

/// Anti-entropy cadence: long enough that a round is easy to tell apart
/// from polling jitter.
const CADENCE_MS: u64 = 150;

fn truth(n: usize) -> Arc<VecGroundTruth> {
    Arc::new(VecGroundTruth::new(
        (0..n)
            .map(|i| Labels::single(u8::from(i % 7 == 0)))
            .collect(),
    ))
}

fn start(
    name: &str,
    addr: std::net::SocketAddr,
    truth: &Arc<VecGroundTruth>,
) -> FleetNode<SharedTruthSource<VecGroundTruth>> {
    FleetNode::start(
        name,
        addr,
        ServiceConfig {
            workers: 1,
            anti_entropy_ms: CADENCE_MS,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(truth)),
    )
    .unwrap()
}

/// Polls `f` every millisecond until it returns `Some`, bounded by a
/// generous timeout so a broken fleet fails the test instead of hanging.
fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..30_000 {
        if let Some(value) = f() {
            return value;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("polling timed out after 30s");
}

/// The value of one sample line of a Prometheus text page, or 0.
fn sample(page: &str, series: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn a_restarted_peer_holds_the_survivors_facts_within_two_rounds() {
    let truth = truth(280);
    let spec = JobSpec::new(
        "tenant/group",
        truth.all_ids(),
        AuditKind::GroupCoverage { target: female() },
    )
    .tau(6);
    let any_port: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
    let survivor = start("node0", any_port, &truth);
    let peer = start("node1", any_port, &truth);
    let peer_addr = peer.addr();
    survivor.join(vec![peer_addr]);
    peer.join(vec![survivor.addr()]);

    let first = survivor.daemon().submit(spec.clone()).unwrap();
    survivor.daemon().drain();
    assert!(survivor.daemon().report(first).unwrap().crowd_tasks > 0);
    let facts = survivor.daemon().export_store();

    // The peer holds every survivor fact, and the survivor has seen it
    // acknowledge them all (so the survivor's log has dropped them).
    poll_until(|| {
        facts
            .delta_since(&peer.daemon().export_store())
            .is_empty()
            .then_some(())
    });
    let unacked = format!("audit_fleet_unacked_facts{{peer=\"{peer_addr}\"}}");
    poll_until(|| {
        let page = survivor.daemon().telemetry().render_prometheus();
        (page.contains(&unacked) && sample(&page, &unacked) == 0).then_some(())
    });

    // Crash the peer and bring it back bare, on the same address.
    peer.kill();
    let peer = start("node1", peer_addr, &truth);
    assert!(peer.daemon().export_store().is_empty());
    peer.join(vec![survivor.addr()]);

    poll_until(|| {
        facts
            .delta_since(&peer.daemon().export_store())
            .is_empty()
            .then_some(())
    });
    // Every round delivers one delta, empty or not: the first is refused
    // (the restarted peer answers watermark 0), the second repairs it.
    let page = peer.daemon().telemetry().render_prometheus();
    let rounds = sample(&page, "audit_fleet_deltas_total{peer=\"node0\"}");
    assert!(
        (1..=2).contains(&rounds),
        "the restarted peer was repaired after {rounds} rounds: {page}"
    );

    let again = peer.daemon().submit(spec).unwrap();
    peer.daemon().drain();
    let report = peer.daemon().report(again).unwrap();
    assert_eq!(report.crowd_tasks, 0, "{}", report.to_json());

    peer.shutdown().unwrap();
    survivor.shutdown().unwrap();
}
