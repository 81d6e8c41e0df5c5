//! The connection engine under hostile framing, plus the per-tenant QoS
//! contract (ISSUE 8).
//!
//! Transport side: a single event-loop thread is subjected to slow-loris
//! pacing, pipelined bursts in one TCP segment, keep-alive idling past the
//! deadline and a mid-body disconnect — every case must end in a correct
//! response or a clean `408`/`400` close, and the loop must stay healthy
//! for the next client. QoS side: the WFQ scheduler must hand a
//! 10×-weighted tenant measurably lower queue waits without starving
//! anyone, equal weights must reproduce the PR 5 priority+aging order
//! exactly, and the submit rate gate must refuse with `429 Retry-After`.

use coverage_core::prelude::*;
use coverage_service::http::{http_request, HttpClient, HttpServer};
use coverage_service::{
    AuditDaemon, AuditKind, JobId, JobSpec, JobStatus, ServiceConfig, TenantRateLimit,
};
use integration_tests::female;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic pseudo-random single-attribute labeling.
fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
    let mut labels = Vec::with_capacity(n_total);
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n_total {
        labels.push(Labels::single(u8::from(next() % 100 < density_pct)));
    }
    VecGroundTruth::new(labels)
}

fn start(
    config: ServiceConfig,
    truth: &Arc<VecGroundTruth>,
) -> (
    Arc<AuditDaemon<SharedTruthSource<VecGroundTruth>>>,
    HttpServer,
    std::net::SocketAddr,
) {
    let daemon = Arc::new(AuditDaemon::start(
        config,
        SharedTruthSource::new(Arc::clone(truth)),
    ));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
    let addr = server.local_addr();
    (daemon, server, addr)
}

fn spec(name: &str, pool: Vec<ObjectId>, tau: usize) -> JobSpec {
    JobSpec::new(name, pool, AuditKind::GroupCoverage { target: female() }).tau(tau)
}

/// Polls `f` every millisecond until it returns `Some`, bounded by a
/// generous timeout so a broken daemon fails the test instead of hanging.
fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..60_000 {
        if let Some(value) = f() {
            return value;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("polling timed out after 60s");
}

/// Every adversarial framing case in sequence against **one** event-loop
/// thread: slow-loris pacing, a pipelined two-request segment, keep-alive
/// idling past the deadline, and a mid-body disconnect. Each must resolve
/// as a correct response or a clean `408`/`400` close — and after each,
/// the same single loop must serve a fresh healthy request, proving
/// nothing wedged it.
#[test]
fn adversarial_framing_cannot_wedge_a_single_event_loop() {
    let truth = Arc::new(synth_truth(100, 10, 3));
    let (daemon, server, addr) = start(
        ServiceConfig {
            workers: 1,
            event_loop_threads: 1,
            keep_alive_idle: Duration::from_millis(300),
            ..ServiceConfig::default()
        },
        &truth,
    );
    let healthy = || {
        let (code, _) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(code, 200, "the event loop must stay healthy");
    };

    // 1. Slow loris: a request head trickled one byte at a time. The
    // deadline runs from the *first* byte, so pacing cannot stretch it —
    // the server answers 408 and closes while the trickle is still going.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for byte in b"GET /st" {
            // The write may start failing once the server has already
            // closed — that is the success condition, not an error.
            if stream.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "slow loris must get a clean 408: {response:?}"
        );
    }
    healthy();

    // 2. Two pipelined requests in one TCP segment: both parsed and both
    // answered, in order, out of a single read.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\nGET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert_eq!(
            response.matches("HTTP/1.1 200").count(),
            2,
            "both pipelined requests must be answered: {response:?}"
        );
        assert!(response.contains("Connection: keep-alive"), "{response:?}");
        assert!(response.contains("Connection: close"), "{response:?}");
        assert!(
            response.contains("audit_jobs_submitted_total"),
            "{response:?}"
        );
    }
    healthy();

    // 3. Keep-alive connection idling past the deadline *between*
    // requests: the server closes silently (EOF), no error response.
    {
        let mut client = HttpClient::connect(addr).unwrap();
        let (code, _) = client.request("GET", "/stats", None).unwrap();
        assert_eq!(code, 200);
        std::thread::sleep(Duration::from_millis(700));
        let err = client
            .read_response()
            .expect_err("idle expiry must be a silent close, not a response");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }
    healthy();

    // 4. Mid-body disconnect: a request that claims more body than it
    // sends, then a write-side shutdown. The half-open reader gets a clean
    // 400, then EOF.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nhello")
            .unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "mid-body disconnect must get a clean 400: {response:?}"
        );
    }
    healthy();

    server.shutdown();
    daemon.shutdown().unwrap();
}

/// A closing connection whose client stops reading still expires: a
/// `Connection: close` response far larger than loopback buffering, with
/// another request pipelined behind it, never drains — and must not pin
/// one of the engine's connection slots past the idle deadline.
#[test]
fn a_closing_connection_with_a_stalled_reader_expires() {
    let truth = Arc::new(synth_truth(100, 10, 9));
    let idle = Duration::from_millis(300);
    let (daemon, server, addr) = start(
        ServiceConfig {
            workers: 1,
            event_loop_threads: 1,
            keep_alive_idle: idle,
            ..ServiceConfig::default()
        },
        &truth,
    );
    // ~11 MB of pretty-printed export: well past what the kernel buffers
    // for a reader that never reads (4 MB send + 128 KB receive with
    // Linux defaults).
    let mut store = coverage_core::memo::KnowledgeStore::new();
    for raw in 0..64_000u32 {
        store.record_labels(ObjectId(raw), Labels::single((raw % 2) as u8));
    }
    daemon.import_store(&store);
    drop(store);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            b"GET /store/export HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    let telemetry = daemon.telemetry();
    poll_until(|| (telemetry.http_active_connections() == 1).then_some(()));
    let deadline = std::time::Instant::now() + idle * 10;
    while telemetry.http_active_connections() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "a closing connection whose reader stalled still holds its slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(stream);

    server.shutdown();
    daemon.shutdown().unwrap();
}

/// `keep_alive_max_requests` bounds reuse: the last allowed response is
/// marked `Connection: close` and the socket really closes.
#[test]
fn keep_alive_max_requests_bounds_reuse() {
    let truth = Arc::new(synth_truth(100, 10, 5));
    let (daemon, server, addr) = start(
        ServiceConfig {
            workers: 1,
            keep_alive_max_requests: 2,
            ..ServiceConfig::default()
        },
        &truth,
    );

    let mut client = HttpClient::connect(addr).unwrap();
    client.send("GET", "/stats", None).unwrap();
    let (code, headers, _) = client.read_response_with_headers().unwrap();
    assert_eq!(code, 200);
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "keep-alive"),
        "{headers:?}"
    );
    client.send("GET", "/stats", None).unwrap();
    let (code, headers, _) = client.read_response_with_headers().unwrap();
    assert_eq!(code, 200);
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"),
        "request #2 of 2 must close: {headers:?}"
    );
    // Writing a third request into the closed socket ends in EOF or a
    // reset depending on timing — either way, no response arrives.
    let err = client
        .request("GET", "/stats", None)
        .expect_err("the connection must really be closed");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::BrokenPipe
        ),
        "{err}"
    );

    server.shutdown();
    daemon.shutdown().unwrap();
}

/// The submit rate gate over the wire: a tenant that exhausts its burst
/// gets `429` with a `Retry-After` header, other tenants are unaffected,
/// and waiting the advertised time restores admission.
#[test]
fn tenant_rate_limit_replies_429_with_retry_after() {
    let truth = Arc::new(synth_truth(400, 10, 7));
    let pool = truth.all_ids();
    let (daemon, server, addr) = start(
        ServiceConfig {
            workers: 1,
            tenant_rate_limit: Some(TenantRateLimit {
                per_second: 5,
                burst: 2,
                max_queued: None,
            }),
            ..ServiceConfig::default()
        },
        &truth,
    );

    let mut client = HttpClient::connect(addr).unwrap();
    let post = |client: &mut HttpClient, name: &str| {
        let body = serde_json::to_string(&spec(name, pool.clone(), 3)).unwrap();
        client.send("POST", "/jobs", Some(&body)).unwrap();
        client.read_response_with_headers().unwrap()
    };
    let (code, _, _) = post(&mut client, "acme/one");
    assert_eq!(code, 201);
    let (code, _, _) = post(&mut client, "acme/two");
    assert_eq!(code, 201);
    let (code, headers, body) = post(&mut client, "acme/three");
    assert_eq!(code, 429, "{body}");
    assert!(body.contains("rate limit"), "{body}");
    let retry_after: u64 = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .expect("429 must carry Retry-After")
        .1
        .parse()
        .unwrap();
    assert!(retry_after >= 1, "{headers:?}");

    // A different tenant has its own bucket.
    let (code, _, _) = post(&mut client, "rival/one");
    assert_eq!(code, 201);
    // Waiting out the advertised delay restores admission.
    std::thread::sleep(Duration::from_secs(retry_after));
    let (code, _, body) = post(&mut client, "acme/three");
    assert_eq!(code, 201, "{body}");

    daemon.drain();
    server.shutdown();
    daemon.shutdown().unwrap();
}

/// Ten equal-priority tenants, one weighted 10×, one worker: the weighted
/// tenant's p99 queue wait must be measurably lower than the field's —
/// and every tenant must still finish (WFQ shares, never starvation).
#[test]
fn weighted_tenant_gets_lower_queue_waits_without_starving_anyone() {
    let truth = Arc::new(synth_truth(8_000, 6, 13));
    let pool = truth.all_ids();
    let (daemon, server, addr) = start(
        ServiceConfig {
            workers: 1,
            round_latency: Duration::from_millis(2),
            tenant_weights: vec![("heavy".to_string(), 10)],
            ..ServiceConfig::default()
        },
        &truth,
    );

    // No blocker: submitting 30 jobs takes microseconds while each job
    // runs for tens of milliseconds, so beyond the very first dispatch the
    // scheduler's pop order — not submission timing — determines every
    // job's wait. Queue waits then measure pure position-in-queue, with no
    // shared constant flattening the histogram buckets together.
    let tenants: Vec<String> = (0..10)
        .map(|i| {
            if i == 0 {
                "heavy".to_string()
            } else {
                format!("light-{i}")
            }
        })
        .collect();
    let slice = pool.len() / 30;
    let mut ids = Vec::new();
    for round in 0..3 {
        for (t, tenant) in tenants.iter().enumerate() {
            let k = round * tenants.len() + t;
            let jobs = spec(
                &format!("{tenant}/job-{round}"),
                pool[k * slice..(k + 1) * slice].to_vec(),
                8,
            );
            ids.push(daemon.submit(jobs).unwrap());
        }
    }
    daemon.drain();

    // No starvation: every job of every tenant ran to completion.
    for id in &ids {
        let report = daemon.report(*id).unwrap();
        assert!(report.status.is_done(), "{}", report.to_json());
    }
    // The weighted tenant's tail queue wait beats the field.
    let telemetry = daemon.telemetry();
    let heavy_p99 = telemetry.tenant_queue_wait_percentile_ms("heavy", 99.0);
    let light_p99: Vec<u64> = (1..10)
        .map(|i| telemetry.tenant_queue_wait_percentile_ms(&format!("light-{i}"), 99.0))
        .collect();
    let light_best = *light_p99.iter().min().unwrap();
    assert!(
        heavy_p99 < light_best,
        "10x-weighted tenant must see lower p99 queue wait: heavy={heavy_p99}ms lights={light_p99:?}"
    );
    // The per-tenant histograms are on the public scrape surface too.
    let (code, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(
        metrics.contains("audit_tenant_queue_wait_ms_bucket{tenant=\"heavy\""),
        "{metrics}"
    );

    server.shutdown();
    daemon.shutdown().unwrap();
}

/// Satellite 6 regression: with **equal** weights configured (the WFQ
/// layer degenerates to the identity), the daemon reproduces the PR 5
/// priority+aging finished order *exactly* — same blocker, same
/// priorities, same order as `priority_orders_the_daemon_pool`.
#[test]
fn equal_weights_reproduce_pr5_finished_order() {
    let truth = Arc::new(synth_truth(6_000, 6, 11));
    let pool = truth.all_ids();
    let daemon = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            round_latency: Duration::from_millis(2),
            tenant_weights: (0..4)
                .map(|i| (format!("tenant-{i}"), 1))
                .chain([("blocker".to_string(), 1)])
                .collect(),
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(&truth)),
    );
    let blocker = daemon.submit(spec("blocker", pool.clone(), 40)).unwrap();
    poll_until(|| (daemon.status(blocker) == Some(JobStatus::Running)).then_some(()));
    // Queued behind it: priorities 2, 9, 9, 5 over disjoint slices — the
    // exact PR 5 scenario.
    let slice = pool.len() / 4;
    let priorities = [2u32, 9, 9, 5];
    let queued: Vec<JobId> = priorities
        .iter()
        .enumerate()
        .map(|(i, priority)| {
            daemon
                .submit(
                    spec(
                        &format!("tenant-{i}"),
                        pool[i * slice..(i + 1) * slice].to_vec(),
                        10,
                    )
                    .seed(i as u64)
                    .priority(*priority),
                )
                .unwrap()
        })
        .collect();
    daemon.drain();
    let finished = daemon.finished_order();
    assert_eq!(finished[0], blocker);
    // 9 before 9 by submission order, then 5, then 2 — byte-for-byte the
    // PR 5 expectation.
    assert_eq!(
        &finished[1..],
        &[queued[1], queued[2], queued[3], queued[0]],
        "stats: {:?}",
        daemon.stats()
    );
    daemon.shutdown().unwrap();
}

/// ISSUE 10 satellite: `tenant_weights` naming a tenant that never
/// submits ("ghost") and a tenant that only appears after config load
/// ("late") must both degrade gracefully — the ghost entry is inert and
/// the late arrival runs at weight 1. Pinned by the exact WFQ finished
/// order: with `vip` at weight 2 and `late` at the implicit weight 1,
/// three jobs each queued behind a blocker interleave as
/// `vip, late, vip, vip, late, late`.
#[test]
fn ghost_and_late_tenants_run_at_weight_one_with_pinned_order() {
    let truth = Arc::new(synth_truth(6_000, 6, 11));
    let pool = truth.all_ids();
    let daemon = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            round_latency: Duration::from_millis(2),
            // "ghost" never submits a job; "late" submits but is absent
            // here and must fall back to weight 1.
            tenant_weights: vec![("ghost".to_string(), 9), ("vip".to_string(), 2)],
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(&truth)),
    );
    let blocker = daemon
        .submit(spec("blocker/hold", pool.clone(), 40))
        .unwrap();
    poll_until(|| (daemon.status(blocker) == Some(JobStatus::Running)).then_some(()));
    // Three vip jobs, then three late-tenant jobs, all equal priority
    // over disjoint slices. Submission order breaks virtual-time ties,
    // so the finished order is fully determined by the weights.
    let slice = pool.len() / 6;
    let queued: Vec<JobId> = (0..6)
        .map(|i| {
            let tenant = if i < 3 { "vip" } else { "late" };
            let at = if i < 3 { i } else { i - 3 };
            daemon
                .submit(
                    spec(
                        &format!("{tenant}/job-{at}"),
                        pool[i * slice..(i + 1) * slice].to_vec(),
                        10,
                    )
                    .seed(i as u64),
                )
                .unwrap()
        })
        .collect();
    daemon.drain();
    let finished = daemon.finished_order();
    assert_eq!(finished[0], blocker);
    // Weight-2 vip vs weight-1 late: start tags interleave as
    // v(0), l(0), v(½), v(1 tie→seq), l(1), l(2) — in job terms
    // vip0, late0, vip1, vip2, late1, late2.
    assert_eq!(
        &finished[1..],
        &[queued[0], queued[3], queued[1], queued[2], queued[4], queued[5]],
        "stats: {:?}",
        daemon.stats()
    );
    daemon.shutdown().unwrap();
}
