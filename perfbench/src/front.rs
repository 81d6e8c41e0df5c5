//! `http_front`: a daemon pre-loaded with finished jobs, driven by two
//! closed-loop clients, each on one keep-alive connection, with a fixed
//! mix — 40 % `GET /jobs/{id}`, 20 % `GET /stats`, 10 % `GET /metrics`,
//! 10 % `GET /healthz` and 20 % `POST /jobs` of a tiny Group-Coverage job
//! whose every question the store already holds. The crowd has no round
//! latency, so parsing, serialization, the event loop and `/metrics`
//! rendering do the work.

use crate::harness::{
    peak_rss_mb, repeated_setup, reset_peak_rss, wait_ready, Conn, JobSnapshot, Metrics, Receipt,
    Tally, WARM_UPS,
};
use crate::layers::{self, Samples};
use crate::platform::{PlatformMeter, TimedSource};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{platform, reference, tenant_dataset, tenant_specs, Verdict};
use coverage_core::prelude::*;
use coverage_service::{AuditDaemon, AuditKind, HttpServer, JobId, JobSpec, ServiceConfig};
use crowd_sim::MTurkSim;
use dataset_sim::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECTS: usize = 6_000;
const PRELOADED: usize = 18;
const WINDOW: usize = 600;
const CLIENTS: u64 = 2;
/// Timed set-ups per segment; the last one serves the clients.
const SETUPS: usize = 10;
/// Seconds the clients drive one preloaded daemon.
const SEGMENT_S: f64 = 5.0;
/// The population and the preloaded jobs are pinned, so seeds compare
/// like with like; `--seed` draws the request mix and the simulated crowd.
const DATA_SEED: u64 = 2024;
/// Requests per batch of the `wall_s` figure.
const BATCH: usize = 1000;

type Source = TimedSource<MTurkSim<'static, Dataset>>;
/// A started daemon and its front door.
type Front = (Arc<AuditDaemon<Source>>, HttpServer);

pub struct Prep {
    seed: u64,
    data: &'static Dataset,
    preload: Vec<JobSpec>,
    expected: Vec<Verdict>,
    tiny_body: String,
    tiny_expected: Verdict,
    engine_ms: f64,
}

fn tiny(data: &Dataset) -> JobSpec {
    let female = Target::group(
        data.schema()
            .pattern(&[("gender", "female")])
            .expect("pattern"),
    );
    JobSpec::new(
        "front/tiny",
        (0..200).map(ObjectId).collect(),
        AuditKind::GroupCoverage { target: female },
    )
    .tau(5)
}

pub fn prepare(seed: u64) -> Prep {
    let data: &'static Dataset = Box::leak(Box::new(tenant_dataset(DATA_SEED, OBJECTS)));
    let mut preload = tenant_specs(data, DATA_SEED, PRELOADED, WINDOW, OBJECTS);
    let tiny = tiny(data);
    preload.push(tiny.clone());
    let mut engine_ms = 0.0;
    let expected: Vec<Verdict> = preload
        .iter()
        .map(|spec| {
            let (verdict, ms) = reference(spec, platform(data, seed));
            engine_ms += ms;
            verdict
        })
        .collect();
    let tiny_expected = expected.last().expect("the tiny job is preloaded").clone();
    Prep {
        seed,
        data,
        preload,
        expected,
        tiny_body: serde_json::to_string(&tiny).expect("a spec serializes"),
        tiny_expected,
        engine_ms,
    }
}

struct Client {
    samples: Samples,
    /// Completion time of every request.
    done: Vec<Instant>,
    posted: Vec<JobId>,
}

/// One segment's end-to-end figures.
struct Segment {
    /// Seconds the clients ran.
    elapsed: f64,
    /// Seconds per [`BATCH`] requests.
    batches: Vec<f64>,
    requests: usize,
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
    let meter = Arc::new(PlatformMeter::default());
    let mut samples = Samples::default();
    let mut setups = Vec::new();
    let count = ((seconds / SEGMENT_S).round() as usize).max(1);
    let mut segments = Vec::new();
    for index in 0..count {
        segments.push(segment(
            prep,
            index as u64,
            &meter,
            tracer,
            tally,
            &mut setups,
            &mut samples,
        )?);
    }
    samples.platform(&meter);
    samples.engine_ms.push(prep.engine_ms);

    let column = |f: fn(&Segment) -> f64| segments.iter().map(f).collect::<Vec<f64>>();
    let batches: Vec<f64> = segments.iter().flat_map(|s| s.batches.clone()).collect();
    if batches.is_empty() {
        return Err(format!("no segment made a batch of {BATCH} requests"));
    }
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setups), "s");
    e2e.put("wall_s", median(&batches), "s");
    e2e.put("crowd_tasks", median(&column(|s| s.crowd_tasks)), "count");
    e2e.put("crowd_hits", median(&column(|s| s.crowd_hits)), "count");
    let elapsed_s = column(|s| s.elapsed).iter().sum();
    layers::put_http(&mut e2e, &samples, layers::Pace::Closed { elapsed_s })?;
    e2e.put("peak_rss_mb", median(&column(|s| s.peak_rss_mb)), "MB");
    let layer = layers::per_layer(&samples, tracer, count as f64);
    eprintln!(
        "http_front: {} segments, {} requests",
        count,
        segments.iter().map(|s| s.requests).sum::<usize>()
    );
    Ok((e2e, layer))
}

/// Builds the simulated crowd (untimed), then starts a daemon and its
/// front door and waits for `/readyz`: the seconds that took are the
/// set-up time.
fn start(
    prep: &Prep,
    meter: &Arc<PlatformMeter>,
    tracer: &Arc<Tracer>,
) -> Result<(Front, f64), String> {
    let source = TimedSource::new(
        platform(prep.data, prep.seed),
        Arc::clone(meter),
        Arc::clone(tracer),
    );
    let _span = tracer.span("setup", None);
    let started = Instant::now();
    let daemon = Arc::new(AuditDaemon::start(ServiceConfig::default(), source));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon))
        .map_err(|e| format!("binding: {e}"))?;
    wait_ready(server.local_addr())?;
    Ok(((daemon, server), started.elapsed().as_secs_f64()))
}

/// One segment: [`SETUPS`] set-ups (the last one kept; the first segment
/// of a pass warms up first), the pre-load, and the clients for
/// [`SEGMENT_S`] seconds. Every tiny job the clients post
/// stays in the daemon's job table, so segments keep that table, and
/// with it `/stats` and memory, from growing with the run's length.
fn segment(
    prep: &Prep,
    index: u64,
    meter: &Arc<PlatformMeter>,
    tracer: &Arc<Tracer>,
    tally: &Tally,
    setups: &mut Vec<f64>,
    samples: &mut Samples,
) -> Result<Segment, String> {
    let warm = if index == 0 { WARM_UPS } else { 0 };
    let ((daemon, server), seconds) = repeated_setup(
        warm,
        SETUPS,
        |_| start(prep, meter, tracer),
        |(daemon, server)| {
            server.shutdown();
            daemon.shutdown();
        },
    )?;
    setups.extend(seconds);
    let addr = server.local_addr();

    // Pre-load (untimed): run the preloaded jobs one at a time, so their
    // bill does not depend on interleaving, and keep the body each
    // `GET /jobs/{id}` must return from then on.
    let mut ids = Vec::new();
    for spec in &prep.preload {
        ids.push(daemon.submit(spec.clone())?);
        daemon.drain();
    }
    let mut bodies = Vec::new();
    let mut probe = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    for (id, expected) in ids.iter().zip(&prep.expected) {
        let (code, body) = probe
            .request("GET", &format!("/jobs/{}", id.0), None)
            .map_err(|e| format!("reading a preloaded job: {e}"))?;
        let verdict = serde_json::from_str::<JobSnapshot>(&body)
            .ok()
            .and_then(|s| s.report)
            .and_then(|r| Verdict::of_report(&r));
        tally.check(code == 200 && verdict.as_ref() == Some(expected), || {
            format!("preloaded job {id} differs from its serial reference")
        });
        bodies.push((format!("/jobs/{}", id.0), body));
    }
    drop(probe);
    let crowd_before = daemon.stats().crowd_tasks;

    reset_peak_rss();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(SEGMENT_S);
    let clients: Vec<Result<Client, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let bodies = &bodies;
                let stream = index * CLIENTS + c;
                scope.spawn(move || client(prep, addr, stream, deadline, bodies, tracer, tally))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread never panics"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut done = Vec::new();
    let mut posted = Vec::new();
    for client in clients {
        let client = client?;
        samples.absorb_client(client.samples);
        done.extend(client.done);
        posted.extend(client.posted);
    }
    done.sort();
    let batches: Vec<f64> = done
        .chunks_exact(BATCH)
        .scan(started, |from, batch| {
            let to = batch[BATCH - 1];
            let seconds = to.duration_since(*from).as_secs_f64();
            *from = to;
            Some(seconds)
        })
        .collect();

    // Every tiny job must finish with the reference verdict and buy
    // nothing: the store already holds all its answers.
    daemon.drain();
    let peak_rss_mb = peak_rss_mb();
    for id in &posted {
        let verdict = daemon.report(*id).as_ref().and_then(Verdict::of_report);
        tally.check(verdict.as_ref() == Some(&prep.tiny_expected), || {
            format!("posted job {id} differs from its serial reference")
        });
    }
    let crowd_after = daemon.stats().crowd_tasks;
    tally.check(crowd_after == crowd_before, || {
        format!("the tiny jobs bought {} tasks", crowd_after - crowd_before)
    });

    if tracer.enabled() {
        // The body every POST carries, parsed as often as the server
        // parsed it, up to a few hundred times.
        for _ in 0..posted.len().min(500) {
            tracer
                .time("http.spec_parse", None, || {
                    serde_json::from_str::<JobSpec>(&prep.tiny_body)
                })
                .map_err(|e| format!("the tiny spec does not parse: {e}"))?;
        }
        for id in &ids {
            if let Some(report) = daemon.report(*id) {
                tracer.time("http.report_to_json", None, || report.to_json());
            }
        }
    }
    samples.scrape(&[addr]);
    let export = Instant::now();
    let store = tracer.time("store.export", None, || daemon.export_store());
    samples.export_ms.push(export.elapsed().as_secs_f64() * 1e3);
    samples.facts.push(store.fact_count() as f64);
    drop(store);
    server.shutdown();
    let (report, source) = daemon
        .shutdown()
        .ok_or("the daemon was already shut down")?;
    for job in &report.jobs {
        samples.job(job);
        samples.questions += job.ledger.total_tasks() as f64;
    }
    samples.service(&report);
    Ok(Segment {
        elapsed,
        batches,
        requests: done.len(),
        crowd_tasks: report.crowd_tasks as f64,
        crowd_hits: source.inner().stats().hits_published as f64,
        peak_rss_mb,
    })
}

/// One closed-loop client: the next request goes out when the previous
/// response is read.
fn client(
    prep: &Prep,
    addr: SocketAddr,
    stream: u64,
    deadline: Instant,
    bodies: &[(String, String)],
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Client, String> {
    let mut rng = SmallRng::seed_from_u64(prep.seed.wrapping_mul(1009).wrapping_add(stream));
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut out = Client {
        samples: Samples::default(),
        done: Vec::new(),
        posted: Vec::new(),
    };
    while Instant::now() < deadline {
        let pick: u32 = rng.gen_range(0..10);
        let job = &bodies[rng.gen_range(0..bodies.len())];
        let (route, method, path, body) = match pick {
            0..=3 => ("http.get_job", "GET", job.0.as_str(), None),
            4 | 5 => ("http.stats", "GET", "/stats", None),
            6 => ("http.metrics", "GET", "/metrics", None),
            7 => ("http.healthz", "GET", "/healthz", None),
            _ => (
                "http.post_job",
                "POST",
                "/jobs",
                Some(prep.tiny_body.as_str()),
            ),
        };
        let result = out
            .samples
            .request(tracer, route, None, || conn.request(method, path, body));
        out.done.push(Instant::now());
        match (route, result) {
            ("http.get_job", Ok((200, reply))) => {
                tally.check(reply == job.1, || format!("GET {path} changed its body"))
            }
            ("http.post_job", Ok((201, reply))) => match serde_json::from_str::<Receipt>(&reply) {
                Ok(receipt) => {
                    tally.ok();
                    out.posted.push(receipt.id);
                }
                Err(e) => tally.fail(format!("unreadable receipt: {e}")),
            },
            (_, Ok((200, _))) if route != "http.post_job" => tally.ok(),
            (_, Ok((code, _))) => tally.fail(format!("{method} {path} answered {code}")),
            (_, Err(e)) => tally.fail(format!("{method} {path}: {e}")),
        }
    }
    out.samples.reconnects = conn.reconnects;
    Ok(out)
}
