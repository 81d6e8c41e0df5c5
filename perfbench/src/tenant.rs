//! `tenant_mix`: nine tenants (press / ngo / lab / vendor) send jobs of
//! all five algorithms over one shared face dataset to a persistent
//! daemon (2 workers, `lab` weighted 3 in the fair queue, `data_dir` on).
//! Open loop: a seeded arrival schedule of bursts of three jobs submits
//! `POST /jobs` on one keep-alive connection whatever the daemon's state,
//! and an observer thread reads each job's status until it is terminal.
//! A job's latency runs from its due time, so a stalled generator counts
//! against the system; `wall_s` is the job latencies' sum. The daemon
//! recovers a data dir pre-populated, before timing, with facts on
//! objects outside every pool.

use crate::harness::{
    peak_rss_mb, repeated_setup, reset_peak_rss, wait_ready, Conn, JobSnapshot, Metrics, Pacer,
    Receipt, Tally, WARM_UPS,
};
use crate::layers::{self, Samples};
use crate::platform::{PlatformMeter, TimedSource};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{platform, reference, tenant_dataset, tenant_specs, Verdict};
use coverage_core::prelude::*;
use coverage_service::http::http_request;
use coverage_service::{
    AuditDaemon, AuditKind, DaemonStats, HttpServer, JobId, JobReport, JobSpec, Persistence,
    ServiceConfig, Telemetry,
};
use crowd_sim::MTurkSim;
use dataset_sim::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const ROUND_LATENCY: Duration = Duration::from_micros(500);
/// Objects the job windows range over: room for about 180 windows (a
/// 20-second schedule) before they wrap around and reuse climbs.
const USABLE: usize = 60_000;
/// Objects past [`USABLE`], labelled into the pre-populated data dir.
const RESERVED: usize = 3_000;
const WINDOW: usize = 600;
/// Mean arrival rate of the open-loop schedule.
const JOBS_PER_SECOND: f64 = 9.0;
/// Jobs that arrive together: one more than the workers, so every burst
/// queues a job and the fair queue picks which one waits.
const BURST: usize = WORKERS + 1;
/// Fewest jobs a run may have: p90 needs ten beyond it.
const MIN_JOBS: usize = 100;
/// Mean interval of the observer's listing schedule.
const TICK: Duration = Duration::from_millis(2);
/// Timed set-ups before the schedule, the last of which serves it, and
/// again after it.
const SETUPS: usize = 10;
/// Most the median job latency of the schedule's last third may exceed
/// that of its first third before the run counts as falling behind.
const MAX_BACKLOG_TREND: f64 = 2.0;
/// Snapshots are cut at shutdown only. A mid-run snapshot's memory spike
/// depends on which job boundary it lands on, which made peak memory
/// unrepeatable from run to run.
const SNAPSHOT_EVERY: u64 = 1_000_000;
/// The population, the job mix and the pre-populated data dir are pinned,
/// so seeds compare like with like; `--seed` draws the arrival schedule
/// and the crowd that answers the jobs.
const DATA_SEED: u64 = 2024;

type Source = TimedSource<MTurkSim<'static, Dataset>>;

pub struct Prep {
    seed: u64,
    data: &'static Dataset,
    /// Due offsets from the schedule's start, ascending.
    offsets: Vec<Duration>,
    bodies: Vec<String>,
    expected: Vec<Verdict>,
    engine_ms: f64,
    questions: f64,
    root: PathBuf,
    seed_dir: PathBuf,
}

/// The data dirs live only as long as the run.
impl Drop for Prep {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn config(data_dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        round_latency: ROUND_LATENCY,
        tenant_weights: vec![("lab".to_string(), 3)],
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_every: SNAPSHOT_EVERY,
        ..ServiceConfig::default()
    }
}

/// Generates the schedule, the specs and their references, and the
/// pre-populated data dir (all untimed).
pub fn prepare(seed: u64, seconds: f64, out: &Path) -> Result<Prep, String> {
    let data: &'static Dataset = Box::leak(Box::new(tenant_dataset(DATA_SEED, USABLE + RESERVED)));
    let jobs = ((seconds * JOBS_PER_SECOND).ceil() as usize).max(MIN_JOBS);
    // Bursts of [`BURST`] jobs, with gaps between bursts drawn uniformly
    // from [mean/2, 3·mean/2). A Poisson schedule's bursts vary so much in
    // size from seed to seed that mean latency measured the draw rather
    // than the daemon, and evenly spread jobs at a rate that kept up never
    // queued at all.
    let mean = BURST as f64 / JOBS_PER_SECOND;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa11_7e5);
    let mut due = 0.0;
    let offsets: Vec<Duration> = (0..jobs)
        .map(|k| {
            if k % BURST == 0 {
                due += mean * (0.5 + rng.gen::<f64>());
            }
            Duration::from_secs_f64(due)
        })
        .collect();

    let specs = tenant_specs(data, DATA_SEED, jobs, WINDOW, USABLE);
    let mut expected = Vec::new();
    let mut engine_ms = 0.0;
    let mut questions = 0.0;
    for spec in &specs {
        let (verdict, ms) = reference(spec, platform(data, seed));
        engine_ms += ms;
        questions += verdict.questions as f64;
        expected.push(verdict);
    }
    let bodies = specs
        .iter()
        .map(|spec| serde_json::to_string(spec).expect("a spec serializes"))
        .collect();

    let root = out.join(format!("tenant-{}", std::process::id()));
    let seed_dir = root.join("seed");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&seed_dir).map_err(|e| format!("creating {}: {e}", seed_dir.display()))?;
    // A pinned crowd labels the archive, so every seed recovers the same
    // data dir: with the run's crowd, the dir's size, and with it the
    // set-up time, differed by half from seed to seed. No pool holds these
    // objects, so no verdict depends on their labels.
    let daemon = AuditDaemon::start(config(&seed_dir), platform(data, DATA_SEED));
    let reserved: Vec<ObjectId> = (USABLE..USABLE + RESERVED)
        .map(|i| ObjectId(i as u32))
        .collect();
    let female = Target::group(
        data.schema()
            .pattern(&[("gender", "female")])
            .expect("pattern"),
    );
    // Base-Coverage with τ above the pool size labels every object.
    daemon.submit(
        JobSpec::new(
            "archive/labels",
            reserved,
            AuditKind::BaseCoverage { target: female },
        )
        .tau(RESERVED + 1),
    )?;
    daemon.drain();
    daemon.shutdown();
    Ok(Prep {
        seed,
        data,
        offsets,
        bodies,
        expected,
        engine_ms,
        questions,
        root,
        seed_dir,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct Daemon {
    daemon: Arc<AuditDaemon<Source>>,
    server: HttpServer,
    dir: PathBuf,
}

/// Copies the pre-populated dir and builds the simulated crowd (both
/// untimed), then starts a daemon on them and waits for `/readyz`: the
/// returned seconds are the set-up time.
fn start_daemon(
    prep: &Prep,
    k: usize,
    meter: &Arc<PlatformMeter>,
    tracer: &Arc<Tracer>,
) -> Result<(Daemon, f64), String> {
    let dir = prep.root.join(format!("run-{k}"));
    copy_dir(&prep.seed_dir, &dir)?;
    let source = TimedSource::new(
        platform(prep.data, prep.seed),
        Arc::clone(meter),
        Arc::clone(tracer),
    );
    let _span = tracer.span("setup", None);
    let started = Instant::now();
    let daemon = Arc::new(AuditDaemon::start(config(&dir), source));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon))
        .map_err(|e| format!("binding: {e}"))?;
    wait_ready(server.local_addr())?;
    Ok((
        Daemon {
            daemon,
            server,
            dir,
        },
        started.elapsed().as_secs_f64(),
    ))
}

fn stop(stopped: Daemon) {
    stopped.server.shutdown();
    stopped.daemon.shutdown();
    let _ = fs::remove_dir_all(&stopped.dir);
}

pub fn measure(
    prep: &Prep,
    _seconds: f64,
    tracer: &Arc<Tracer>,
    tally: &Tally,
) -> Result<(Metrics, Metrics), String> {
    let meter = Arc::new(PlatformMeter::default());
    let (
        Daemon {
            daemon,
            server,
            dir,
        },
        mut setups,
    ) = repeated_setup(
        WARM_UPS,
        SETUPS,
        |k| start_daemon(prep, k, &meter, tracer),
        stop,
    )?;
    let addr = server.local_addr();

    let mut samples = Samples {
        round_latency_ms: ROUND_LATENCY.as_secs_f64() * 1e3,
        ..Samples::default()
    };
    if tracer.enabled() {
        for body in &prep.bodies {
            let parsed = tracer.time("http.spec_parse", None, || {
                serde_json::from_str::<JobSpec>(body)
            });
            tally.check(parsed.is_ok(), || {
                "a tenant spec body does not parse".into()
            });
        }
    }

    let jobs = prep.bodies.len();
    reset_peak_rss();
    let (submitted, receive) = mpsc::channel::<(usize, JobId)>();
    let start = Instant::now();
    let (generator, observer) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(prep, addr, start, submitted, tracer, tally));
        let observer = observe(prep, addr, start, receive, tracer, tally);
        (
            generator.join().expect("the generator thread never panics"),
            observer,
        )
    });
    let Observed {
        samples: observed,
        jobs: finished,
    } = observer?;
    samples.absorb_client(generator?);
    samples.absorb_client(observed);

    for (k, job) in finished.iter().enumerate() {
        let verdict = job
            .as_ref()
            .and_then(|(report, _)| Verdict::of_report(report));
        tally.check(verdict.as_ref() == Some(&prep.expected[k]), || {
            format!("job {k} differs from its serial reference")
        });
        if let Some((report, latency_ms)) = job {
            samples.job(report);
            samples.job_latency_ms.push(*latency_ms);
            if tracer.enabled() {
                tracer.time("http.report_to_json", None, || report.to_json());
            }
        }
    }
    samples.questions = prep.questions;
    samples.engine_ms.push(prep.engine_ms);

    let peak_rss_mb = peak_rss_mb();
    samples.scrape(&[addr]);
    samples.wal_bytes.push(wal_bytes(&dir) as f64);
    let export = Instant::now();
    let store = tracer.time("store.export", None, || daemon.export_store());
    samples.export_ms.push(export.elapsed().as_secs_f64() * 1e3);
    samples.facts.push(store.fact_count() as f64);
    drop(store);
    let shutdown = Instant::now();
    server.shutdown();
    let (report, source) = tracer
        .time("persist.shutdown", None, || daemon.shutdown())
        .ok_or("the daemon was already shut down")?;
    samples
        .shutdown_ms
        .push(shutdown.elapsed().as_secs_f64() * 1e3);
    samples.service(&report);
    samples.platform(&meter);
    let recover = Instant::now();
    let reopened = tracer.time("persist.recover", None, || {
        Persistence::open(&dir, SNAPSHOT_EVERY, Telemetry::disabled())
    });
    samples
        .recover_ms
        .push(recover.elapsed().as_secs_f64() * 1e3);
    tally.check(reopened.is_ok(), || {
        "the left-behind data dir does not reopen".into()
    });
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
    // As many set-ups again after the schedule: the host's speed drifts
    // over seconds, and one batch of set-ups at the start sampled a single
    // moment of it, which made the median bimodal from run to run.
    let (last, late) = repeated_setup(
        0,
        SETUPS,
        |k| start_daemon(prep, WARM_UPS + SETUPS + k, &Arc::default(), tracer),
        stop,
    )?;
    stop(last);
    setups.extend(late);

    let p90 =
        percentile(&samples.job_latency_ms, 0.9).map_err(|e| format!("job_latency_p90_ms: {e}"))?;
    let p50 = percentile(&samples.job_latency_ms, 0.5)?;
    let queue_p50 = percentile(&samples.queue_ms, 0.5)?;
    let queue_p90 = percentile(&samples.queue_ms, 0.9)?;
    // Job latencies in schedule order.
    let trend = backlog_trend(&samples.job_latency_ms);
    eprintln!(
        "tenant_mix: {jobs} jobs, job latency p50 {:.1} ms p90 {:.1} ms over {} jobs, \
         queue wait p50 {} ms p90 {} ms, last/first third latency {trend:.2}",
        p50.value, p90.value, p90.samples, queue_p50.value, queue_p90.value
    );
    tally.check(queue_p90.value > 0.0, || {
        "no job waited in the queue: the schedule does not load the scheduler".into()
    });
    tally.check(trend <= MAX_BACKLOG_TREND, || {
        format!("the backlog grew: the last third of jobs took {trend:.2} times the first third's")
    });

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setups), "s");
    // The seconds the tenants waited for their reports, summed over jobs.
    e2e.put(
        "wall_s",
        samples.job_latency_ms.iter().sum::<f64>() / 1e3,
        "s",
    );
    e2e.put("crowd_tasks", report.crowd_tasks as f64, "count");
    e2e.put(
        "crowd_hits",
        source.inner().stats().hits_published as f64,
        "count",
    );
    layers::put_http(&mut e2e, &samples, layers::Pace::Paced)?;
    e2e.put("peak_rss_mb", peak_rss_mb, "MB");
    let layer = layers::per_layer(&samples, tracer, 1.0);
    Ok((e2e, layer))
}

/// The open-loop generator: submits job `k` at `start + offsets[k]` on one
/// keep-alive connection, whether or not earlier jobs finished.
fn generate(
    prep: &Prep,
    addr: std::net::SocketAddr,
    start: Instant,
    submitted: mpsc::Sender<(usize, JobId)>,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Samples, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut samples = Samples::default();
    for (k, body) in prep.bodies.iter().enumerate() {
        let due = start + prep.offsets[k];
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        samples.lag_ms_max = samples
            .lag_ms_max
            .max(sent.duration_since(due).as_secs_f64() * 1e3);
        let result = samples.request(tracer, "http.post_job", None, || {
            conn.request("POST", "/jobs", Some(body))
        });
        match result {
            Ok((201, reply)) => match serde_json::from_str::<Receipt>(&reply) {
                Ok(receipt) => {
                    tally.ok();
                    let _ = submitted.send((k, receipt.id));
                }
                Err(e) => tally.fail(format!("unreadable receipt: {e}")),
            },
            Ok((code, reply)) => tally.fail(format!("POST /jobs answered {code}: {reply}")),
            Err(e) => tally.fail(format!("POST /jobs: {e}")),
        }
    }
    samples.reconnects = conn.reconnects;
    Ok(samples)
}

/// What the observer saw: its requests, and each job's terminal report
/// with its latency in ms, by schedule position.
struct Observed {
    samples: Samples,
    jobs: Vec<Option<(JobReport, f64)>>,
}

/// Median job latency of the schedule's last third over its first
/// third's, from latencies in schedule order: near 1 while the daemon
/// keeps up with the schedule, growing with a backlog.
fn backlog_trend(latency_ms: &[f64]) -> f64 {
    let third = (latency_ms.len() / 3).max(1);
    median(&latency_ms[latency_ms.len() - third..]) / median(&latency_ms[..third])
}

/// Watches the daemon on a schedule: one `GET /stats` per tick, whatever
/// the backlog, and when its finished count runs ahead of the reports read
/// so far, one `GET /jobs/{id}` per submitted job not yet read. A job's
/// latency runs from its due time to the read that returned its report.
/// Each read opens its own connection, as the fleet router's do: at this
/// light load a keep-alive request waits out the event loop's idle park,
/// whose length follows the host's timer slack rather than the daemon.
fn observe(
    prep: &Prep,
    addr: std::net::SocketAddr,
    start: Instant,
    submitted: mpsc::Receiver<(usize, JobId)>,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Observed, String> {
    let mut pacer = Pacer::new(prep.seed ^ 0x00b5_e72e, TICK);
    let mut samples = Samples::default();
    let mut jobs = vec![None; prep.bodies.len()];
    let mut read_so_far = 0;
    let mut pending: Vec<(usize, JobId)> = Vec::new();
    let mut open = true;
    let deadline = start + prep.offsets[prep.offsets.len() - 1] + Duration::from_secs(120);
    while open || !pending.is_empty() {
        loop {
            match submitted.try_recv() {
                Ok(job) => pending.push(job),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let stats = samples.request(tracer, "http.stats", None, || {
            http_request(addr, "GET", "/stats", None)
        });
        let finished =
            match stats.map(|(code, body)| (code, serde_json::from_str::<DaemonStats>(&body))) {
                Ok((200, Ok(stats))) => {
                    tally.ok();
                    stats.finished
                }
                Ok((code, _)) => {
                    tally.fail(format!("GET /stats answered {code}"));
                    0
                }
                Err(e) => {
                    tally.fail(format!("GET /stats: {e}"));
                    0
                }
            };
        if finished > read_so_far {
            let mut still = Vec::with_capacity(pending.len());
            for (k, id) in pending {
                let path = format!("/jobs/{}", id.0);
                let result = samples.request(tracer, "http.get_job", None, || {
                    http_request(addr, "GET", &path, None)
                });
                let read = Instant::now();
                match result.map(|(code, body)| (code, serde_json::from_str::<JobSnapshot>(&body)))
                {
                    Ok((
                        200,
                        Ok(JobSnapshot {
                            report: Some(report),
                        }),
                    )) => {
                        tally.ok();
                        let due = start + prep.offsets[k];
                        jobs[k] = Some((report, read.duration_since(due).as_secs_f64() * 1e3));
                        read_so_far += 1;
                    }
                    Ok((200, Ok(JobSnapshot { report: None }))) => {
                        tally.ok();
                        still.push((k, id));
                    }
                    Ok((code, _)) => tally.fail(format!("GET {path} answered {code}")),
                    Err(e) => {
                        tally.fail(format!("GET {path}: {e}"));
                        still.push((k, id));
                    }
                }
            }
            pending = still;
        }
        if Instant::now() > deadline {
            return Err(format!("{} jobs never finished", pending.len()));
        }
        pacer.wait();
    }
    Ok(Observed { samples, jobs })
}

fn wal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_trend_compares_the_last_third_with_the_first() {
        let steady = [10.0, 12.0, 11.0, 10.0, 13.0, 11.0, 12.0, 10.0, 11.0];
        assert_eq!(backlog_trend(&steady), 1.0);
        let growing: Vec<f64> = (1..=9).map(|k| k as f64 * 10.0).collect();
        assert_eq!(backlog_trend(&growing), 4.0);
    }
}
