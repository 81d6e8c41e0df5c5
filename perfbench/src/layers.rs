//! Raw per-layer observations gathered while a workload runs, and the
//! metrics derived from them: the HTTP figures every workload reports end
//! to end, and the per-layer breakdown of the traced run.

use crate::harness::Metrics;
use crate::platform::PlatformMeter;
use crate::stats::{median_or_zero, percentile};
use crate::trace::Tracer;
use coverage_core::memo::ReuseStats;
use coverage_service::http::http_request;
use coverage_service::{DispatchStats, JobReport, ServiceReport};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

#[derive(Default)]
pub struct Samples {
    /// Every client request's latency, in ms.
    pub http_ms: Vec<f64>,
    /// The same latencies by route.
    pub route_ms: BTreeMap<&'static str, Vec<f64>>,
    pub reconnects: u64,
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    /// Job latency from due time to the client reading the terminal
    /// report, in ms (open-loop workloads).
    pub job_latency_ms: Vec<f64>,
    /// Logical ledger tasks of every job served.
    pub questions: f64,
    pub engine_ms: Vec<f64>,
    pub crowd_tasks: f64,
    pub reuse: ReuseStats,
    pub dispatch: DispatchStats,
    pub round_latency_ms: f64,
    pub platform_calls: f64,
    pub platform_answers: f64,
    pub platform_busy_ms: f64,
    pub facts: Vec<f64>,
    pub export_ms: Vec<f64>,
    pub converge_ms: Vec<f64>,
    pub delta_ms: Vec<f64>,
    pub delta_bytes: Vec<f64>,
    pub absorb_ms: Vec<f64>,
    pub deltas_shipped: f64,
    pub wal_records: f64,
    pub wal_bytes: Vec<f64>,
    pub shutdown_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub lag_ms_max: f64,
}

impl Samples {
    /// Runs one client request inside a span named after its `route`
    /// (`http.get_job`, …) under `parent`, and records its latency.
    pub fn request<T>(
        &mut self,
        tracer: &Tracer,
        route: &'static str,
        parent: Option<u64>,
        call: impl FnOnce() -> T,
    ) -> T {
        let sent = Instant::now();
        let result = tracer.time(route, parent, call);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        self.http_ms.push(ms);
        self.route_ms.entry(route).or_default().push(ms);
        result
    }

    /// Folds in what one client thread observed: its requests,
    /// reconnects, job latencies and schedule lag.
    pub fn absorb_client(&mut self, client: Samples) {
        self.http_ms.extend(client.http_ms);
        for (route, ms) in client.route_ms {
            self.route_ms.entry(route).or_default().extend(ms);
        }
        self.reconnects += client.reconnects;
        self.job_latency_ms.extend(client.job_latency_ms);
        self.lag_ms_max = self.lag_ms_max.max(client.lag_ms_max);
    }

    /// A terminal report: its queue and run phases.
    pub fn job(&mut self, report: &JobReport) {
        if let Some(queued) = report.phases_ms.get("queued") {
            self.queue_ms.push(queued as f64);
        }
        if let Some(run) = report.phases_ms.get("run") {
            self.run_ms.push(run as f64);
        }
    }

    /// A daemon's lifetime report: spend, store and dispatcher tallies.
    pub fn service(&mut self, report: &ServiceReport) {
        self.crowd_tasks += report.crowd_tasks as f64;
        self.reuse.absorb(&report.reuse);
        let (d, r) = (&mut self.dispatch, &report.dispatch);
        d.rounds += r.rounds;
        d.point_hits += r.point_hits;
        d.points_served += r.points_served;
        d.set_queries_served += r.set_queries_served;
        d.set_batches += r.set_batches;
        d.memberships_served += r.memberships_served;
        d.max_round_questions = d.max_round_questions.max(r.max_round_questions);
        d.retries += r.retries;
    }

    pub fn platform(&mut self, meter: &PlatformMeter) {
        self.platform_calls += meter.calls() as f64;
        self.platform_answers += meter.answers() as f64;
        self.platform_busy_ms += meter.busy_ms();
    }

    /// Adds the anti-entropy and WAL counters of each daemon's `/metrics`.
    pub fn scrape(&mut self, addrs: &[SocketAddr]) {
        for addr in addrs {
            if let Ok((200, text)) = http_request(*addr, "GET", "/metrics", None) {
                self.deltas_shipped += prometheus_sum(&text, "audit_fleet_deltas_total");
                self.wal_records += prometheus_sum(&text, "audit_wal_records_total");
            }
        }
    }
}

/// The sum of every sample of metric `name` (all label sets) in a
/// Prometheus text exposition.
fn prometheus_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// How a workload's clients send their requests.
pub enum Pace {
    /// Back to back, each client's next request when its last is
    /// answered, for `elapsed_s` seconds.
    Closed { elapsed_s: f64 },
    /// On a schedule, idling between requests.
    Paced,
}

/// The end-to-end HTTP figures: throughput and the latency median. Closed
/// loop, throughput is requests over the seconds the clients ran. Paced
/// clients send at the schedule's rate whatever the server does, so their
/// throughput is the rate one closed-loop client would reach at the
/// median latency measured, which follows the server. (The mean latency
/// would catch the tail too, but on a shared 2-vCPU host it moved by a
/// quarter from run to run.) Errors when the run was too short for the
/// p99 that the per-layer breakdown reports.
pub fn put_http(e2e: &mut Metrics, samples: &Samples, pace: Pace) -> Result<(), String> {
    let p50 = percentile(&samples.http_ms, 0.5)?;
    let p99 =
        percentile(&samples.http_ms, 0.99).map_err(|e| format!("http.latency_p99_ms: {e}"))?;
    let req_per_s = match pace {
        Pace::Closed { elapsed_s } => samples.http_ms.len() as f64 / elapsed_s,
        Pace::Paced => 1e3 / p50.value,
    };
    e2e.put("req_per_s", req_per_s, "1/s");
    e2e.put("http_latency_p50_ms", p50.value, "ms");
    eprintln!(
        "http: {} requests, p50 {:.3} ms, p99 {:.3} ms",
        p99.samples, p50.value, p99.value
    );
    Ok(())
}

/// A percentile that is reported as 0 (layer not exercised enough) rather
/// than failing the run; per-layer figures carry no bound.
fn soft_percentile(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).map_or(0.0, |p| p.value)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric. Counts are per unit of work (`units`: audits
/// for `census_fleet`, one run for the others).
pub fn per_layer(samples: &Samples, tracer: &Tracer, units: f64) -> Metrics {
    let mut m = Metrics::default();
    let route =
        |name: &str| soft_percentile(samples.route_ms.get(name).map_or(&[][..], |v| v), 0.5);
    let us = |name: &str| median_or_zero(&tracer.durations_ms(name)) * 1e3;
    let per = |count: f64| count / units;

    m.put(
        "http.latency_p90_ms",
        soft_percentile(&samples.http_ms, 0.9),
        "ms",
    );
    m.put(
        "http.latency_p99_ms",
        soft_percentile(&samples.http_ms, 0.99),
        "ms",
    );
    m.put("http.healthz_ms_p50", route("http.healthz"), "ms");
    m.put("http.get_job_ms_p50", route("http.get_job"), "ms");
    m.put("http.stats_ms_p50", route("http.stats"), "ms");
    m.put("http.metrics_ms_p50", route("http.metrics"), "ms");
    m.put("http.post_job_ms_p50", route("http.post_job"), "ms");
    m.put("http.report_to_json_us", us("http.report_to_json"), "us");
    m.put("http.spec_parse_us", us("http.spec_parse"), "us");
    m.put("http.reconnects", per(samples.reconnects as f64), "count");

    m.put(
        "scheduler.queue_wait_ms_p50",
        soft_percentile(&samples.queue_ms, 0.5),
        "ms",
    );
    m.put(
        "scheduler.queue_wait_ms_p90",
        soft_percentile(&samples.queue_ms, 0.9),
        "ms",
    );
    m.put(
        "scheduler.run_ms_p50",
        soft_percentile(&samples.run_ms, 0.5),
        "ms",
    );
    m.put(
        "scheduler.job_latency_p50_ms",
        soft_percentile(&samples.job_latency_ms, 0.5),
        "ms",
    );
    m.put(
        "scheduler.job_latency_p90_ms",
        soft_percentile(&samples.job_latency_ms, 0.9),
        "ms",
    );

    m.put(
        "engine.compute_ms",
        median_or_zero(&samples.engine_ms),
        "ms",
    );
    m.put("engine.questions", per(samples.questions), "count");

    let reuse = &samples.reuse;
    m.put("store.hits", per(reuse.hits as f64), "count");
    m.put("store.narrowed", per(reuse.narrowed as f64), "count");
    m.put("store.forwarded", per(reuse.forwarded as f64), "count");
    m.put(
        "store.objects_pruned",
        per(reuse.objects_pruned as f64),
        "count",
    );
    m.put(
        "store.hit_ratio",
        ratio(reuse.hits as f64, reuse.questions() as f64),
        "ratio",
    );
    m.put("store.facts", median_or_zero(&samples.facts), "count");
    m.put("store.export_ms", median_or_zero(&samples.export_ms), "ms");

    m.put(
        "governor.paid_share",
        ratio(samples.crowd_tasks, samples.questions),
        "ratio",
    );

    let d = &samples.dispatch;
    let served = (d.points_served + d.set_queries_served + d.memberships_served) as f64;
    m.put("dispatch.rounds", per(d.rounds as f64), "count");
    m.put(
        "dispatch.questions_per_round",
        ratio(served, d.rounds as f64),
        "count",
    );
    m.put("dispatch.point_hits", per(d.point_hits as f64), "count");
    m.put("dispatch.set_batches", per(d.set_batches as f64), "count");
    m.put(
        "dispatch.max_round_questions",
        d.max_round_questions as f64,
        "count",
    );
    m.put("dispatch.retries", per(d.retries as f64), "count");
    m.put(
        "dispatch.round_wait_ms",
        per(d.rounds as f64 * samples.round_latency_ms),
        "ms",
    );

    m.put("platform.calls", per(samples.platform_calls), "count");
    m.put("platform.busy_ms", per(samples.platform_busy_ms), "ms");
    m.put(
        "platform.labels_per_call",
        ratio(samples.platform_answers, samples.platform_calls),
        "count",
    );

    m.put("persist.wal_records", per(samples.wal_records), "count");
    m.put(
        "persist.wal_bytes",
        median_or_zero(&samples.wal_bytes),
        "bytes",
    );
    m.put(
        "persist.shutdown_ms",
        median_or_zero(&samples.shutdown_ms),
        "ms",
    );
    m.put(
        "persist.recover_ms",
        median_or_zero(&samples.recover_ms),
        "ms",
    );

    m.put(
        "fleet.converge_ms",
        median_or_zero(&samples.converge_ms),
        "ms",
    );
    m.put(
        "fleet.delta_since_ms",
        median_or_zero(&samples.delta_ms),
        "ms",
    );
    m.put(
        "fleet.delta_bytes",
        median_or_zero(&samples.delta_bytes),
        "bytes",
    );
    m.put("fleet.absorb_ms", median_or_zero(&samples.absorb_ms), "ms");
    m.put("fleet.deltas_shipped", per(samples.deltas_shipped), "count");

    m.put("gen.lag_ms_max", samples.lag_ms_max, "ms");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_sum_adds_every_label_set_of_one_family() {
        let text = "# TYPE audit_fleet_deltas_total counter\n\
                    audit_fleet_deltas_total{peer=\"node0\"} 4\n\
                    audit_fleet_deltas_total{peer=\"node1\"} 3\n\
                    audit_fleet_deltas_total_other 100\n\
                    audit_wal_records_total 7\n";
        assert_eq!(prometheus_sum(text, "audit_fleet_deltas_total"), 7.0);
        assert_eq!(prometheus_sum(text, "audit_wal_records_total"), 7.0);
        assert_eq!(prometheus_sum(text, "audit_missing_total"), 0.0);
    }
}
