//! What every workload shares: the keep-alive client that honours
//! `Connection: close`, repeated set-ups, readiness polling, the open-loop
//! pacer, the run's failure tally, the process's peak memory, and the
//! metric list printed at the end.

use coverage_service::http::http_request;
use coverage_service::{HttpClient, JobReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A keep-alive connection to one daemon. The server retires a connection
/// after `keep_alive_max_requests` responses by sending `Connection:
/// close`; the client then reconnects before its next request and counts
/// the reconnect instead of failing on a dead socket.
pub struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
    pub reconnects: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            addr,
            client: Some(HttpClient::connect(addr)?),
            reconnects: 0,
        })
    }

    /// One request/response round trip: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let client = match &mut self.client {
            Some(client) => client,
            slot => {
                self.reconnects += 1;
                slot.insert(HttpClient::connect(self.addr)?)
            }
        };
        client.send(method, path, body)?;
        let (code, headers, body) = client.read_response_with_headers()?;
        let closing = headers
            .iter()
            .any(|(name, value)| name == "connection" && value.eq_ignore_ascii_case("close"));
        if closing {
            self.client = None;
        }
        Ok((code, body))
    }
}

/// Untimed start-ups before the first timed one of a pass: the first
/// start-ups of a process run cold.
pub const WARM_UPS: usize = 2;

/// Starts a system `warm + n` times and stops all but the last: the kept
/// system and the set-up seconds of the `n` starts after the warm-ups.
/// `start` gets the start's index and returns the system with its set-up
/// time.
pub fn repeated_setup<T>(
    warm: usize,
    n: usize,
    mut start: impl FnMut(usize) -> Result<(T, f64), String>,
    mut stop: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    assert!(n > 0, "at least one timed set-up");
    let mut seconds = Vec::with_capacity(n);
    for k in 0..warm + n - 1 {
        let (system, setup_s) = start(k)?;
        if k >= warm {
            seconds.push(setup_s);
        }
        stop(system);
    }
    let (system, setup_s) = start(warm + n - 1)?;
    seconds.push(setup_s);
    Ok((system, seconds))
}

/// Polls `GET /readyz` until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/readyz", None) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Paces a client on a seeded open-loop schedule: intervals drawn
/// uniformly from `[mean/2, 3·mean/2)`. Open loop, so the request rate is
/// the schedule's unless the server falls behind it; jittered, because a
/// fixed period can phase-lock to the server's event-loop park and make
/// the latency depend on the phase the client started in.
pub struct Pacer {
    next: Instant,
    mean_us: u64,
    rng: SmallRng,
}

impl Pacer {
    pub fn new(seed: u64, mean: Duration) -> Self {
        Self {
            next: Instant::now(),
            mean_us: mean.as_micros().max(2) as u64,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Sleeps until the next slot of the schedule (not at all when behind).
    pub fn wait(&mut self) {
        let interval = self.mean_us / 2 + self.rng.gen_range(0..self.mean_us);
        self.next += Duration::from_micros(interval);
        let now = Instant::now();
        if self.next > now {
            std::thread::sleep(self.next - now);
        }
    }
}

/// The slice of a `GET /jobs/{id}` body the clients read: the terminal
/// report, absent while the job is queued or running.
#[derive(Deserialize)]
pub struct JobSnapshot {
    pub report: Option<JobReport>,
}

/// The slice of a `201` submit receipt the clients read.
#[derive(Deserialize)]
pub struct Receipt {
    pub id: coverage_service::JobId,
}

/// Operations attempted and failed over a run, with the first few
/// failure messages for the log. Shared across client threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    messages: std::sync::Mutex<Vec<String>>,
}

impl Tally {
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, message: impl Into<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut messages = self
            .messages
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if messages.len() < 8 {
            messages.push(message.into());
        }
    }

    /// Records a check: a pass or a failure with `message`.
    pub fn check(&self, passed: bool, message: impl FnOnce() -> String) {
        if passed {
            self.ok();
        } else {
            self.fail(message());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn messages(&self) -> Vec<String> {
        self.messages
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// next [`peak_rss_mb`] covers only what runs after this call. Linux
/// only; elsewhere the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Metrics in the order they are printed: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_setup_keeps_the_last_start_and_times_past_the_warm_ups() {
        let mut stopped = Vec::new();
        let (kept, seconds) =
            repeated_setup(2, 3, |k| Ok((k, k as f64 / 10.0)), |k| stopped.push(k))
                .expect("every start succeeds");
        assert_eq!(kept, 4);
        assert_eq!(stopped, vec![0, 1, 2, 3]);
        assert_eq!(seconds, vec![0.2, 0.3, 0.4]);
    }

    #[test]
    fn repeated_setup_stops_at_the_first_failed_start() {
        let result = repeated_setup(
            0,
            3,
            |k| {
                if k == 1 {
                    Err("boom".to_string())
                } else {
                    Ok(((), 0.1))
                }
            },
            |_| {},
        );
        assert_eq!(result.err().as_deref(), Some("boom"));
    }
}
