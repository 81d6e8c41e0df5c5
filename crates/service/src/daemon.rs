//! The audit job pool: submit any time, query live, drain, stop.
//!
//! The paper frames coverage auditing as a standing service a dataset
//! owner consults on demand — which is what an [`AuditDaemon`] is. It owns
//! the job table, the priority queue, the worker pool, the batching
//! dispatcher and the sharded platform-wide [`SharedKnowledgeSource`] for
//! its **whole lifetime**, so facts bought by a job today keep shrinking
//! the queries of every job submitted tomorrow:
//!
//! ```text
//!             submit(JobSpec) ──▶ PriorityQueue ──▶ worker 1..W ─┐
//!  any thread  status(JobId)  ◀── job table                     │ run_job
//!  any time    report(JobId)  ◀── (Queued → Running → terminal) │   │
//!             cancel(JobId) ───▶ CancelToken per job            ▼   ▼
//!                       SharedKnowledgeSource ─ GovernedSource ─ dispatcher ─ platform
//! ```
//!
//! This is the only job pool in the crate. The scoped front door,
//! [`AuditService::run`](crate::AuditService::run), starts one inside a
//! thread scope, queues its whole batch, stops intake and returns the
//! pool's own [`ServiceReport`]. Only the dispatcher — the one thread that
//! owns the answer source — runs on the scope, so a borrowed source works
//! there. That is why a report produced here is **byte-identical** (up to
//! wall-clock) to the same spec run through `AuditService::run`; the
//! `daemon_service` integration tests pin it.
//!
//! Free workers pick the highest [`JobSpec::priority`] (service default
//! for unset specs), ties go to the earlier submission, and queued jobs
//! age upward so newcomers can delay but never starve them (see
//! [`crate::scheduler`]).
//!
//! Lifecycle verbs: [`AuditDaemon::cancel`] flips one job's
//! [`CancelToken`] (a queued job reports `Cancelled` without running, a
//! running one stops at its next question with the partial result);
//! [`AuditDaemon::drain`] blocks until nothing is queued or running;
//! [`AuditDaemon::shutdown`] stops intake, drains, joins every thread and
//! returns the final [`ServiceReport`] plus the answer source. The HTTP
//! front-end over this API lives in [`crate::http`].
//!
//! # Example: submit, poll, cancel
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::{AuditDaemon, AuditKind, JobSpec, JobStatus, ServiceConfig};
//! use std::sync::Arc;
//!
//! // An owned ('static) source: the daemon's threads outlive this frame.
//! let labels: Vec<Labels> = (0..600).map(|i| Labels::single(u8::from(i % 6 == 0))).collect();
//! let truth = Arc::new(VecGroundTruth::new(labels));
//! let pool = truth.all_ids();
//! let target = Target::group(Pattern::parse("1").unwrap());
//!
//! let daemon = AuditDaemon::start(
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//!     SharedTruthSource::new(Arc::clone(&truth)),
//! );
//!
//! // Submit at any time; invalid specs are refused at the door.
//! let urgent = daemon
//!     .submit(JobSpec::new("urgent", pool.clone(), AuditKind::GroupCoverage { target: target.clone() }).priority(9))
//!     .unwrap();
//! let doomed = daemon
//!     .submit(JobSpec::new("doomed", pool, AuditKind::GroupCoverage { target }).priority(1))
//!     .unwrap();
//! assert!(daemon.submit(JobSpec::new("bad", vec![], AuditKind::MultipleCoverage { groups: vec![] })).is_err());
//!
//! // Live queries: every submitted job has a status right now...
//! assert!(daemon.status(urgent).is_some());
//! daemon.cancel(doomed);
//! daemon.drain(); // ...and a report once it is terminal.
//! assert!(daemon.report(urgent).unwrap().status.is_done());
//! assert!(daemon.report(doomed).unwrap().status.is_cancelled());
//!
//! let (summary, _source) = daemon.shutdown().expect("first shutdown");
//! assert_eq!(summary.jobs.len(), 2);
//! ```

use crate::breaker::BreakerRegistry;
use crate::dispatch::{
    dispatch_channel, run_dispatcher, DispatchHandle, DispatchStats, DispatcherConfig, RetryPolicy,
};
use crate::fleet::Exchange;
use crate::governor::{BudgetScope, GlobalBudget, GovernedSource, JobBudget};
use crate::job::{AuditKind, AuditOutcome, JobId, JobReport, JobSpec, JobStatus, PhaseDurations};
use crate::persist::{Persistence, SpillFile};
use crate::scheduler::PriorityQueue;
use crate::service::{lock, ServiceConfig, ServiceReport, TenantRateLimit};
use crate::telemetry::{tenant_of, Telemetry};
use coverage_core::base_coverage::base_coverage;
use coverage_core::classifier::{classifier_coverage, ClassifierConfig};
use coverage_core::engine::{AnswerSource, BatchAnswerSource, CancelToken, Engine};
use coverage_core::error::{AskError, Interrupted};
use coverage_core::group_coverage::{group_coverage, DncConfig};
use coverage_core::intersectional::intersectional_coverage;
use coverage_core::ledger::TaskLedger;
use coverage_core::memo::{FactSink, FactSpill, KnowledgeStore, ReuseStats, SharedKnowledgeSource};
use coverage_core::multiple::{multiple_coverage, MultipleConfig};
use coverage_core::prelude::{Labels, ObjectId, Target};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why the daemon's submit door refused a spec. The HTTP front-end maps
/// each variant to its status line: `Invalid` → 400, `ShuttingDown` → 503,
/// `RateLimited` → 429 with a `Retry-After` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// The spec failed [`JobSpec::validate`] — tenant error.
    Invalid(String),
    /// [`AuditDaemon::shutdown`] has begun; intake is closed.
    ShuttingDown,
    /// The tenant exhausted its token bucket or queue quota
    /// ([`ServiceConfig::tenant_rate_limit`]). `retry_after_secs` is the
    /// earliest time a retry can succeed (≥ 1, whole seconds — the
    /// `Retry-After` wire granularity).
    RateLimited {
        /// Seconds until the tenant's bucket refills enough for one job.
        retry_after_secs: u64,
    },
}

impl std::fmt::Display for SubmitRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRefusal::Invalid(message) => f.write_str(message),
            SubmitRefusal::ShuttingDown => f.write_str(SHUTTING_DOWN_MSG),
            SubmitRefusal::RateLimited { retry_after_secs } => write!(
                f,
                "tenant rate limit exceeded; retry after {retry_after_secs}s"
            ),
        }
    }
}

/// The refusal message after shutdown began (also
/// [`AuditDaemon::SHUTTING_DOWN`]; a free const so `SubmitRefusal` can
/// print it without naming the generic daemon type).
const SHUTTING_DOWN_MSG: &str = "daemon is shutting down";

/// One tenant's token bucket: `tokens` refill continuously at
/// `per_second`, capped at `burst`; each admitted submission spends one.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The submit door's admission state when
/// [`ServiceConfig::tenant_rate_limit`] is set.
#[derive(Debug)]
struct RateGate {
    limit: TenantRateLimit,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl RateGate {
    fn new(limit: TenantRateLimit) -> Self {
        Self {
            limit,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token from `tenant`'s bucket, or answers how many whole
    /// seconds until one is available.
    fn admit(&self, tenant: &str) -> Result<(), u64> {
        let mut buckets = lock(&self.buckets);
        let now = Instant::now();
        let bucket = buckets.entry(tenant.to_string()).or_insert(TokenBucket {
            tokens: f64::from(self.limit.burst),
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * f64::from(self.limit.per_second))
            .min(f64::from(self.limit.burst));
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / f64::from(self.limit.per_second)).ceil().max(1.0);
            Err(secs as u64)
        }
    }
}

/// One line of the daemon's job table, as served by `GET /jobs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSummary {
    /// The job's id.
    pub id: JobId,
    /// The spec's label.
    pub name: String,
    /// Algorithm short name.
    pub algorithm: String,
    /// Live status — [`JobStatus::Queued`] / [`JobStatus::Running`] while
    /// the job is in flight, the terminal status afterwards.
    pub status: JobStatus,
}

/// A live snapshot of the whole daemon, as served by `GET /stats`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonStats {
    /// Jobs accepted since start (== size of the job table).
    pub submitted: u64,
    /// Jobs waiting for a worker right now.
    pub queued: u64,
    /// Jobs executing right now.
    pub running: u64,
    /// Jobs with a terminal status — always the sum of the four split
    /// counters below, kept as its own field for wire compatibility (the
    /// pre-split `GET /stats` shape had only `finished`).
    pub finished: u64,
    /// Jobs that ran to completion ([`JobStatus::Done`]).
    pub done: u64,
    /// Jobs stopped by a budget cap ([`JobStatus::Exhausted`]).
    pub exhausted: u64,
    /// Jobs cancelled before or during execution ([`JobStatus::Cancelled`]).
    pub cancelled: u64,
    /// Jobs that failed ([`JobStatus::Failed`]).
    pub failed: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Crowd tasks charged past the knowledge store since start.
    pub crowd_tasks: u64,
    /// Lifetime disposition tally of the shared knowledge store.
    pub reuse: ReuseStats,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

/// One tenant's circuit-breaker state inside a [`Readiness`] body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerSummary {
    /// The tenant (job-name segment before `/`).
    pub tenant: String,
    /// `"closed"`, `"half_open"` or `"open"` (see
    /// [`BreakerState::label`](crate::BreakerState::label)).
    pub state: String,
}

/// One fleet peer's last-observed state inside a [`Readiness`] body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerSummary {
    /// The peer's address as configured ([`ServiceConfig::fleet_peers`])
    /// or joined ([`crate::fleet::FleetNode::join`]).
    pub peer: String,
    /// `"up"` (last anti-entropy exchange succeeded) or `"down"` (the
    /// peer refused the connection or errored).
    pub state: String,
}

/// The daemon's readiness verdict, as served by `GET /readyz` (200 when
/// `ready`, 503 otherwise — liveness is the separate, always-200
/// `GET /healthz`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Readiness {
    /// The overall verdict: the dispatcher is alive **and** the durable
    /// knowledge plane (when configured) has swallowed no I/O error.
    pub ready: bool,
    /// Is the dispatcher thread still serving questions? `false` once it
    /// has exited (shutdown) or died.
    pub dispatcher_alive: bool,
    /// `false` once any persistence write path (WAL append, snapshot,
    /// spill) has swallowed an I/O error — durability is degraded even
    /// though serving continues. `true` when persistence is off.
    pub persistence_healthy: bool,
    /// Every tenant with circuit-breaker history and its current state.
    /// Open breakers don't flip `ready` — they starve one tenant, not the
    /// service — but operators see them here.
    pub breakers: Vec<BreakerSummary>,
    /// Every fleet peer this node gossips with and its last-observed
    /// state, sorted by address. Down peers don't flip `ready` — the
    /// fleet is availability-first (residual questions go to the crowd,
    /// never block on a peer) — but operators see the hole here. Empty
    /// for a solo daemon.
    pub peers: Vec<PeerSummary>,
}

/// What each worker thread needs to run jobs forever.
#[derive(Debug)]
struct WorkerContext {
    shared: Arc<Shared>,
    dispatch: DispatchHandle,
    memo_root: SharedKnowledgeSource<()>,
    global_budget: Arc<GlobalBudget>,
    per_job_budget: Option<u64>,
    telemetry: Telemetry,
    persist: Option<Arc<Persistence>>,
}

#[derive(Debug)]
struct JobSlot {
    /// Held until a worker pops the job and takes it, so a finished job's
    /// pool vector is freed instead of staying resident for the daemon's
    /// lifetime.
    spec: Option<Arc<JobSpec>>,
    /// The spec's label and algorithm, kept for `GET /jobs` and
    /// `GET /jobs/{id}` after the spec is gone.
    name: String,
    algorithm: &'static str,
    status: JobStatus,
    report: Option<JobReport>,
    cancel: CancelToken,
    /// When the submission landed — the anchor for the queue-wait and
    /// submit-to-first-result histograms and the `phases_ms` breakdown.
    submitted_at: Instant,
}

#[derive(Debug)]
struct DaemonState {
    jobs: Vec<JobSlot>,
    queue: PriorityQueue,
    running: usize,
    /// Ids in the order their reports landed — the scheduler's observable
    /// output, pinned by the priority-order tests.
    finished_order: Vec<JobId>,
    /// Flipped once by [`AuditDaemon::shutdown`]: no further submissions,
    /// workers exit when the queue runs dry.
    accepting: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<DaemonState>,
    wakeup: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DaemonState> {
        lock(&self.state)
    }
}

/// A long-lived, concurrently-shareable audit service: the worker pool,
/// dispatcher and platform-wide knowledge store live as long as the daemon
/// does. All methods take `&self`, so wrap it in an [`Arc`] to serve many
/// clients (the HTTP front-end in [`crate::http`] does exactly that).
///
/// See the [module docs](self) for the lifecycle and a full example.
#[derive(Debug)]
pub struct AuditDaemon<S> {
    shared: Arc<Shared>,
    config: ServiceConfig,
    memo_root: SharedKnowledgeSource<()>,
    global_budget: Arc<GlobalBudget>,
    /// The daemon's own dispatcher connection; dropped at shutdown so the
    /// dispatcher (whose other handles die with the workers) can exit.
    dispatch: Mutex<Option<DispatchHandle>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The dispatcher thread, which owns the answer source. `None` after
    /// shutdown, and always for the pool of a scoped
    /// [`AuditService::run`](crate::AuditService::run), whose dispatcher
    /// runs on the run's thread scope.
    dispatcher: Mutex<Option<JoinHandle<(DispatchStats, S)>>>,
    started: Instant,
    telemetry: Telemetry,
    /// The durable knowledge plane, when [`ServiceConfig::data_dir`] is
    /// set: WAL sink, snapshot cadence, shutdown sync (see
    /// [`crate::persist`]).
    persist: Option<Arc<Persistence>>,
    /// Per-tenant token buckets, when
    /// [`ServiceConfig::tenant_rate_limit`] is set.
    rate_gate: Option<RateGate>,
    /// Per-tenant circuit breakers, shared with the dispatcher — the
    /// daemon reads states for [`AuditDaemon::readiness`] and `/readyz`.
    breakers: BreakerRegistry,
    /// Last-observed state of each fleet peer (`true` = up), written by
    /// the anti-entropy loop ([`crate::fleet`]), read by
    /// [`AuditDaemon::readiness`] and `/readyz`. `BTreeMap` so the
    /// readiness body lists peers in a stable order. Empty for a solo
    /// daemon.
    peer_states: Mutex<std::collections::BTreeMap<String, bool>>,
    /// The fleet exchange: ship log (armed when a
    /// [`FleetNode`](crate::fleet::FleetNode) joins) and the watermarks
    /// `POST /fleet/delta` acknowledges.
    exchange: Arc<Exchange>,
}

/// The daemon's one [`FactSink`]: every committed fact goes to the WAL
/// (when persistence is on) and to the fleet exchange's ship log (once
/// joined).
#[derive(Debug)]
struct CommitTee {
    wal: Option<Arc<Persistence>>,
    exchange: Arc<Exchange>,
}

impl FactSink for CommitTee {
    fn on_labels(&self, object: ObjectId, labels: Labels) {
        if let Some(wal) = &self.wal {
            wal.on_labels(object, labels);
        }
        self.exchange.on_labels(object, labels);
    }

    fn on_set_verdict(
        &self,
        objects: &[ObjectId],
        residual: &[ObjectId],
        target: &Target,
        answer: bool,
    ) {
        if let Some(wal) = &self.wal {
            wal.on_set_verdict(objects, residual, target, answer);
        }
        self.exchange
            .on_set_verdict(objects, residual, target, answer);
    }
}

impl<S: BatchAnswerSource + Send> AuditDaemon<S> {
    /// Starts the daemon: spawns the dispatcher (which takes ownership of
    /// `source`) and `config.workers` worker threads, all idle until the
    /// first [`AuditDaemon::submit`].
    ///
    /// # Panics
    /// Panics on non-positive `config` counts (workers, point batch, store
    /// shards) — daemon configuration is operator input, not tenant input.
    pub fn start(config: ServiceConfig, source: S) -> Self
    where
        S: 'static,
    {
        let (mut daemon, dispatcher) = Self::launch(config, source);
        daemon.dispatcher = Mutex::new(Some(std::thread::spawn(dispatcher)));
        daemon
    }

    /// Builds the pool and spawns its workers, but hands the dispatcher —
    /// the one thread that owns `source` — back for the caller to spawn:
    /// [`AuditDaemon::start`] gives it a thread of its own,
    /// [`AuditService::run`](crate::AuditService::run) a thread of its
    /// scope, so a borrowed source works there.
    pub(crate) fn launch(
        config: ServiceConfig,
        source: S,
    ) -> (Self, impl FnOnce() -> (DispatchStats, S) + Send) {
        config.assert_valid();

        let shared = Arc::new(Shared {
            state: Mutex::new(DaemonState {
                jobs: Vec::new(),
                queue: PriorityQueue::with_weights(config.priority_aging, &config.tenant_weights),
                running: 0,
                finished_order: Vec::new(),
                accepting: true,
            }),
            wakeup: Condvar::new(),
        });
        let telemetry = if config.telemetry {
            Telemetry::new(config.trace_capacity)
        } else {
            Telemetry::disabled()
        };
        let (dispatch_handle, dispatch_rx) = dispatch_channel();
        // The daemon keeps its own clone of the breaker registry: the
        // dispatcher records outcomes on it, `readiness()` and the
        // `/readyz` body read tenant states from it.
        let breakers = BreakerRegistry::new(config.breaker_threshold, Duration::from_millis(500));
        let dispatcher_config = DispatcherConfig {
            point_batch: config.point_batch,
            round_latency: config.round_latency,
            telemetry: telemetry.clone(),
            // The jitter seed stays fixed: retries must be reproducible
            // across runs, not tunable.
            retry: RetryPolicy {
                max_attempts: config.retry_max_attempts,
                base: Duration::from_millis(config.retry_base_ms),
                hit_deadline: Duration::from_millis(config.hit_deadline_ms),
                ..RetryPolicy::default()
            },
            breakers: breakers.clone(),
        };
        let global_budget = GlobalBudget::new(config.budget.global, config.point_batch);
        let memo_root: SharedKnowledgeSource<()> =
            SharedKnowledgeSource::with_shards((), config.store_shards);

        // The durable knowledge plane: recover facts from the data dir,
        // seed them into the store (bypassing reuse stats and the sink),
        // then attach the sink — WAL and fleet exchange — and optionally
        // the disk spill before the first worker can commit a fact.
        let persist = config.data_dir.as_ref().map(|dir| {
            let (persistence, recovered) =
                Persistence::open(dir, config.snapshot_every, telemetry.clone())
                    .expect("persistence data_dir must be usable");
            // The spill attaches after open (which discards any stale
            // segment) but before seeding, so a recovered store bigger
            // than the watermark spills down right away.
            if let Some(high_watermark) = config.spill_high_watermark {
                let spill = SpillFile::create(dir, telemetry.clone())
                    .expect("persistence data_dir must be usable");
                memo_root.set_fact_spill(Arc::new(spill) as Arc<dyn FactSpill>, high_watermark);
            }
            if !recovered.is_empty() {
                memo_root.seed_store(&recovered);
            }
            Arc::new(persistence)
        });
        let exchange = Arc::new(Exchange::default());
        memo_root.set_fact_sink(Arc::new(CommitTee {
            wal: persist.clone(),
            exchange: Arc::clone(&exchange),
        }));

        let dispatcher = move || {
            let mut source = source;
            let stats = run_dispatcher(&mut source, dispatch_rx, &dispatcher_config);
            (stats, source)
        };
        let workers = (0..config.workers)
            .map(|_| {
                let context = WorkerContext {
                    shared: Arc::clone(&shared),
                    dispatch: dispatch_handle.clone(),
                    memo_root: memo_root.clone(),
                    global_budget: Arc::clone(&global_budget),
                    per_job_budget: config.budget.per_job,
                    telemetry: telemetry.clone(),
                    persist: persist.clone(),
                };
                std::thread::spawn(move || worker_loop(context))
            })
            .collect();

        let rate_gate = config.tenant_rate_limit.clone().map(RateGate::new);
        let daemon = Self {
            shared,
            config,
            memo_root,
            global_budget,
            dispatch: Mutex::new(Some(dispatch_handle)),
            workers: Mutex::new(workers),
            dispatcher: Mutex::new(None),
            started: Instant::now(),
            telemetry,
            persist,
            rate_gate,
            breakers,
            peer_states: Mutex::new(std::collections::BTreeMap::new()),
            exchange,
        };
        (daemon, dispatcher)
    }

    /// The daemon's configuration — the HTTP front-end reads its
    /// connection-engine knobs (event-loop threads, keep-alive budget)
    /// from here.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The daemon's side of the fleet exchange (see [`crate::fleet`]).
    pub(crate) fn exchange(&self) -> &Exchange {
        &self.exchange
    }

    /// The daemon's telemetry plane: the live metrics registry and trace
    /// ring behind `GET /metrics`, `GET /trace/{id}` and `GET /events`.
    /// The inert [`Telemetry::disabled`] plane when
    /// [`ServiceConfig::telemetry`] is off.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The refusal message for submissions after [`AuditDaemon::shutdown`]
    /// began — the HTTP layer maps exactly this to `503 Service
    /// Unavailable` (a server condition), keeping `400` for spec errors.
    pub const SHUTTING_DOWN: &'static str = SHUTTING_DOWN_MSG;

    /// Submits a job for execution; callable from any thread at any time.
    /// String-error convenience over [`AuditDaemon::try_submit`] — kept
    /// for callers that don't branch on the refusal kind.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, String> {
        self.try_submit(spec).map_err(|refusal| refusal.to_string())
    }

    /// Submits a job for execution with a typed refusal; callable from any
    /// thread at any time.
    ///
    /// The spec is validated **at the door** ([`JobSpec::validate`]): the
    /// daemon's submission boundary is a tenant API, so an invalid spec is
    /// refused with the reason instead of occupying a queue slot (the HTTP
    /// front-end maps [`SubmitRefusal::Invalid`] to 400). Refused once
    /// [`AuditDaemon::shutdown`] has begun (503), and — when
    /// [`ServiceConfig::tenant_rate_limit`] is set — when the tenant's
    /// token bucket or queue quota is exhausted (429 + `Retry-After`).
    /// A token is only spent on an *admitted* submission.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitRefusal> {
        spec.validate().map_err(SubmitRefusal::Invalid)?;
        let id = {
            let mut state = self.shared.lock();
            if !state.accepting {
                return Err(SubmitRefusal::ShuttingDown);
            }
            if let Some(gate) = &self.rate_gate {
                let tenant = tenant_of(&spec.name);
                if let Some(max_queued) = gate.limit.max_queued {
                    if state.queue.tenant_queued(tenant) >= max_queued {
                        // Quota, not rate: the earliest useful retry is
                        // after a queued job drains — advertise 1s.
                        return Err(SubmitRefusal::RateLimited {
                            retry_after_secs: 1,
                        });
                    }
                }
                gate.admit(tenant)
                    .map_err(|retry_after_secs| SubmitRefusal::RateLimited { retry_after_secs })?;
            }
            self.queue(&mut state, spec, CancelToken::new())
        };
        self.shared.wakeup.notify_all();
        Ok(id)
    }

    /// Queues a scoped batch: every job goes in under one lock, so no
    /// worker pops before the whole batch is queued and the batch runs in
    /// pure (priority, submission) order. No door: a spec is validated
    /// when it runs, so an invalid one fails only its own job, and no rate
    /// gate is consulted. Each job keeps the cancel token it comes with.
    pub(crate) fn enqueue(&self, jobs: impl IntoIterator<Item = (JobSpec, CancelToken)>) {
        {
            let mut state = self.shared.lock();
            for (spec, cancel) in jobs {
                self.queue(&mut state, spec, cancel);
            }
        }
        self.shared.wakeup.notify_all();
    }

    /// Puts one admitted job in the table and the queue.
    fn queue(&self, state: &mut DaemonState, spec: JobSpec, cancel: CancelToken) -> JobId {
        let id = JobId(state.jobs.len() as u64);
        let priority = spec.priority.unwrap_or(self.config.default_priority);
        let algorithm = spec.kind.name();
        state
            .queue
            .push_tenant(id.0 as usize, priority, tenant_of(&spec.name));
        self.telemetry.job_submitted();
        self.telemetry.job_queued_delta(1);
        self.telemetry.trace(Some(id.0), "submit", || {
            format!("{} ({algorithm}) queued at priority {priority}", spec.name)
        });
        state.jobs.push(JobSlot {
            name: spec.name.clone(),
            algorithm,
            spec: Some(Arc::new(spec)),
            status: JobStatus::Queued,
            report: None,
            cancel,
            submitted_at: Instant::now(),
        });
        id
    }

    /// The job's status **right now** — `Queued`, `Running`, or terminal.
    /// `None` for an id the daemon never issued.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.lock().jobs.get(id.0 as usize).map(|j| j.status)
    }

    /// The job's terminal report, once it has one (`None` while the job is
    /// still queued or running, or for an unknown id).
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        self.shared
            .lock()
            .jobs
            .get(id.0 as usize)
            .and_then(|j| j.report.clone())
    }

    /// One summary line per submitted job, in submission order.
    pub fn jobs(&self) -> Vec<JobSummary> {
        self.shared
            .lock()
            .jobs
            .iter()
            .enumerate()
            .map(|(index, job)| JobSummary {
                id: JobId(index as u64),
                name: job.name.clone(),
                algorithm: job.algorithm.to_string(),
                status: job.status,
            })
            .collect()
    }

    /// One job's summary and report under a **single** lock acquisition —
    /// a consistent snapshot, so a `Running` status can never be paired
    /// with an already-published report (and one status poll costs one
    /// slot clone, not a scan of the whole job table). `None` for an id
    /// the daemon never issued. This is what `GET /jobs/{id}` serves.
    pub fn snapshot(&self, id: JobId) -> Option<(JobSummary, Option<JobReport>)> {
        let state = self.shared.lock();
        let job = state.jobs.get(id.0 as usize)?;
        Some((
            JobSummary {
                id,
                name: job.name.clone(),
                algorithm: job.algorithm.to_string(),
                status: job.status,
            },
            job.report.clone(),
        ))
    }

    /// Requests cancellation of one job; `false` for an unknown id.
    ///
    /// Cooperative, exactly as in the scoped run: a queued job reports
    /// [`JobStatus::Cancelled`] without running, a running job observes the
    /// token at its next question and reports `Cancelled` with the partial
    /// result, and a job already terminal is unaffected.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.shared.lock().jobs.get(id.0 as usize) {
            Some(job) => {
                job.cancel.cancel();
                true
            }
            None => false,
        }
    }

    /// Ids in the order their reports landed — the scheduler's observable
    /// execution order (priority first, then submission, modulo worker
    /// concurrency).
    pub fn finished_order(&self) -> Vec<JobId> {
        self.shared.lock().finished_order.clone()
    }

    /// Blocks until no job is queued or running. Jobs submitted *after*
    /// drain returns are of course not waited for.
    pub fn drain(&self) {
        let mut state = self.shared.lock();
        while !(state.queue.is_empty() && state.running == 0) {
            state = self
                .shared
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A live snapshot of the daemon's counters.
    pub fn stats(&self) -> DaemonStats {
        let (submitted, queued, running, done, exhausted, cancelled, failed) = {
            let state = self.shared.lock();
            let (mut done, mut exhausted, mut cancelled, mut failed) = (0u64, 0u64, 0u64, 0u64);
            for job in &state.jobs {
                match job.status {
                    JobStatus::Done => done += 1,
                    JobStatus::Exhausted { .. } => exhausted += 1,
                    JobStatus::Cancelled => cancelled += 1,
                    JobStatus::Failed { .. } => failed += 1,
                    JobStatus::Queued | JobStatus::Running => {}
                }
            }
            (
                state.jobs.len() as u64,
                state.queue.len() as u64,
                state.running as u64,
                done,
                exhausted,
                cancelled,
                failed,
            )
        };
        DaemonStats {
            submitted,
            queued,
            running,
            // Derived, not independently tracked: the split counters are
            // the source of truth, `finished` keeps the pre-split wire
            // field alive.
            finished: done + exhausted + cancelled + failed,
            done,
            exhausted,
            cancelled,
            failed,
            workers: self.config.workers as u64,
            crowd_tasks: self.global_budget.tasks_spent(),
            reuse: self.memo_root.reuse_stats(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }

    /// The daemon's readiness verdict: dispatcher liveness, persistence
    /// health, per-tenant breaker states. This is what `GET /readyz`
    /// serves (200 when ready, 503 otherwise).
    pub fn readiness(&self) -> Readiness {
        let dispatcher_alive = lock(&self.dispatcher)
            .as_ref()
            .is_some_and(|handle| !handle.is_finished());
        let persistence_healthy = self
            .persist
            .as_ref()
            .is_none_or(|persist| !persist.is_degraded())
            && self.telemetry.persist_errors_total() == 0;
        let breakers = self
            .breakers
            .states()
            .into_iter()
            .map(|(tenant, state)| BreakerSummary {
                tenant,
                state: state.label().to_string(),
            })
            .collect();
        let peers = lock(&self.peer_states)
            .iter()
            .map(|(peer, up)| PeerSummary {
                peer: peer.clone(),
                state: if *up { "up" } else { "down" }.to_string(),
            })
            .collect();
        Readiness {
            ready: dispatcher_alive && persistence_healthy,
            dispatcher_alive,
            persistence_healthy,
            breakers,
            peers,
        }
    }

    /// Is the daemon still accepting work? `false` once
    /// [`AuditDaemon::shutdown`] has begun — the HTTP layer refuses
    /// state-changing bodies (`/store/import`, `/fleet/delta`) with 503
    /// instead of racing the teardown.
    pub fn is_accepting(&self) -> bool {
        self.shared.lock().accepting
    }

    /// Records the last-observed state of fleet peer `peer` (`true` =
    /// up). Written by the anti-entropy loop after every exchange;
    /// surfaced as [`Readiness::peers`] on `/readyz`. A down peer never
    /// flips `ready` — degraded mode is availability-first.
    pub fn set_peer_state(&self, peer: &str, up: bool) {
        lock(&self.peer_states).insert(peer.to_string(), up);
    }

    /// Absorbs one anti-entropy delta from fleet peer `from`: seeds the
    /// facts into the shared store (bypassing [`ReuseStats`] and the WAL
    /// sink, exactly like recovery — a peer's facts are re-derivable
    /// from *its* WAL, so this node doesn't pay to persist them), logs
    /// the ones it did not hold for relay to its other peers once it has
    /// joined, and
    /// tallies `audit_fleet_deltas_total{peer}`. Backs every
    /// `POST /fleet/delta` the watermark rule accepts.
    pub fn absorb_fleet_delta(&self, from: &str, delta: &KnowledgeStore) {
        if !delta.is_empty() {
            let fresh = self.memo_root.seed_store_fresh(delta);
            self.telemetry
                .record_recovered_facts(delta.fact_count() as u64);
            self.exchange.relay(from, fresh);
        }
        self.telemetry.record_fleet_delta(from);
    }

    /// A consistent copy of the platform-wide fact base — everything the
    /// crowd has been paid for so far (labels, membership facts, set
    /// verdicts), merged across store shards and the disk spill. This is
    /// what `GET /store/export` serves: the whole knowledge plane as one
    /// JSON document a fresh daemon can [`import`](Self::import_store).
    pub fn export_store(&self) -> KnowledgeStore {
        self.memo_root.store_snapshot()
    }

    /// Seeds a previously exported fact base into this daemon's store and
    /// returns how many facts it now holds. Backs `POST /store/import`.
    ///
    /// Imported facts behave exactly like recovered ones: they bypass
    /// [`ReuseStats`] and the WAL sink (so reports stay comparable to an
    /// uninterrupted run), and — when this daemon persists — are made
    /// durable by an immediate snapshot rather than per-fact WAL frames.
    /// Importing while jobs run is safe; in-flight queries see the new
    /// facts at their next store lookup.
    pub fn import_store(&self, store: &KnowledgeStore) {
        if !store.is_empty() {
            self.memo_root.seed_store(store);
            self.telemetry
                .record_recovered_facts(store.fact_count() as u64);
        }
        if let Some(persist) = &self.persist {
            let _ = persist.snapshot(&self.memo_root);
        }
    }

    /// Graceful stop: refuses further submissions, lets the workers drain
    /// the queue, joins every thread and returns the lifetime
    /// [`ServiceReport`] together with the answer source (e.g. to read
    /// platform statistics). `None` on any call after the first.
    pub fn shutdown(&self) -> Option<(ServiceReport, S)> {
        if !self.stop() {
            return None;
        }
        let dispatcher = lock(&self.dispatcher).take()?;
        let (dispatch_stats, source) = dispatcher.join().expect("dispatcher exits cleanly");
        Some((self.service_report(dispatch_stats), source))
    }

    /// The first half of a shutdown: refuses further submissions, lets the
    /// workers drain the queue and joins them, then lets go of the
    /// dispatcher, which exits once it has served its last question.
    /// `false` when shutdown had already begun.
    pub(crate) fn stop(&self) -> bool {
        {
            let mut state = self.shared.lock();
            if !state.accepting {
                return false;
            }
            state.accepting = false;
        }
        self.shared.wakeup.notify_all();
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            worker.join().expect("daemon worker never panics");
        }
        // Workers are gone, so no fact can commit past this point: fsync
        // the WAL and cut a final compacted snapshot, making shutdown →
        // restart lossless by construction. Best-effort on I/O error —
        // the in-flight reports are returned regardless.
        if let Some(persist) = &self.persist {
            let _ = persist.sync();
            let _ = persist.snapshot(&self.memo_root);
        }
        // Workers are gone; dropping the daemon's own handle disconnects
        // the dispatcher's channel and lets it exit with its stats.
        drop(lock(&self.dispatch).take());
        true
    }

    /// The lifetime report of a stopped pool, given its dispatcher's stats.
    pub(crate) fn service_report(&self, dispatch: DispatchStats) -> ServiceReport {
        let state = self.shared.lock();
        let jobs: Vec<JobReport> = state
            .jobs
            .iter()
            .map(|job| job.report.clone().expect("drained daemon job reported"))
            .collect();
        let mut total_logical = TaskLedger::new();
        for job in &jobs {
            total_logical.absorb(&job.ledger);
        }
        let reuse = self.memo_root.reuse_stats();
        ServiceReport {
            total_logical,
            crowd_tasks: self.global_budget.tasks_spent(),
            cache_hits: reuse.hits,
            cache_misses: reuse.forwarded,
            reuse,
            dispatch,
            wall_ms: self.started.elapsed().as_millis() as u64,
            jobs,
        }
    }
}

/// Dropping a daemon without [`AuditDaemon::shutdown`] (early return,
/// panic unwind) must not leak its threads: flag the state, wake the
/// workers (they exit once the queue is dry) and drop the dispatcher
/// handle (it exits when the last worker does). Best-effort and
/// non-blocking — no joins in `drop`, the threads retire on their own.
impl<S> Drop for AuditDaemon<S> {
    fn drop(&mut self) {
        self.shared.lock().accepting = false;
        self.shared.wakeup.notify_all();
        drop(lock(&self.dispatch).take());
    }
}

/// One worker thread: pop the highest-priority job, run it, publish the
/// report, repeat — until shutdown empties the queue.
fn worker_loop(context: WorkerContext) {
    loop {
        let (index, spec, cancel, submitted_at) = {
            let mut state = context.shared.lock();
            loop {
                if let Some(index) = state.queue.pop() {
                    // A job cancelled while queued must never be observed
                    // `Running` — the documented contract is that it
                    // reports `Cancelled` without running (`run_job` sees
                    // the pre-flipped token and returns immediately), so
                    // its last live status stays `Queued`.
                    if !state.jobs[index].cancel.is_cancelled() {
                        state.jobs[index].status = JobStatus::Running;
                    }
                    state.running += 1;
                    let job = &mut state.jobs[index];
                    let spec = job.spec.take().expect("the queue pops each job once");
                    break (index, spec, job.cancel.clone(), job.submitted_at);
                }
                if !state.accepting {
                    return;
                }
                state = context
                    .shared
                    .wakeup
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // `status` now answers `Running`; the next submission or cancel can
        // land concurrently — the job table lock is free while we work.
        let queued_ms = submitted_at.elapsed().as_millis() as u64;
        context.telemetry.job_queued_delta(-1);
        context.telemetry.job_running_delta(1);
        let report = context.run_job(JobId(index as u64), &spec, cancel, queued_ms);
        context.telemetry.job_running_delta(-1);
        context
            .telemetry
            .record_submit_to_first_result_ms(submitted_at.elapsed().as_millis() as u64);
        // Job boundaries are the snapshot cadence check: compacting here
        // keeps the rotation off the per-fact hot path.
        if let Some(persist) = &context.persist {
            persist.maybe_snapshot(&context.memo_root);
        }
        {
            let mut state = context.shared.lock();
            state.jobs[index].status = report.status;
            state.jobs[index].report = Some(report);
            state.finished_order.push(JobId(index as u64));
            state.running -= 1;
        }
        context.shared.wakeup.notify_all();
    }
}

impl WorkerContext {
    /// Runs one job end to end. Budget exhaustion, cancellation and
    /// platform failures arrive as `Err(Interrupted)` values from the
    /// algorithm driver — nothing panics and nothing is caught: the partial
    /// result and the live engine ledger go straight into the report.
    fn run_job(&self, id: JobId, spec: &JobSpec, cancel: CancelToken, queued_ms: u64) -> JobReport {
        let telemetry = &self.telemetry;
        let start = Instant::now();
        telemetry.record_queue_wait_ms(queued_ms);
        telemetry.record_tenant_queue_wait_ms(tenant_of(&spec.name), queued_ms);
        telemetry.trace(Some(id.0), "scheduled", || {
            format!("{} picked up after {queued_ms} ms queued", spec.name)
        });
        // The lifecycle breakdown is plain wall-clock bookkeeping: always
        // computed, telemetry on or off (only the trace/metrics calls are
        // gated). It joins `wall_ms` in the set of fields the byte-identity
        // proptest ignores.
        let phases = |run_ms: u64| {
            let mut phases = PhaseDurations::default();
            phases.push("queued", queued_ms);
            phases.push("run", run_ms);
            phases
        };
        let base = JobReport {
            id,
            name: spec.name.clone(),
            algorithm: spec.kind.name().to_string(),
            status: JobStatus::Failed {
                retries_exhausted: false,
            },
            outcome: None,
            error: None,
            ledger: TaskLedger::new(),
            crowd_tasks: 0,
            reuse: ReuseStats::default(),
            wall_ms: 0,
            phases_ms: PhaseDurations::default(),
        };
        let finish = |report: JobReport| {
            telemetry.trace(Some(id.0), "store", || {
                format!(
                    "{} hit(s), {} narrowed, {} forwarded, {} object(s) pruned",
                    report.reuse.hits,
                    report.reuse.narrowed,
                    report.reuse.forwarded,
                    report.reuse.objects_pruned
                )
            });
            telemetry.trace(
                Some(id.0),
                crate::telemetry::status_label(&report.status),
                || {
                    format!(
                        "{} finished: {} crowd task(s), {} logical",
                        report.name,
                        report.crowd_tasks,
                        report.ledger.total_tasks()
                    )
                },
            );
            telemetry.job_finished(&report.status, tenant_of(&report.name), report.crowd_tasks);
            report
        };
        if let Err(message) = spec.validate() {
            let wall_ms = start.elapsed().as_millis() as u64;
            return finish(JobReport {
                error: Some(message),
                wall_ms,
                phases_ms: phases(wall_ms),
                ..base
            });
        }
        if cancel.is_cancelled() {
            // Cancelled while still queued: report without running.
            let wall_ms = start.elapsed().as_millis() as u64;
            return finish(JobReport {
                status: JobStatus::Cancelled,
                wall_ms,
                phases_ms: phases(wall_ms),
                ..base
            });
        }

        let budget = JobBudget::new(
            spec.budget.or(self.per_job_budget),
            Arc::clone(&self.global_budget),
        );
        // Tag the job's questions with (tenant, job id) so the dispatcher
        // can meter retries per tenant, gate on the tenant's breaker, and
        // land retry/dead-letter events in this job's trace timeline.
        let governed = GovernedSource::new(
            self.dispatch.tagged(tenant_of(&spec.name), id.0),
            budget.clone(),
        );
        let source = self.memo_root.with_inner(governed);
        let mut engine = Engine::with_point_batch(source, spec.n).with_cancel_token(cancel);
        if telemetry.is_enabled() {
            // Forward the core engine's phase events ("phase1",
            // "scan_group") into this job's trace timeline. The probe
            // observes only — the engine cannot hear anything back
            // through it.
            engine.set_probe(coverage_core::probe::ProbeHandle::new(Arc::new(JobProbe {
                telemetry: telemetry.clone(),
                job: id.0,
            })));
        }
        let result = execute_algorithm(spec, &mut engine);
        let ledger = *engine.ledger();
        let crowd_tasks = budget.tasks_spent();
        let reuse = engine.source().local_reuse_stats();
        let wall_ms = start.elapsed().as_millis() as u64;
        let base = JobReport {
            ledger,
            crowd_tasks,
            reuse,
            wall_ms,
            phases_ms: phases(wall_ms),
            ..base
        };
        finish(match result {
            Ok(outcome) => JobReport {
                status: JobStatus::Done,
                outcome: Some(outcome),
                ..base
            },
            Err(Interrupted { error, partial }) => match error {
                AskError::BudgetExhausted(snapshot) => JobReport {
                    status: JobStatus::Exhausted {
                        scope: BudgetScope::from_snapshot(&snapshot),
                        spent: snapshot.spent,
                        cap: snapshot.cap,
                    },
                    outcome: Some(partial),
                    ..base
                },
                AskError::Cancelled => JobReport {
                    status: JobStatus::Cancelled,
                    outcome: Some(partial),
                    ..base
                },
                AskError::SourceFailed(message) => JobReport {
                    status: JobStatus::Failed {
                        retries_exhausted: false,
                    },
                    error: Some(message),
                    ..base
                },
                // A transient error only escapes the dispatcher after the
                // bounded retries (or a breaker refusal) gave up on it —
                // the question was dead-lettered, so the flag lets
                // operators tell "retried and lost" from "never worth
                // retrying".
                AskError::Transient { ref reason, .. } => JobReport {
                    status: JobStatus::Failed {
                        retries_exhausted: true,
                    },
                    error: Some(format!("retries exhausted: {reason}")),
                    ..base
                },
                AskError::ConnectionLost => JobReport {
                    status: JobStatus::Failed {
                        retries_exhausted: false,
                    },
                    error: Some(error.to_string()),
                    ..base
                },
            },
        })
    }
}

/// The bridge from the core engine's [`EngineProbe`](coverage_core::probe)
/// seam to the service's trace ring: every phase event an algorithm driver
/// emits lands in the job's timeline.
struct JobProbe {
    telemetry: Telemetry,
    job: u64,
}

impl coverage_core::probe::EngineProbe for JobProbe {
    fn on_phase(&self, phase: &str, detail: &str) {
        self.telemetry
            .trace(Some(self.job), phase, || detail.to_string());
    }
}

/// Dispatches to the spec's algorithm driver, wrapping both the complete
/// and the partial (interrupted) result into [`AuditOutcome`]. The
/// multi-group drivers interleave their super-group scan on the job's one
/// engine: every live item's next wave shares one set request per step
/// (see `coverage_core::multiple`).
#[allow(clippy::result_large_err)] // the Err carries the partial outcome by design
fn execute_algorithm<S: AnswerSource>(
    spec: &JobSpec,
    engine: &mut Engine<S>,
) -> Result<AuditOutcome, Interrupted<AuditOutcome>> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    match &spec.kind {
        AuditKind::BaseCoverage { target } => base_coverage(engine, &spec.pool, target, spec.tau)
            .map(AuditOutcome::Coverage)
            .map_err(|i| i.map_partial(AuditOutcome::Coverage)),
        AuditKind::GroupCoverage { target } => group_coverage(
            engine,
            &spec.pool,
            target,
            spec.tau,
            spec.n,
            &DncConfig::default(),
        )
        .map(AuditOutcome::Coverage)
        .map_err(|i| i.map_partial(AuditOutcome::Coverage)),
        AuditKind::MultipleCoverage { groups } => multiple_coverage(
            engine,
            &spec.pool,
            groups,
            &MultipleConfig {
                tau: spec.tau,
                n: spec.n,
                ..MultipleConfig::default()
            },
            &mut rng,
        )
        .map(AuditOutcome::Multiple)
        .map_err(|i| i.map_partial(AuditOutcome::Multiple)),
        AuditKind::IntersectionalCoverage { schema } => intersectional_coverage(
            engine,
            &spec.pool,
            schema,
            &MultipleConfig {
                tau: spec.tau,
                n: spec.n,
                ..MultipleConfig::default()
            },
            &mut rng,
        )
        .map(AuditOutcome::Intersectional)
        .map_err(|i| i.map_partial(AuditOutcome::Intersectional)),
        AuditKind::ClassifierCoverage { target, predicted } => classifier_coverage(
            engine,
            &spec.pool,
            predicted,
            target,
            &ClassifierConfig {
                tau: spec.tau,
                n: spec.n,
                ..ClassifierConfig::default()
            },
            &mut rng,
        )
        .map(AuditOutcome::Classifier)
        .map_err(|i| i.map_partial(AuditOutcome::Classifier)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AuditKind;
    use coverage_core::prelude::*;

    fn truth(n: usize, minority: usize) -> Arc<VecGroundTruth> {
        Arc::new(VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        ))
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    fn group_job(name: &str, pool: Vec<ObjectId>) -> JobSpec {
        JobSpec::new(name, pool, AuditKind::GroupCoverage { target: female() }).tau(5)
    }

    #[test]
    fn lifecycle_submit_drain_report_shutdown() {
        let truth = truth(400, 60);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let a = daemon.submit(group_job("a", truth.all_ids())).unwrap();
        let b = daemon.submit(group_job("b", truth.all_ids())).unwrap();
        assert!(daemon.status(a).is_some());
        assert_eq!(daemon.status(JobId(99)), None);
        daemon.drain();
        assert!(daemon.report(a).unwrap().status.is_done());
        assert!(daemon.report(b).unwrap().status.is_done());
        // The twin job was answered from the daemon's knowledge store.
        let stats = daemon.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.finished, 2);
        assert!(stats.reuse.hits > 0, "{stats:?}");
        let (summary, _source) = daemon.shutdown().expect("first shutdown");
        assert_eq!(summary.jobs.len(), 2);
        assert!(daemon.shutdown().is_none(), "second shutdown is a no-op");
    }

    /// The `finished` wire field stays the derived sum of the split
    /// status counters, and the daemon's telemetry plane sees the same
    /// lifecycle: counters, per-job timelines and the Prometheus render
    /// all agree with the job table.
    #[test]
    fn stats_split_terminal_statuses_and_telemetry_agrees() {
        let truth = truth(400, 60);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // The starved job runs first (single worker, submission order): a
        // zero budget refuses its very first question while the knowledge
        // store is still cold — submitted later it could be answered
        // entirely from the twin job's cached facts and finish `Done`.
        let starved = daemon
            .submit(group_job("t/b", truth.all_ids()).budget(0))
            .unwrap();
        let done = daemon.submit(group_job("t/a", truth.all_ids())).unwrap();
        let doomed = daemon.submit(group_job("u/c", truth.all_ids())).unwrap();
        daemon.cancel(doomed);
        daemon.drain();
        let stats = daemon.stats();
        assert_eq!(stats.done, 1, "{stats:?}");
        assert_eq!(stats.exhausted, 1, "{stats:?}");
        assert_eq!(stats.cancelled, 1, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(
            stats.finished,
            stats.done + stats.exhausted + stats.cancelled + stats.failed
        );
        // The split survives the wire.
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"exhausted\":1"), "{json}");

        let telemetry = daemon.telemetry();
        assert!(telemetry.is_enabled(), "daemon default enables telemetry");
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_jobs_submitted_total 3"), "{text}");
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="done"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="exhausted"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_tenant_crowd_tasks_total{tenant="t"}"#),
            "{text}"
        );
        // Each job's timeline starts at submission and ends terminal.
        for (id, terminal) in [
            (done, "done"),
            (starved, "exhausted"),
            (doomed, "cancelled"),
        ] {
            let timeline = telemetry.timeline(id.0);
            assert_eq!(timeline.first().unwrap().phase, "submit", "{timeline:?}");
            assert_eq!(timeline.last().unwrap().phase, terminal, "{timeline:?}");
        }
        // The report's lifecycle breakdown is present alongside wall_ms.
        let report = daemon.report(done).unwrap();
        assert!(report.phases_ms.get("queued").is_some());
        assert!(report.phases_ms.get("run").is_some());
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 3);
    }

    #[test]
    fn invalid_spec_is_refused_at_the_door() {
        let truth = truth(50, 5);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let err = daemon
            .submit(group_job("zero-n", truth.all_ids()).n(0))
            .unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert_eq!(daemon.stats().submitted, 0);
        let (summary, _) = daemon.shutdown().unwrap();
        assert!(summary.jobs.is_empty());
        // Submission after shutdown is refused too.
        let err = daemon
            .submit(group_job("late", truth.all_ids()))
            .unwrap_err();
        assert!(err.contains("shutting down"), "{err}");
    }

    /// ISSUE 8: the submit door's QoS gate. A tenant that bursts past its
    /// token bucket is refused with a typed `RateLimited` refusal carrying
    /// a positive `Retry-After`; other tenants are unaffected (buckets are
    /// per tenant); the queue quota caps simultaneous backlog; and no
    /// limit configured means no behaviour change.
    #[test]
    fn tenant_rate_limit_refuses_with_retry_after() {
        let truth = truth(60, 8);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(1),
                tenant_rate_limit: Some(TenantRateLimit {
                    per_second: 1,
                    burst: 2,
                    max_queued: Some(8),
                }),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Burst of 2 is admitted; the third submission in the same instant
        // is rate-limited.
        daemon
            .try_submit(group_job("a/one", truth.all_ids()))
            .unwrap();
        daemon
            .try_submit(group_job("a/two", truth.all_ids()))
            .unwrap();
        let refusal = daemon
            .try_submit(group_job("a/three", truth.all_ids()))
            .unwrap_err();
        match refusal {
            SubmitRefusal::RateLimited { retry_after_secs } => {
                assert!(retry_after_secs >= 1, "{retry_after_secs}");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // The string door carries the same information.
        let err = daemon
            .submit(group_job("a/four", truth.all_ids()))
            .unwrap_err();
        assert!(err.contains("rate limit"), "{err}");
        // A different tenant has its own bucket.
        daemon
            .try_submit(group_job("b/one", truth.all_ids()))
            .unwrap();
        daemon.drain();
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 3);
    }

    /// The queue quota refuses the (max_queued + 1)-th simultaneous
    /// backlog entry even when the token bucket still has credit.
    #[test]
    fn tenant_queue_quota_caps_backlog() {
        let truth = truth(60, 8);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(5),
                tenant_rate_limit: Some(TenantRateLimit {
                    per_second: 1000,
                    burst: 1000,
                    max_queued: Some(2),
                }),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Three rapid submissions: the worker may start the first, but
        // with round latency holding it the next two fill the quota.
        let mut refused = 0;
        for i in 0..6 {
            if daemon
                .try_submit(group_job(&format!("t/{i}"), truth.all_ids()))
                .is_err()
            {
                refused += 1;
            }
        }
        assert!(
            refused > 0,
            "quota of 2 must refuse some of 6 instant submissions"
        );
        daemon.drain();
        daemon.shutdown();
    }

    /// A popped job's spec leaves the job table: a finished slot keeps
    /// only what `GET /jobs` serves, so pool vectors are not resident for
    /// the daemon's lifetime.
    #[test]
    fn a_finished_slot_holds_no_spec() {
        let truth = truth(200, 30);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let id = daemon.submit(group_job("t/a", truth.all_ids())).unwrap();
        daemon.drain();
        assert!(daemon.shared.lock().jobs[id.0 as usize].spec.is_none());
        let summary = &daemon.jobs()[0];
        assert_eq!(
            (summary.name.as_str(), summary.algorithm.as_str()),
            ("t/a", "group_coverage")
        );
        daemon.shutdown().unwrap();
    }

    #[test]
    fn queued_job_cancels_without_running() {
        let truth = truth(300, 40);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Keep the single worker busy, then cancel a job stuck behind it.
        let blocker = daemon
            .submit(group_job("blocker", truth.all_ids()))
            .unwrap();
        let doomed = daemon.submit(group_job("doomed", truth.all_ids())).unwrap();
        assert!(daemon.cancel(doomed));
        assert!(!daemon.cancel(JobId(42)));
        daemon.drain();
        assert!(daemon.report(blocker).unwrap().status.is_done());
        let report = daemon.report(doomed).unwrap();
        assert!(report.status.is_cancelled());
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 2);
    }
}
