//! The daemon fleet: N cooperating [`AuditDaemon`]s behind one router.
//!
//! One process is a ceiling; facts are keyed by [`ObjectId`] and verdicts
//! compose, so coverage audits distribute. This module turns independent
//! daemons into a fleet with three pieces:
//!
//! * [`HashRing`] — a consistent-hash ring over `ObjectId`s. Each node is
//!   *authoritative* for the objects that hash to it, which gives the
//!   router a data-locality signal and the bench a way to partition a
//!   giant pool into per-node shards. [`ServiceConfig::ring_replicas`]
//!   virtual points per node smooth the shard sizes.
//! * [`FleetNode`] — one daemon + its HTTP front door + an **anti-entropy
//!   loop**: every [`ServiceConfig::anti_entropy_ms`] the node `POST`s
//!   each peer's `/fleet/delta` the facts that peer has not acknowledged
//!   yet (see the dataflow below). Facts a peer already paid the crowd
//!   for are never bought twice.
//! * [`FleetRouter`] — a thin client-side front door: places each
//!   [`JobSpec`] on the node owning most of its pool (ties broken by
//!   tenant load, then total load), proxies status/report/watch to the
//!   owning node, and — when the owner is down — **forwards** the job to
//!   the next-best node instead of blocking (counted as
//!   `audit_fleet_forwarded_total`).
//!
//! # Anti-entropy by acked watermarks
//!
//! ```text
//!  worker commit ──▶ FactSink tee ──┬──▶ WAL (when data_dir is set)
//!                                   └──▶ ship log  seq 1, 2, 3, …  (origin: this node)
//!  POST /fleet/delta ──▶ absorb ───────▶ ship log                  (origin: the sender)
//!
//!  every anti_entropy_ms, or once EARLY_ROUND entries were logged since the
//!  last round began, for each peer, until ack reaches the round's end:
//!    POST /fleet/delta?incarnation=I&after=ack&upto=min(end, ack + SHIP_CHUNK)
//!         body: the log range (ack, upto] minus the entries the peer itself sent
//!    ◀── {"ack": w, "node": name}    w: the peer's contiguous watermark for (sender, I)
//!    ack := w
//!  then drop every log entry all peers have acked
//! ```
//!
//! A joined node keeps a commit-ordered **ship log**: its store at
//! [`FleetNode::join`], then every fresh fact its [`FactSink`] sees (the
//! daemon tees the sink beside the WAL), then the facts each absorbed
//! delta added, tagged with their origin so they are relayed to the
//! other peers but never echoed back (a fact the node already held is
//! not relayed again, so relays die out). Each entry has a sequence
//! number, and each round ships a
//! peer only the range after that peer's ack, so a round costs
//! O(delta), and the log holds only what some peer has not acknowledged.
//! A round ships its range in chunks of at most `SHIP_CHUNK` (512) entries,
//! one `POST` each: both sides build one chunk's JSON tree at a time, and
//! the log drops what every peer has acked after each chunk. A round also
//! starts early once `EARLY_ROUND` (4,096) entries were logged since the
//! last one began, so however fast a job buys facts, the log holds about
//! that many more than the peers have acked. The trigger is eight chunks,
//! not one: a round's JSON work takes the same CPUs as the jobs and their
//! status reads, and a one-chunk trigger kept a round running beside any
//! job that buys hundreds of facts per crowd round. Each entry is its own
//! small allocation, so a long log never holds one large buffer.
//!
//! The receiver keeps, per sender name, the sender's *incarnation* (fresh
//! at every join) and a watermark: the highest sequence number up to which
//! it has absorbed a contiguous prefix. A range that starts at or below
//! the watermark is absorbed and advances it; a gap is refused with the
//! old watermark; an unknown incarnation counts as watermark 0. So a peer
//! that restarted, and with it lost the seeded facts its own WAL never
//! held, answers 0 and is repaired at the next round: from the log, or
//! by one whole-store ship if every peer had acked that prefix and it was
//! dropped. A sender that restarted joins under a new incarnation and
//! ships its log from 0.
//!
//! Degraded mode is availability-first throughout: a down peer means the
//! survivors answer residual questions from the crowd (duplicate spend,
//! bounded by one round — never a stall), `/readyz` shows the hole as
//! [`PeerSummary`](crate::PeerSummary) rows without flipping `ready`,
//! the log keeps what the down peer has not acked, and a restarted node
//! recovers its shard from its own WAL/snapshot
//! ([`ServiceConfig::data_dir`]) before rejoining the exchange. The
//! fleet-equivalence test plane (`tests/tests/fleet_equivalence.rs`)
//! pins the contract: any fleet topology is verdict-identical to a single
//! node, and fleet crowd spend never exceeds the same nodes run in
//! isolation.

use crate::daemon::AuditDaemon;
use crate::http::{http_request, HttpClient, HttpServer};
use crate::job::{JobId, JobReport, JobSpec};
use crate::persist::WalRecord;
use crate::service::{lock, ServiceConfig, ServiceReport};
use crate::telemetry::{tenant_of, Telemetry};
use coverage_core::engine::{BatchAnswerSource, ObjectId};
use coverage_core::memo::{FactSink, KnowledgeStore};
use coverage_core::prelude::{Labels, Target};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The most ship-log entries one `/fleet/delta` `POST` carries.
const SHIP_CHUNK: u64 = 512;

/// New ship-log entries that start an anti-entropy round before its
/// cadence is up.
const EARLY_ROUND: u64 = 8 * SHIP_CHUNK;

/// How long the router sleeps between `/stats` polls while draining.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// SipHash-1-3 with zero keys over `value`'s little-endian bytes: what
/// `DefaultHasher::new()` computed for a `u64` when the ring was first
/// placed. Written out because std does not promise `DefaultHasher`'s
/// algorithm across releases, and every node and router must derive the
/// same ring without exchanging it.
fn hash_one(value: u64) -> u64 {
    // The SipHash initialization constants; XOR with zero keys is a no-op.
    let mut v: [u64; 4] = [
        0x736f_6d65_7073_6575,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    // One 8-byte message block, then the final block: the length (8) in
    // the top byte and no tail bytes.
    for block in [value, 8 << 56] {
        v[3] ^= block;
        sip_round(&mut v);
        v[0] ^= block;
    }
    v[2] ^= 0xff;
    for _ in 0..3 {
        sip_round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// A consistent-hash ring over [`ObjectId`]s: `replicas` virtual points
/// per node, ownership by successor point. Placement is deterministic
/// (pinned hashing), so every fleet participant computes the same ring
/// from `(nodes, replicas)` alone.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` sorted by point — binary-searched per lookup.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring of `nodes` members with `replicas` virtual points each.
    ///
    /// # Panics
    /// Panics when either count is zero — an empty ring owns nothing.
    pub fn new(nodes: usize, replicas: usize) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        assert!(replicas > 0, "a ring needs at least one point per node");
        let mut points = Vec::with_capacity(nodes * replicas);
        for node in 0..nodes {
            for replica in 0..replicas {
                points.push((hash_one(((node as u64) << 32) | replica as u64), node));
            }
        }
        points.sort_unstable();
        Self { points, nodes }
    }

    /// How many nodes the ring places over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node authoritative for `object`: the first ring point at or
    /// after the object's hash, wrapping at the top.
    pub fn owner_of(&self, object: ObjectId) -> usize {
        let point = hash_one(u64::from(object.0));
        let index = self
            .points
            .partition_point(|(p, _)| *p < point)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        self.points[index].1
    }
}

/// The `POST /fleet/delta` wire body: one anti-entropy shipment — the
/// facts `from` holds that the receiver has not acknowledged. Its
/// sequence numbers ride the query string (see the [module docs](self)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetDelta {
    /// The sending node's name — the `peer` label of
    /// `audit_fleet_deltas_total` on the receiver, and the key of the
    /// receiver's watermark for it.
    pub from: String,
    /// The shipped facts. Seeded into the receiver's store exactly like
    /// recovered ones: no reuse-stats movement, no WAL frames (the facts
    /// are re-derivable from the *sender's* WAL).
    pub store: KnowledgeStore,
}

/// The sequence numbers of one `/fleet/delta` shipment, carried in its
/// query string: the sender's `incarnation` and the log range
/// `(after, upto]` the body covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sequence {
    incarnation: u64,
    after: u64,
    upto: u64,
}

impl Sequence {
    /// Parses `incarnation=I&after=A&upto=U` (any order). An empty query
    /// is an unsequenced shipment (`None`): absorbed, never acknowledged.
    pub(crate) fn from_query(query: &str) -> Result<Option<Self>, String> {
        if query.is_empty() {
            return Ok(None);
        }
        let (mut incarnation, mut after, mut upto) = (None, None, None);
        for pair in query.split('&') {
            let (key, raw) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed query pair `{pair}`"))?;
            let value: u64 = raw
                .parse()
                .map_err(|_| format!("malformed `{key}` value `{raw}`"))?;
            match key {
                "incarnation" => incarnation = Some(value),
                "after" => after = Some(value),
                "upto" => upto = Some(value),
                _ => return Err(format!("unknown query key `{key}`")),
            }
        }
        match (incarnation, after, upto) {
            (Some(incarnation), Some(after), Some(upto)) if after <= upto => Ok(Some(Self {
                incarnation,
                after,
                upto,
            })),
            _ => Err(format!(
                "a sequenced delta needs incarnation, after and upto with after <= upto: `{query}`"
            )),
        }
    }
}

/// The receiver's side of the exchange: per sender name, the sender's
/// incarnation and the contiguous watermark — every entry of that
/// incarnation's log up to it has been absorbed.
#[derive(Debug, Default)]
struct Watermarks(HashMap<String, (u64, u64)>);

impl Watermarks {
    /// Offers one shipment from `from`: `(absorb, ack)`. A range starting
    /// at or below the watermark is absorbed and advances it to `upto` (a
    /// re-send leaves it where it is); a gap is refused with the old
    /// watermark; an unknown incarnation counts as watermark 0.
    fn offer(&mut self, from: &str, seq: Sequence) -> (bool, u64) {
        let held = match self.0.get(from) {
            Some(&(incarnation, mark)) if incarnation == seq.incarnation => mark,
            _ => 0,
        };
        if seq.after > held {
            return (false, held);
        }
        let mark = held.max(seq.upto);
        self.0.insert(from.to_string(), (seq.incarnation, mark));
        (true, mark)
    }
}

/// One entry of a ship log.
#[derive(Debug)]
enum Shipment {
    /// A fact this node bought: one crowd answer its [`FactSink`] saw.
    Fact(WalRecord),
    /// A batch of facts: the store at join, or a delta absorbed from a
    /// peer.
    Store(KnowledgeStore),
}

impl Shipment {
    fn facts(&self) -> u64 {
        match self {
            Shipment::Fact(_) => 1,
            Shipment::Store(store) => store.fact_count() as u64,
        }
    }
}

/// The commit-ordered log of what a joined node must ship. Entry `i` of
/// `entries` has sequence number `base + 1 + i`; everything up to `base`
/// every peer has acknowledged, and is dropped.
#[derive(Debug, Default)]
struct ShipLog {
    base: u64,
    /// Each entry with its origin: `None` for this node's own facts, the
    /// sender's name for an absorbed delta. The shipment is boxed so the
    /// deque's own buffer stays a few bytes per entry: a job that buys
    /// facts faster than the peers take them grows a long log, and an
    /// inline buffer of that length would be one large allocation, which
    /// raises the allocator's thresholds and keeps freed memory resident.
    entries: VecDeque<(Option<Arc<str>>, Box<Shipment>)>,
    /// The log's end when the last anti-entropy round began.
    round_began_at: u64,
}

impl ShipLog {
    /// The sequence number of the newest entry.
    fn end(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// The entries in `(after, upto]` that did not come from `peer`.
    fn between<'a>(
        &'a self,
        after: u64,
        upto: u64,
        peer: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Shipment> + 'a {
        let skip = usize::try_from(after.saturating_sub(self.base)).unwrap_or(usize::MAX);
        let take = usize::try_from(upto.saturating_sub(after.max(self.base))).unwrap_or(usize::MAX);
        self.entries
            .iter()
            .skip(skip)
            .take(take)
            .filter(move |(origin, _)| origin.is_none() || origin.as_deref() != peer)
            .map(|(_, shipment)| &**shipment)
    }

    /// The facts in `(after, upto]` to ship a peer that acked `after` —
    /// `None` when part of that range is already dropped, so only a
    /// whole-store ship can repair the peer.
    fn range(&self, after: u64, upto: u64, peer: Option<&str>) -> Option<KnowledgeStore> {
        if after < self.base {
            return None;
        }
        let mut store = KnowledgeStore::new();
        for shipment in self.between(after, upto, peer) {
            match shipment {
                Shipment::Fact(record) => record.apply(&mut store),
                Shipment::Store(facts) => store.merge(facts),
            }
        }
        Some(store)
    }

    /// Facts a peer that acked `after` still lacks — the
    /// `audit_fleet_unacked_facts{peer}` gauge.
    fn unacked(&self, after: u64, peer: Option<&str>) -> u64 {
        self.between(after, self.end(), peer)
            .map(Shipment::facts)
            .sum()
    }

    /// Entries logged since the last round began.
    fn grown(&self) -> u64 {
        self.end() - self.round_began_at
    }

    /// Drops every entry up to `seq`.
    fn drop_through(&mut self, seq: u64) {
        while self.base < seq && self.entries.pop_front().is_some() {
            self.base += 1;
        }
    }
}

/// A joined node's identity in the exchange and its ship log.
#[derive(Debug)]
struct Joined {
    name: String,
    incarnation: u64,
    log: Mutex<ShipLog>,
    /// Wakes the anti-entropy loop once [`EARLY_ROUND`] entries were
    /// logged.
    grown: Condvar,
}

impl Joined {
    fn push(&self, origin: Option<&str>, shipment: Shipment) {
        let mut log = lock(&self.log);
        log.entries
            .push_back((origin.map(Arc::from), Box::new(shipment)));
        if log.grown() == EARLY_ROUND {
            self.grown.notify_one();
        }
    }

    /// Waits until the next round is due: after `cadence`, or sooner once
    /// [`EARLY_ROUND`] entries were logged. Marks the round's start.
    fn await_round(&self, cadence: Duration) {
        let deadline = Instant::now() + cadence;
        let mut log = lock(&self.log);
        while log.grown() < EARLY_ROUND {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            log = self
                .grown
                .wait_timeout(log, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        log.round_began_at = log.end();
    }
}

/// A daemon's side of the fleet exchange: the outbound ship log, armed by
/// [`FleetNode::join`], and the inbound watermarks. Every daemon carries
/// one, so an unjoined daemon still acknowledges `/fleet/delta`
/// shipments. Its [`FactSink`] half sits beside the WAL sink and logs
/// nothing until the node joins.
#[derive(Debug, Default)]
pub(crate) struct Exchange {
    joined: OnceLock<Joined>,
    watermarks: Mutex<Watermarks>,
}

impl Exchange {
    /// This node's fleet name once joined — the `node` of its receipts.
    pub(crate) fn name(&self) -> Option<&str> {
        self.joined.get().map(|joined| joined.name.as_str())
    }

    /// Offers a sequenced shipment from `from` to the watermark rule:
    /// `(absorb, ack)`.
    pub(crate) fn offer(&self, from: &str, seq: Sequence) -> (bool, u64) {
        lock(&self.watermarks).offer(from, seq)
    }

    /// Logs the facts an absorbed delta from `origin` added, so they are
    /// relayed to the other peers (a no-op until joined). Only new facts
    /// go on: a fact that already went round the fleet stops here.
    pub(crate) fn relay(&self, origin: &str, fresh: KnowledgeStore) {
        if let (Some(joined), false) = (self.joined.get(), fresh.is_empty()) {
            joined.push(Some(origin), Shipment::Store(fresh));
        }
    }

    /// Arms the ship log under `name` with a fresh incarnation.
    ///
    /// # Panics
    /// Panics when the exchange is already armed.
    fn arm(&self, name: &str) -> &Joined {
        static JOINS: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |since| since.as_nanos() as u64);
        let joined = Joined {
            name: name.to_string(),
            // Differs from every earlier life of this name: an earlier
            // process joined at another instant, an earlier join in this
            // process at another count.
            incarnation: hash_one(nanos ^ JOINS.fetch_add(1, Ordering::Relaxed)),
            log: Mutex::new(ShipLog::default()),
            grown: Condvar::new(),
        };
        assert!(
            self.joined.set(joined).is_ok(),
            "fleet node `{name}` already joined"
        );
        self.joined.get().expect("armed above")
    }
}

impl FactSink for Exchange {
    fn on_labels(&self, object: ObjectId, labels: Labels) {
        if let Some(joined) = self.joined.get() {
            joined.push(None, Shipment::Fact(WalRecord::Labels { object, labels }));
        }
    }

    fn on_set_verdict(
        &self,
        objects: &[ObjectId],
        residual: &[ObjectId],
        target: &Target,
        answer: bool,
    ) {
        if let Some(joined) = self.joined.get() {
            let record = WalRecord::SetVerdict {
                objects: objects.to_vec(),
                residual: residual.to_vec(),
                target: target.clone(),
                answer,
            };
            joined.push(None, Shipment::Fact(record));
        }
    }
}

/// One fleet member: an [`AuditDaemon`], its [`HttpServer`] front door,
/// and (once [`FleetNode::join`]ed) the anti-entropy thread shipping
/// [`KnowledgeStore`] deltas to its peers.
///
/// ```no_run
/// use coverage_core::prelude::*;
/// use coverage_service::fleet::FleetNode;
/// use coverage_service::ServiceConfig;
/// use std::sync::Arc;
///
/// let truth = Arc::new(VecGroundTruth::new(vec![Labels::single(1); 10]));
/// let node = FleetNode::start(
///     "node0",
///     "127.0.0.1:0",
///     ServiceConfig::default(),
///     SharedTruthSource::new(truth),
/// )
/// .unwrap();
/// println!("serving on {}", node.addr());
/// node.shutdown();
/// ```
#[derive(Debug)]
pub struct FleetNode<S> {
    name: String,
    daemon: Arc<AuditDaemon<S>>,
    server: HttpServer,
    cadence: Duration,
    stop: Arc<AtomicBool>,
    gossip: Mutex<Option<JoinHandle<()>>>,
}

impl<S: BatchAnswerSource + Send + 'static> FleetNode<S> {
    /// Starts one fleet member: the daemon, its HTTP front door on
    /// `addr` (port `0` for an OS-assigned one — see [`FleetNode::addr`])
    /// and, when [`ServiceConfig::fleet_peers`] is non-empty, the
    /// anti-entropy loop toward those peers. With no configured peers the
    /// node serves solo until [`FleetNode::join`] — the two-phase start
    /// that port-`0` topologies need (peer addresses don't exist until
    /// every node has bound).
    pub fn start(
        name: impl Into<String>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        source: S,
    ) -> io::Result<Self> {
        let name = name.into();
        let peers = config.fleet_peers.clone();
        let cadence = Duration::from_millis(config.anti_entropy_ms);
        let daemon = Arc::new(AuditDaemon::start(config, source));
        let server = HttpServer::serve(addr, Arc::clone(&daemon))?;
        let node = Self {
            name,
            daemon,
            server,
            cadence,
            stop: Arc::new(AtomicBool::new(false)),
            gossip: Mutex::new(None),
        };
        if !peers.is_empty() {
            let mut resolved = Vec::with_capacity(peers.len());
            for peer in &peers {
                resolved.push(peer.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("fleet peer `{peer}` resolves to no address"),
                    )
                })?);
            }
            node.join(resolved);
        }
        Ok(node)
    }

    /// The bound address of this node's HTTP front door.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// This node's name — the `from` it stamps on outgoing deltas.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped daemon, for direct (in-process) inspection: stats,
    /// store export, telemetry. Remote callers go through the HTTP door.
    pub fn daemon(&self) -> &Arc<AuditDaemon<S>> {
        &self.daemon
    }

    /// Starts the anti-entropy loop toward `peers` (each the HTTP front
    /// door of another fleet node): arms the ship log with the store as
    /// it stands now, then ships every peer what it has not acked once
    /// per cadence. Idempotent join is not supported — the peer set is
    /// fixed for the node's lifetime.
    ///
    /// # Panics
    /// Panics when the node already gossips (started with configured
    /// peers, or `join` called twice).
    pub fn join(&self, peers: Vec<SocketAddr>) {
        let mut slot = lock(&self.gossip);
        assert!(slot.is_none(), "fleet node `{}` already joined", self.name);
        let joined = self.daemon.exchange().arm(&self.name);
        // Armed before the export: a fact committed in between is both
        // logged and exported (a harmless duplicate, merges are
        // idempotent), never neither.
        let at_join = self.daemon.export_store();
        if !at_join.is_empty() {
            joined.push(None, Shipment::Store(at_join));
        }
        let daemon = Arc::clone(&self.daemon);
        let cadence = self.cadence;
        let stop = Arc::clone(&self.stop);
        *slot = Some(std::thread::spawn(move || {
            anti_entropy_loop(&daemon, &peers, cadence, &stop);
        }));
    }

    /// Graceful stop: ends the anti-entropy loop, closes the HTTP door,
    /// then drains and joins the daemon (returning its lifetime report
    /// and the answer source, as [`AuditDaemon::shutdown`] does).
    pub fn shutdown(self) -> Option<(ServiceReport, S)> {
        self.stop.store(true, Ordering::Release);
        if let Some(gossip) = lock(&self.gossip).take() {
            let _ = gossip.join();
        }
        self.server.shutdown();
        self.daemon.shutdown()
    }

    /// Abrupt stop, for chaos tests: cancels every job, ends the gossip
    /// loop and the HTTP door, and drops the daemon **without** a
    /// graceful shutdown — like a crash, no final snapshot is cut, so a
    /// restart exercises the WAL-replay recovery path. In-flight workers
    /// retire on their own once their cancelled jobs notice.
    pub fn kill(self) {
        self.stop.store(true, Ordering::Release);
        for job in self.daemon.jobs() {
            self.daemon.cancel(job.id);
        }
        if let Some(gossip) = lock(&self.gossip).take() {
            let _ = gossip.join();
        }
        self.server.shutdown();
        // Dropping the last daemon Arc flags the workers down without
        // joining them — the crash analogue (see `AuditDaemon`'s `Drop`).
    }
}

/// The slice of a `/fleet/delta` receipt the sender needs.
#[derive(Deserialize)]
struct Receipt {
    ack: u64,
    node: Option<String>,
}

/// The sender's view of one peer.
#[derive(Debug)]
struct Link {
    addr: SocketAddr,
    /// `addr` as text: the `peer` label of `/readyz` and the sender-side
    /// metrics.
    label: String,
    /// The peer's watermark for this node's incarnation, as last
    /// acknowledged.
    ack: u64,
    /// Set by the first receipt. Until then a round only probes, so the
    /// peer's own facts are never echoed before its name is known.
    greeted: bool,
    /// The peer's fleet name, from its last receipt — entries of this
    /// origin are never shipped back to it.
    name: Option<String>,
}

impl Link {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            label: addr.to_string(),
            ack: 0,
            greeted: false,
            name: None,
        }
    }

    /// What to ship next: `(after, upto, facts)`. An empty probe until
    /// greeted; then the next chunk of the log after `ack`, or — when that
    /// prefix was dropped — the whole store, read after `upto` so it holds
    /// every fact logged up to it.
    fn plan(
        &self,
        log: &Mutex<ShipLog>,
        export: impl FnOnce() -> KnowledgeStore,
    ) -> (u64, u64, KnowledgeStore) {
        if !self.greeted {
            return (self.ack, self.ack, KnowledgeStore::new());
        }
        let (end, chunk) = {
            let log = lock(log);
            let upto = log.end().min(self.ack.saturating_add(SHIP_CHUNK));
            let chunk = log.range(self.ack, upto, self.name.as_deref());
            (log.end(), chunk.map(|facts| (upto, facts)))
        };
        match chunk {
            Some((upto, facts)) => (self.ack, upto, facts),
            None => (0, end, export()),
        }
    }

    /// Adopts a receipt: the peer's watermark (never past what was sent)
    /// and its name.
    fn acknowledge(&mut self, receipt: Receipt, upto: u64) {
        self.ack = receipt.ack.min(upto);
        self.name = receipt.node;
        self.greeted = true;
    }

    /// One round toward this peer: one chunk per `POST` until the peer
    /// has acked everything logged when the round began, or takes no more.
    /// After each acked chunk the log drops what every peer has acked
    /// (`others` is the lowest ack among the other peers), so a long round
    /// does not keep what it already shipped.
    fn exchange<S: BatchAnswerSource + Send + 'static>(
        &mut self,
        daemon: &AuditDaemon<S>,
        joined: &Joined,
        others: u64,
    ) -> io::Result<()> {
        let end = lock(&joined.log).end();
        loop {
            let (after, upto, store) = self.plan(&joined.log, || daemon.export_store());
            let body = serde_json::to_string(&FleetDelta {
                from: joined.name.clone(),
                store,
            })
            .expect("a knowledge store always serializes");
            let path = format!(
                "/fleet/delta?incarnation={}&after={after}&upto={upto}",
                joined.incarnation
            );
            let (code, reply) = http_request(self.addr, "POST", &path, Some(&body))?;
            daemon
                .telemetry()
                .record_fleet_delta_bytes(&self.label, body.len() as u64);
            if code != 200 {
                return Err(io::Error::other(format!("peer answered {code}: {reply}")));
            }
            let receipt = serde_json::from_str::<Receipt>(&reply).map_err(io::Error::other)?;
            self.acknowledge(receipt, upto);
            lock(&joined.log).drop_through(self.ack.min(others));
            if upto == after || self.ack != upto || self.ack >= end {
                return Ok(());
            }
        }
    }
}

/// The per-peer anti-entropy exchange: each round ships every peer the
/// log range after its ack (an empty range still goes out, so a
/// restarted peer's watermark of 0 is heard at once), records the peer's
/// state for `/readyz` and its unacked-facts gauge, then drops the log
/// prefix every peer has acked.
fn anti_entropy_loop<S: BatchAnswerSource + Send + 'static>(
    daemon: &Arc<AuditDaemon<S>>,
    peers: &[SocketAddr],
    cadence: Duration,
    stop: &AtomicBool,
) {
    let joined = daemon
        .exchange()
        .joined
        .get()
        .expect("join arms the exchange before the loop starts");
    let mut links: Vec<Link> = peers.iter().copied().map(Link::new).collect();
    while !stop.load(Ordering::Acquire) {
        joined.await_round(cadence);
        if stop.load(Ordering::Acquire) {
            break;
        }
        for i in 0..links.len() {
            let others = links
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, link)| link.ack)
                .min()
                .unwrap_or(u64::MAX);
            let link = &mut links[i];
            let up = link.exchange(daemon, joined, others).is_ok();
            daemon.set_peer_state(&link.label, up);
            let unacked = lock(&joined.log).unacked(link.ack, link.name.as_deref());
            daemon
                .telemetry()
                .set_fleet_unacked_facts(&link.label, unacked);
        }
        if let Some(acked) = links.iter().map(|link| link.ack).min() {
            lock(&joined.log).drop_through(acked);
        }
    }
}

/// One job as the router tracks it: which node it landed on, and the
/// node-local [`JobId`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetJobId {
    /// Index of the node (into the router's node list) running the job.
    pub node: usize,
    /// The node-local job id.
    pub id: JobId,
}

/// The fleet's thin front door: places jobs by data locality and tenant
/// load, proxies per-job reads to the owning node, and forwards around
/// down nodes instead of blocking on them. Purely a client — it owns no
/// socket and no thread, so anything that can reach the nodes can run
/// one.
#[derive(Debug)]
pub struct FleetRouter {
    nodes: Vec<SocketAddr>,
    ring: HashRing,
    /// Jobs placed so far, per node (outer) and tenant (inner) — the
    /// load half of the placement key.
    placed: Mutex<Vec<HashMap<String, u64>>>,
    telemetry: Telemetry,
}

impl FleetRouter {
    /// A router over `nodes` (each a fleet node's HTTP front door), with
    /// `ring_replicas` virtual points per node — use the same value as
    /// [`ServiceConfig::ring_replicas`] so router and bench agree on
    /// ownership.
    ///
    /// # Panics
    /// Panics on an empty node list or zero replicas.
    pub fn new(nodes: Vec<SocketAddr>, ring_replicas: usize) -> Self {
        let ring = HashRing::new(nodes.len(), ring_replicas);
        let placed = Mutex::new(vec![HashMap::new(); nodes.len()]);
        Self {
            nodes,
            ring,
            placed,
            telemetry: Telemetry::new(16),
        }
    }

    /// The router's own telemetry plane — carries
    /// `audit_fleet_forwarded_total`, the degraded-mode placement tally.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The ring the router places with.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Node indices best-first for `spec`: most pool objects owned
    /// (data locality), then fewest jobs of this tenant already placed
    /// (tenant load), then fewest jobs overall, then lowest index —
    /// a total, deterministic order, which is what makes fleet runs
    /// reproducible enough to compare against single-node runs.
    pub fn placement(&self, spec: &JobSpec) -> Vec<usize> {
        let mut locality = vec![0u64; self.nodes.len()];
        for object in &spec.pool {
            locality[self.ring.owner_of(*object)] += 1;
        }
        let tenant = tenant_of(&spec.name);
        let placed = lock(&self.placed);
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&node| {
            let by_tenant = placed[node].get(tenant).copied().unwrap_or(0);
            let total: u64 = placed[node].values().sum();
            (Reverse(locality[node]), by_tenant, total, node)
        });
        order
    }

    /// Submits `spec` to its best-placed node, falling back down the
    /// placement order when a node is unreachable or shutting down (the
    /// availability-first contract: a down peer costs locality, never
    /// progress). Every fallback hop is one `audit_fleet_forwarded_total`
    /// tick. Errors only when every node refuses.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<FleetJobId> {
        let body = serde_json::to_string(spec).map_err(io::Error::other)?;
        let tenant = tenant_of(&spec.name).to_string();
        let mut last_error = None;
        for (attempt, node) in self.placement(spec).into_iter().enumerate() {
            match http_request(self.nodes[node], "POST", "/jobs", Some(&body)) {
                Ok((201, reply)) => {
                    if attempt > 0 {
                        self.telemetry.record_fleet_forwarded();
                    }
                    *lock(&self.placed)[node].entry(tenant.clone()).or_insert(0) += 1;
                    let id = parse_submit_id(&reply)?;
                    return Ok(FleetJobId { node, id });
                }
                // A node mid-shutdown is as unavailable as a dead one —
                // degrade to the next candidate.
                Ok((503, _)) => last_error = Some(io::Error::other("node shutting down")),
                Ok((code, reply)) => {
                    return Err(io::Error::other(format!(
                        "fleet node {node} refused the spec: {code} {reply}"
                    )))
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error
            .unwrap_or_else(|| io::Error::other("every fleet node refused the submission")))
    }

    /// Proxies `GET /jobs/{id}` to the owning node: the raw
    /// `(status code, body)`. `Err` when that node is unreachable — the
    /// caller decides whether to resubmit elsewhere (see the chaos half
    /// of `tests/tests/fleet_equivalence.rs`).
    pub fn job(&self, job: FleetJobId) -> io::Result<(u16, String)> {
        http_request(
            self.nodes[job.node],
            "GET",
            &format!("/jobs/{}", job.id.0),
            None,
        )
    }

    /// The job's terminal [`JobReport`], proxied from the owning node;
    /// `Ok(None)` while it is still queued or running.
    pub fn report(&self, job: FleetJobId) -> io::Result<Option<JobReport>> {
        let (code, body) = self.job(job)?;
        if code != 200 {
            return Err(io::Error::other(format!(
                "node {} answered {code} for job {}: {body}",
                job.node, job.id
            )));
        }
        serde_json::from_str::<JobSnapshot>(&body)
            .map(|snapshot| snapshot.report)
            .map_err(io::Error::other)
    }

    /// Proxies the chunked `GET /jobs/{id}/watch` stream from the owning
    /// node, returning the de-chunked ndjson once the job reaches a
    /// terminal state.
    pub fn watch(&self, job: FleetJobId) -> io::Result<String> {
        let mut client = HttpClient::connect(self.nodes[job.node])?;
        let (code, body) = client.request("GET", &format!("/jobs/{}/watch", job.id.0), None)?;
        if code != 200 {
            return Err(io::Error::other(format!(
                "node {} answered {code} for the watch stream",
                job.node
            )));
        }
        Ok(body)
    }

    /// Blocks until no **reachable** node has a job queued or running.
    /// Unreachable nodes are skipped — waiting on a dead peer would
    /// violate the availability-first contract (their lost jobs are the
    /// caller's to resubmit).
    pub fn drain(&self) {
        loop {
            let busy =
                self.nodes
                    .iter()
                    .any(|addr| match http_request(*addr, "GET", "/stats", None) {
                        Ok((200, body)) => serde_json::from_str::<QueueDepth>(&body)
                            .is_ok_and(|depth| depth.queued + depth.running > 0),
                        _ => false,
                    });
            if !busy {
                return;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }
}

/// The slice of a `201 {"id", "status"}` submit receipt the router needs.
#[derive(Deserialize)]
struct SubmitReceipt {
    id: JobId,
}

/// The slice of a `GET /jobs/{id}` body the router proxies.
#[derive(Deserialize)]
struct JobSnapshot {
    report: Option<JobReport>,
}

/// The slice of a `GET /stats` body the drain loop polls.
#[derive(Deserialize)]
struct QueueDepth {
    queued: u64,
    running: u64,
}

/// Pulls the [`JobId`] out of a `201 {"id", "status"}` submit receipt.
fn parse_submit_id(reply: &str) -> io::Result<JobId> {
    serde_json::from_str::<SubmitReceipt>(reply)
        .map(|receipt| receipt.id)
        .map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ownership_is_total_and_stable() {
        let ring = HashRing::new(4, 32);
        for raw in 0..10_000u32 {
            let owner = ring.owner_of(ObjectId(raw));
            assert!(owner < 4);
            assert_eq!(owner, ring.owner_of(ObjectId(raw)), "stable per object");
            assert_eq!(
                owner,
                HashRing::new(4, 32).owner_of(ObjectId(raw)),
                "stable across ring instances"
            );
        }
    }

    /// Placement is part of the fleet's wire contract: nodes and routers
    /// built by different toolchains must agree on every owner, and the
    /// census shard pools follow from it. These vectors were taken from
    /// the `DefaultHasher::new()` ring this hash replaced.
    #[test]
    fn ring_placement_matches_the_pinned_golden_vectors() {
        for (value, hash) in [
            (0, 0xbd60_acb6_58c7_9e45),
            (1, 0x1e9f_7341_61d6_2dd9),
            (42, 0x7b3e_724b_36eb_df51),
            ((1 << 32) | 7, 0x885b_6f1b_e42d_b48b),
            (u64::MAX, 0x2f20_5be2_fec8_e38d),
        ] {
            assert_eq!(hash_one(value), hash, "hash of {value:#x}");
        }
        let probes = [0u32, 1, 2, 3, 7, 42, 1000, 2761, 65535, u32::MAX];
        for (nodes, owners, counts, first64) in [
            (
                2,
                vec![0, 0, 0, 0, 0, 1, 0, 1, 1, 0],
                vec![5020, 4980],
                "0000000000000000000000000000000011011110011011001111011011010101",
            ),
            (
                4,
                vec![0, 0, 0, 0, 0, 2, 0, 3, 1, 2],
                vec![2422, 2756, 2572, 2250],
                "0000000000000000000000000000000012011133212012331211211213313201",
            ),
        ] {
            let ring = HashRing::new(nodes, 32);
            let got: Vec<usize> = probes.iter().map(|o| ring.owner_of(ObjectId(*o))).collect();
            assert_eq!(got, owners, "owners at ({nodes}, 32)");
            let mut tally = vec![0usize; nodes];
            for raw in 0..10_000u32 {
                tally[ring.owner_of(ObjectId(raw))] += 1;
            }
            assert_eq!(tally, counts, "shard sizes at ({nodes}, 32)");
            let prefix: String = (0..64u32)
                .map(|raw| char::from(b'0' + ring.owner_of(ObjectId(raw)) as u8))
                .collect();
            assert_eq!(prefix, first64, "owners of 0..64 at ({nodes}, 32)");
        }
    }

    #[test]
    fn ring_spreads_objects_roughly_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for raw in 0..40_000u32 {
            counts[ring.owner_of(ObjectId(raw))] += 1;
        }
        for (node, count) in counts.iter().enumerate() {
            assert!(
                (2_000..=25_000).contains(count),
                "node {node} owns a degenerate shard: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_a_bounded_slice_of_the_keyspace() {
        let before = HashRing::new(3, 64);
        let after = HashRing::new(4, 64);
        let total = 30_000u32;
        let moved = (0..total)
            .filter(|raw| {
                let old = before.owner_of(ObjectId(*raw));
                let new = after.owner_of(ObjectId(*raw));
                old != new
            })
            .count();
        // Consistent hashing's point: growing 3 → 4 nodes should move
        // about a quarter of the keys, not rehash the world.
        assert!(
            moved < (total as usize) / 2,
            "adding one node moved {moved}/{total} keys"
        );
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = HashRing::new(1, 8);
        for raw in [0u32, 1, 17, 9999, u32::MAX] {
            assert_eq!(ring.owner_of(ObjectId(raw)), 0);
        }
    }

    fn seq(incarnation: u64, after: u64, upto: u64) -> Sequence {
        Sequence {
            incarnation,
            after,
            upto,
        }
    }

    #[test]
    fn sequence_rides_the_query_string() {
        assert_eq!(Sequence::from_query(""), Ok(None));
        assert_eq!(
            Sequence::from_query("upto=9&incarnation=7&after=3"),
            Ok(Some(seq(7, 3, 9)))
        );
        for bad in [
            "incarnation=7",
            "incarnation=7&after=9&upto=3",
            "incarnation=x&after=0&upto=0",
            "incarnation=1&after=0&upto=0&extra=1",
            "after",
        ] {
            assert!(Sequence::from_query(bad).is_err(), "{bad}");
        }
    }

    /// The receiver's rule: a contiguous range advances the watermark, a
    /// gap is refused with the old one, an unknown incarnation counts as
    /// 0, and a re-send is absorbed without moving it.
    #[test]
    fn watermark_advances_only_over_contiguous_ranges() {
        let mut marks = Watermarks::default();
        assert_eq!(marks.offer("a", seq(1, 0, 0)), (true, 0), "a probe");
        assert_eq!(marks.offer("a", seq(1, 0, 5)), (true, 5), "contiguous");
        assert_eq!(marks.offer("a", seq(1, 3, 8)), (true, 8), "overlapping");
        assert_eq!(marks.offer("a", seq(1, 10, 12)), (false, 8), "a gap");
        assert_eq!(marks.offer("a", seq(1, 0, 5)), (true, 8), "a re-send");
        assert_eq!(marks.offer("a", seq(1, 8, 8)), (true, 8), "an idle round");
        // Senders are keyed apart.
        assert_eq!(marks.offer("b", seq(1, 4, 6)), (false, 0));
        // A restarted sender: its new incarnation starts from 0, whatever
        // the old one had reached.
        assert_eq!(
            marks.offer("a", seq(2, 8, 9)),
            (false, 0),
            "unknown incarnation"
        );
        assert_eq!(marks.offer("a", seq(2, 0, 3)), (true, 3));
        assert_eq!(
            marks.offer("a", seq(1, 8, 9)),
            (false, 0),
            "the old life is gone"
        );
    }

    fn labels(objects: std::ops::Range<u32>) -> KnowledgeStore {
        let mut store = KnowledgeStore::new();
        for raw in objects {
            store.record_labels(ObjectId(raw), Labels::single(1));
        }
        store
    }

    fn fact(raw: u32) -> Box<Shipment> {
        Box::new(Shipment::Fact(WalRecord::Labels {
            object: ObjectId(raw),
            labels: Labels::single(0),
        }))
    }

    #[test]
    fn ship_log_ranges_skip_the_peers_own_facts_and_dropped_prefixes() {
        let mut log = ShipLog::default();
        log.entries
            .push_back((None, Box::new(Shipment::Store(labels(0..3)))));
        log.entries.push_back((
            Some(Arc::from("b")),
            Box::new(Shipment::Store(labels(10..14))),
        ));
        log.entries.push_back((None, fact(20)));
        assert_eq!(log.end(), 3);
        assert_eq!(
            log.range(0, 3, Some("b")).unwrap().fact_count(),
            4,
            "no echo"
        );
        assert_eq!(
            log.range(0, 3, Some("c")).unwrap().fact_count(),
            8,
            "a relay"
        );
        assert_eq!(log.range(2, 3, Some("c")).unwrap().fact_count(), 1);
        assert_eq!(
            log.range(0, 1, Some("c")).unwrap().fact_count(),
            3,
            "a chunk"
        );
        assert!(log.range(3, 3, None).unwrap().is_empty());
        assert_eq!(log.unacked(1, Some("b")), 1);
        assert_eq!(log.unacked(1, Some("c")), 5);
        log.drop_through(2);
        assert_eq!((log.base, log.end()), (2, 3));
        assert!(log.range(1, 3, None).is_none(), "a dropped prefix");
        assert_eq!(
            log.range(2, 3, None).unwrap().label_of(ObjectId(20)),
            Some(Labels::single(0))
        );
    }

    /// The sender's side: it probes until the first receipt, then ships
    /// after the acked watermark, rewinds when a receipt reports a lower
    /// one, and falls back to one whole-store ship once that prefix is
    /// dropped.
    #[test]
    fn the_sender_rewinds_to_the_acked_watermark() {
        let log = Mutex::new(ShipLog::default());
        for raw in 0..4 {
            lock(&log).entries.push_back((None, fact(raw)));
        }
        let whole = || labels(0..100);
        let mut link = Link::new("127.0.0.1:9".parse().unwrap());
        let (after, upto, facts) = link.plan(&log, whole);
        assert_eq!((after, upto, facts.is_empty()), (0, 0, true), "a probe");
        link.acknowledge(
            Receipt {
                ack: 0,
                node: Some("b".into()),
            },
            upto,
        );

        let (after, upto, facts) = link.plan(&log, whole);
        assert_eq!((after, upto, facts.fact_count()), (0, 4, 4));
        link.acknowledge(
            Receipt {
                ack: 4,
                node: Some("b".into()),
            },
            upto,
        );
        lock(&log).entries.push_back((None, fact(4)));
        let (after, upto, facts) = link.plan(&log, whole);
        assert_eq!(
            (after, upto, facts.fact_count()),
            (4, 5, 1),
            "only the delta"
        );

        // The peer restarted: its receipt says 0, and the next round
        // starts over from the log.
        link.acknowledge(
            Receipt {
                ack: 0,
                node: Some("b".into()),
            },
            upto,
        );
        let (after, upto, facts) = link.plan(&log, whole);
        assert_eq!((after, upto, facts.fact_count()), (0, 5, 5));

        // A receipt never acknowledges past what was sent.
        link.acknowledge(
            Receipt {
                ack: 99,
                node: Some("b".into()),
            },
            upto,
        );
        assert_eq!(link.ack, 5);

        // Once every peer acked and the log dropped that prefix, a
        // rewind to 0 is repaired by one whole-store ship.
        lock(&log).drop_through(5);
        link.acknowledge(
            Receipt {
                ack: 0,
                node: Some("b".into()),
            },
            5,
        );
        let (after, upto, facts) = link.plan(&log, whole);
        assert_eq!((after, upto, facts.fact_count()), (0, 5, 100));
    }

    /// [`EARLY_ROUND`] new entries start the next round before its
    /// cadence is up; with nothing new, a round waits the cadence out.
    #[test]
    fn early_round_entries_start_the_round_early() {
        let joined = Joined {
            name: "a".into(),
            incarnation: 1,
            log: Mutex::new(ShipLog::default()),
            grown: Condvar::new(),
        };
        let started = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for raw in 0..EARLY_ROUND as u32 {
                    joined.push(None, *fact(raw));
                }
            });
            joined.await_round(Duration::from_secs(600));
        });
        assert!(started.elapsed() < Duration::from_secs(300));
        assert_eq!(lock(&joined.log).round_began_at, EARLY_ROUND);
        let started = Instant::now();
        joined.await_round(Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    /// A long log goes out one bounded chunk per `POST`, each starting at
    /// the watermark the last one earned.
    #[test]
    fn the_sender_ships_a_long_log_in_chunks() {
        let log = Mutex::new(ShipLog::default());
        for raw in 0..SHIP_CHUNK as u32 + 3 {
            lock(&log).entries.push_back((None, fact(raw)));
        }
        let mut link = Link::new("127.0.0.1:9".parse().unwrap());
        link.greeted = true;
        let (after, upto, facts) = link.plan(&log, KnowledgeStore::new);
        assert_eq!((after, upto), (0, SHIP_CHUNK));
        assert_eq!(facts.fact_count() as u64, SHIP_CHUNK);
        link.acknowledge(
            Receipt {
                ack: upto,
                node: Some("b".into()),
            },
            upto,
        );
        let (after, upto, facts) = link.plan(&log, KnowledgeStore::new);
        assert_eq!(
            (after, upto, facts.fact_count()),
            (SHIP_CHUNK, SHIP_CHUNK + 3, 3)
        );
    }
}
