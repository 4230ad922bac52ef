//! The shard coordinator: worker registration over a pluggable
//! transport, elastic membership, liveness, work-stealing, fault
//! handling and result collection.
//!
//! The coordinator owns the shard plan and a pool of `dangoron-shard`
//! workers reached through a [`Transport`] — either children it spawned
//! over stdio pipes ([`TransportMode::Spawn`]) or independently started
//! processes that connected to its TCP listener
//! ([`TransportMode::Tcp`]). Registration is the same on every link: the
//! worker's first frame must be a [`proto::Hello`] carrying a protocol
//! version in the accepted range
//! ([`proto::MIN_PROTOCOL_VERSION`]`..=`[`proto::PROTOCOL_VERSION`]) and
//! the capability bit the run's mode needs, and the coordinator answers
//! with one [`Message::Load`] frame holding the workload matrix. Every
//! later [`Assignment`] is *slim* — rank interval + config + query — so
//! queued and re-planned shards reuse the already-loaded matrix instead
//! of re-shipping it (the byte saving is recorded in [`CoordStats`] and
//! the BENCH `shards` section).
//!
//! ## The elastic membership model (TCP mode)
//!
//! The accept window never really closes: after the initial quorum the
//! listener moves to an acceptor thread, and any worker that completes
//! the handshake **mid-run** is admitted as a new member — shipped the
//! retained `Load` frame and dealt work off the pending queue (or, if
//! nothing is pending, via a steal; see below). A dropped worker that
//! re-dials (`dangoron-shard --reconnect`) is deliberately *not*
//! special-cased: it is simply a new member on a new link. Its old
//! identity's in-flight interval was already re-planned when the old
//! link died, and any of the old link's frames still in flight are
//! discarded by their stale assignment id — ids are unique per run, so
//! a rejoin can never double-count.
//!
//! ## Liveness: heartbeats and progress
//!
//! Workers advertising [`proto::CAP_HEARTBEAT`] (protocol v3) are pinged
//! on a fixed cadence and answer from their reader thread even while an
//! assignment is executing; they also report a per-assignment rank
//! frontier ([`Message::Progress`]) after every executed chunk. Hung
//! detection is **progress-based**: a worker is killed only when its
//! outstanding assignment has made no progress for the full timeout — a
//! straggler that keeps reporting is slow but alive and is left to
//! finish (or be stolen from). A v2 worker sends neither pongs nor
//! progress, which degrades exactly to the old coarse per-assignment
//! deadline.
//!
//! ## Work-stealing
//!
//! When the pending queue is empty, an idle worker exists, and a
//! straggler's *remaining* interval (assignment end minus reported
//! frontier) is still large, the coordinator asks the straggler to give
//! half of it up ([`Message::Steal`]). The grant is two-phase and the
//! **worker picks the boundary**: its executor answers between chunks
//! with a binding [`Message::StealGrant`] carrying the new end of its
//! own interval — work it provably has not started — so the handoff can
//! never race the chunk under execution. The coordinator shrinks the
//! outstanding interval to the granted end and re-enqueues the tail as
//! an ordinary pending shard. Because shards are pure functions of their
//! rank interval, the re-partition cannot change the answer.
//!
//! Per round the coordinator ships one [`Assignment`] to every idle
//! worker, then waits on a single event channel fed by one reader thread
//! per worker (plus the acceptor). Three things can happen to an
//! outstanding shard:
//!
//! * **result** — its sorted edge buffer and counters are recorded;
//! * **worker death** (EOF, write failure, protocol damage) — the
//!   shard's rank interval is *re-planned*: split across the surviving
//!   workers ([`crate::plan::split_range`]) and re-enqueued;
//! * **no progress for the timeout** — the worker is killed and the
//!   shard re-planned the same way.
//!
//! A frame from a worker the coordinator already gave up on (its kill
//! racing a final in-flight `Result`) is identified by its stale
//! assignment id and discarded — never merged twice. Killing a worker
//! severs both link directions ([`Transport::kill`]), which unblocks and
//! joins its reader thread; no thread or child process outlives
//! [`run`], including on error paths (worker handles kill on drop).
//!
//! Because shards are pure functions of their rank interval, re-planning
//! never changes the answer: any disjoint cover of the triangle merges to
//! the same matrices ([`crate::merge`]), so even a run that lost workers
//! mid-flight — or had them join, leave, rejoin and steal from each other
//! under an injected [`FaultPlan`] — is bit-identical to the
//! single-process engine. Every membership, steal and retry event is
//! counted in [`CoordStats`] and surfaces in the BENCH `shards` section.

use crate::chaos::{ChaosTransport, FaultPlan};
use crate::merge::{merge_shard_edges, ShardEdges};
use crate::metrics::CoordMetrics;
use crate::plan::{split_range, ShardPlan};
use crate::proto::{self, Assignment, Message, WorkerMode};
use crate::transport::{ChildTransport, TcpTransport, Transport};
use crate::worker;
use bytes::frame;
use dangoron::{DangoronConfig, PruningStats};
use sketch::{triangular, SlidingQuery, ThresholdedMatrix};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Read;
use std::net::TcpListener;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tsdata::TimeSeriesMatrix;

/// Why a distributed run could not produce a result. Structured so
/// callers (and the `dangoron-coord` binary's exit paths) can
/// distinguish configuration problems from cluster-death ones.
#[derive(Debug)]
pub enum CoordError {
    /// The TCP listener could not be bound.
    Bind {
        /// The requested listen address.
        addr: String,
        /// The OS error text.
        reason: String,
    },
    /// No worker ever registered (accept window closed empty, or every
    /// link failed during registration).
    NoWorkers {
        /// What went wrong.
        reason: String,
    },
    /// Every worker was lost with work outstanding, and (in elastic TCP
    /// mode) no replacement joined within the re-join window.
    NoSurvivors {
        /// Shards still queued when the last worker died.
        pending: usize,
        /// Shards that were in flight on now-dead workers.
        in_flight: usize,
        /// Shards completed before the collapse.
        completed: usize,
    },
    /// One rank interval kept failing until its re-plan budget ran out.
    AttemptsExhausted {
        /// The interval that could not be completed.
        ranks: Range<usize>,
        /// The configured attempt ceiling it exceeded.
        attempts: u32,
    },
    /// Anything else: configuration errors, protocol violations,
    /// engine-side failures of the in-process tiers.
    Internal(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bind { addr, reason } => {
                write!(f, "cannot bind TCP listener on {addr}: {reason}")
            }
            Self::NoWorkers { reason } => write!(f, "no workers: {reason}"),
            Self::NoSurvivors {
                pending,
                in_flight,
                completed,
            } => write!(
                f,
                "every worker died with {pending} shard(s) pending and {in_flight} in flight \
                 ({completed} completed)"
            ),
            Self::AttemptsExhausted { ranks, attempts } => {
                write!(f, "shard {ranks:?} exceeded {attempts} re-plan attempts")
            }
            Self::Internal(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<String> for CoordError {
    fn from(msg: String) -> Self {
        Self::Internal(msg)
    }
}

/// Where the coordinator's workers come from.
#[derive(Debug, Clone)]
pub enum TransportMode {
    /// Spawn `dangoron-shard` children and speak over stdio pipes.
    Spawn {
        /// Path to the `dangoron-shard` worker binary.
        worker_bin: PathBuf,
    },
    /// Bind `listen` and accept workers started independently with
    /// `dangoron-shard --connect ADDR`. The membership is elastic:
    /// workers may also connect mid-run.
    Tcp {
        /// Address to bind (e.g. `127.0.0.1:7441`, or port `0` for an
        /// OS-assigned port — then use [`run_with_listener`] to learn it).
        listen: String,
        /// How long to wait for `n_workers` links before starting with
        /// however many arrived (at least one). Also the grace window a
        /// run that lost *every* worker waits for a replacement to join
        /// before giving up.
        accept_timeout: Duration,
    },
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// How workers are reached.
    pub transport: TransportMode,
    /// Number of shards to plan.
    pub n_shards: usize,
    /// Worker links to establish (clamped to the shard count).
    pub n_workers: usize,
    /// Engine threads *inside* each worker process.
    pub worker_threads: usize,
    /// Batch query or streaming replay.
    pub mode: WorkerMode,
    /// How long an outstanding assignment may go **without progress**
    /// before its worker is declared hung and killed. For v2 workers
    /// (no progress frames) this is the whole-assignment deadline.
    pub timeout: Duration,
    /// Deadline for a new link's `Hello` frame — spawned children and
    /// TCP peers (initial and late-joining) alike.
    pub handshake_timeout: Duration,
    /// Crash injection (spawn mode only): this worker index aborts on its
    /// first assignment (sets [`worker::FAIL_ENV`] in the child's
    /// environment) — the replan path's deterministic test hook. TCP
    /// workers are separate processes, so there the operator sets the
    /// environment variable on the worker itself.
    pub kill_worker: Option<usize>,
    /// Upper bound on re-plan generations per rank interval before the
    /// run is abandoned.
    pub max_attempts: u32,
    /// How long an assignment must have been outstanding before an idle
    /// worker may steal its tail. Keeps fast runs steal-free (everything
    /// completes well inside the window) while a genuine straggler —
    /// slow but alive past this age — gets split.
    pub steal_after: Duration,
    /// Fault-injection schedule applied to the coordinator's outgoing
    /// side of every link, in admission order (see [`crate::chaos`]).
    pub chaos: Option<FaultPlan>,
    /// Metric registry the run records into (`None` ⇒ a private one).
    /// Pass the registry mounted in a [`obs::MetricsServer`] to watch the
    /// run live; use a fresh registry per run — counters are cumulative.
    pub registry: Option<Arc<obs::Registry>>,
}

impl CoordinatorConfig {
    /// Spawn-mode defaults: one worker per shard, single-threaded
    /// workers, batch mode, a generous 120 s deadline.
    pub fn new(worker_bin: PathBuf, n_shards: usize) -> Self {
        Self {
            transport: TransportMode::Spawn { worker_bin },
            n_shards,
            n_workers: n_shards,
            worker_threads: 1,
            mode: WorkerMode::Batch,
            timeout: Duration::from_secs(120),
            handshake_timeout: Duration::from_secs(10),
            kill_worker: None,
            max_attempts: 4,
            steal_after: Duration::from_millis(500),
            chaos: None,
            registry: None,
        }
    }

    /// TCP-mode defaults: like [`CoordinatorConfig::new`], but accepting
    /// `n_shards` workers on `listen` (30 s accept window).
    pub fn tcp(listen: impl Into<String>, n_shards: usize) -> Self {
        Self {
            transport: TransportMode::Tcp {
                listen: listen.into(),
                accept_timeout: Duration::from_secs(30),
            },
            ..Self::new(PathBuf::new(), n_shards)
        }
    }
}

/// Per-completed-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The rank interval (post-replan and post-steal intervals can be
    /// finer than the original plan).
    pub ranks: Range<usize>,
    /// Which re-plan generation produced it (0 = original plan; a stolen
    /// tail inherits its victim's generation).
    pub attempt: u32,
    /// Worker-side prepare/open wall seconds.
    pub prepare_s: f64,
    /// Worker-side query/drain wall seconds.
    pub query_s: f64,
    /// The shard's pruning counters.
    pub stats: PruningStats,
    /// Edges the shard contributed.
    pub n_edges: usize,
}

/// Run-level coordinator accounting.
#[derive(Debug, Clone, Default)]
pub struct CoordStats {
    /// Shards in the original plan.
    pub n_shards_planned: usize,
    /// Worker links established at registration.
    pub n_workers: usize,
    /// Re-plan events (worker death, timeout, or worker-reported error).
    pub replans: usize,
    /// Workers lost over the run.
    pub worker_failures: usize,
    /// Workers admitted **after** the run started (elastic TCP mode) —
    /// fresh members and reconnecting ones alike.
    pub late_joins: usize,
    /// `Steal` requests sent to stragglers.
    pub steal_requests: usize,
    /// Steal grants that actually moved work (the stolen tail was
    /// re-enqueued); denials are `steal_requests - steals` at most.
    pub steals: usize,
    /// `Ping` frames sent to heartbeat-capable workers.
    pub pings_sent: usize,
    /// `Pong` frames received.
    pub pongs: usize,
    /// `Progress` frames received.
    pub progress_frames: usize,
    /// Transport the run used (`"pipe"`, `"tcp"`, `"in-process"`).
    pub transport: String,
    /// Assignment frames sent (replans included).
    pub assignments: usize,
    /// Total payload bytes of those slim `Assign` frames.
    pub assign_bytes: u64,
    /// Total payload bytes of the per-worker `Load` frames.
    pub load_bytes: u64,
    /// Stale frames discarded (a worker's reply arriving after the
    /// coordinator re-planned its shard — each one would have been a
    /// double count).
    pub stale_frames: usize,
    /// End-to-end wall seconds (registration → merged matrices).
    pub wall_s: f64,
}

/// The distributed run's output: merged matrices (bit-identical to the
/// single-process engine), summed counters, and the audit trail.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// One finalized matrix per window.
    pub matrices: Vec<ThresholdedMatrix>,
    /// Sum of every shard's [`PruningStats`] — equal to the unsharded
    /// engine's counters.
    pub stats: PruningStats,
    /// Per-shard accounting, in completion order.
    pub shards: Vec<ShardSummary>,
    /// Run-level accounting.
    pub coord: CoordStats,
}

enum Event {
    Msg(usize, Message),
    Closed(usize, String),
    /// A peer completed the handshake on the mid-run acceptor (elastic
    /// TCP mode only).
    Joined(Box<dyn Transport>, Box<dyn Read + Send>, proto::Hello),
}

struct WorkerHandle {
    transport: Box<dyn Transport>,
    reader: Option<std::thread::JoinHandle<()>>,
    alive: bool,
    /// Capability bits from the worker's handshake (already masked for
    /// its protocol version).
    caps: u32,
    /// Last time any frame arrived from this worker — pong, progress,
    /// grant or result. Only meaningful for heartbeat-capable workers.
    last_seen: Instant,
}

impl WorkerHandle {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.transport.send(payload)
    }

    fn heartbeat(&self) -> bool {
        self.caps & proto::CAP_HEARTBEAT != 0
    }

    /// Declares the worker dead: severs the link (which unblocks a reader
    /// stuck in `read()`) and joins the reader thread. Idempotent.
    fn abandon(&mut self) {
        self.alive = false;
        self.transport.kill();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }

    /// Graceful end-of-run: EOF the send half, reap the peer, join the
    /// reader.
    fn shutdown(&mut self) {
        if !self.alive {
            self.abandon();
            return;
        }
        self.transport.close_send();
        self.transport.reap();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerHandle {
    /// Error-path cleanup: [`run`] shuts workers down explicitly on
    /// success, so a handle still holding its reader thread here means
    /// the run bailed out — kill the peer rather than leak the thread.
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.abandon();
        }
    }
}

#[derive(Debug, Clone)]
struct PendingShard {
    ranks: Range<usize>,
    attempt: u32,
}

/// One in-flight assignment, keyed by worker index in the busy map.
struct Outstanding {
    shard: PendingShard,
    id: u64,
    /// When the assignment was dispatched — the age
    /// [`CoordinatorConfig::steal_after`] is measured against (a
    /// straggler keeps updating `progress_at`, so age-since-dispatch is
    /// the straggler signal, not staleness).
    dispatched_at: Instant,
    /// Last time this assignment demonstrably advanced (assignment time,
    /// then every progress/grant frame). Hung = no advance for the
    /// configured timeout.
    progress_at: Instant,
    /// Highest rank frontier the worker has reported.
    frontier: usize,
    /// A `Steal` is outstanding; don't send another until it resolves.
    steal_sent: bool,
    /// Whether this assignment can be stolen from at all (batch mode on
    /// a heartbeat-capable worker).
    stealable: bool,
}

impl Outstanding {
    fn remaining(&self) -> usize {
        self.shard.ranks.end.saturating_sub(self.frontier)
    }
}

/// Locates the `dangoron-shard` binary: the `DANGORON_SHARD_BIN`
/// environment variable, then siblings of the current executable (covers
/// `target/<profile>/` for binaries and `target/<profile>/deps/` for test
/// executables).
pub fn default_worker_path() -> Option<PathBuf> {
    let name = format!("dangoron-shard{}", std::env::consts::EXE_SUFFIX);
    if let Ok(p) = std::env::var("DANGORON_SHARD_BIN") {
        let p = PathBuf::from(p);
        if p.exists() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let mut candidates = vec![dir.join(&name)];
    if let Some(up) = dir.parent() {
        candidates.push(up.join(&name));
    }
    candidates.into_iter().find(|c| c.exists())
}

/// Number of windows the merged result must cover for a mode.
pub fn expected_windows(
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data_cols: usize,
    query: &SlidingQuery,
) -> usize {
    match mode {
        WorkerMode::Batch => query.n_windows(),
        WorkerMode::StreamingReplay { .. } => {
            // A streaming session only sees whole basic windows.
            let covered = data_cols / engine_cfg.basic_window * engine_cfg.basic_window;
            if covered < query.window {
                0
            } else {
                (covered - query.window) / query.step + 1
            }
        }
    }
}

/// Runs the distributed query across workers reached through the
/// configured transport.
pub fn run(
    cfg: &CoordinatorConfig,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    match &cfg.transport {
        TransportMode::Spawn { .. } => run_inner(cfg, None, engine_cfg, data, query),
        TransportMode::Tcp { listen, .. } => {
            let listener = TcpListener::bind(listen).map_err(|e| CoordError::Bind {
                addr: listen.clone(),
                reason: e.to_string(),
            })?;
            run_inner(cfg, Some(listener), engine_cfg, data, query)
        }
    }
}

/// [`run`] with a pre-bound listener — the caller learns the actual
/// address (port `0` binds) from [`TcpListener::local_addr`] before any
/// worker needs it. `cfg.transport` must be [`TransportMode::Tcp`].
pub fn run_with_listener(
    cfg: &CoordinatorConfig,
    listener: TcpListener,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    if !matches!(cfg.transport, TransportMode::Tcp { .. }) {
        return Err(CoordError::Internal(
            "run_with_listener requires TransportMode::Tcp".into(),
        ));
    }
    run_inner(cfg, Some(listener), engine_cfg, data, query)
}

/// Wraps a validated link for duty: lifts the pre-trust limits, applies
/// the chaos schedule for its admission index, ships the `Load` frame
/// and spawns the reader thread. Returns `false` (and buries the link)
/// when the Load cannot be shipped — worker death is tolerated, so it
/// must not cost the run while other links exist.
#[allow(clippy::too_many_arguments)]
fn register_worker(
    mut transport: Box<dyn Transport>,
    mut reader: Box<dyn Read + Send>,
    hello: proto::Hello,
    load_payload: &[u8],
    chaos: Option<&FaultPlan>,
    link_seq: &mut usize,
    workers: &mut Vec<WorkerHandle>,
    metrics: &CoordMetrics,
    tx: &mpsc::Sender<Event>,
) -> bool {
    transport.handshake_complete();
    let link = *link_seq;
    *link_seq += 1;
    let mut transport = match chaos {
        Some(plan) => Box::new(ChaosTransport::new(transport, plan.for_link(link))),
        None => transport,
    };
    if let Err(e) = transport.send(load_payload) {
        eprintln!("dist: dropping a worker at registration (cannot ship the Load frame: {e})");
        transport.kill();
        return false;
    }
    metrics.load_bytes.add(load_payload.len() as u64);
    let idx = workers.len();
    let tx = tx.clone();
    let handle = std::thread::spawn(move || reader_loop(idx, &mut *reader, &tx));
    workers.push(WorkerHandle {
        transport,
        reader: Some(handle),
        alive: true,
        caps: hello.caps,
        last_seen: Instant::now(),
    });
    true
}

/// Stops and joins the mid-run acceptor thread when dropped, on success
/// and error paths alike — the thread holds the listener and a channel
/// sender, and must not outlive the run.
struct AcceptorGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for AcceptorGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run_inner(
    cfg: &CoordinatorConfig,
    listener: Option<TcpListener>,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    let t_start = Instant::now();
    let n_windows = expected_windows(cfg.mode, engine_cfg, data.len(), &query);
    let plan = ShardPlan::balanced(data.n_series(), cfg.n_shards);
    if plan.shards().is_empty() {
        return Err(CoordError::Internal(
            "workload has no pairs to shard".into(),
        ));
    }
    let n_workers = cfg.n_workers.clamp(1, plan.shards().len());
    let needed_cap = proto::required_cap(cfg.mode);
    let elastic = matches!(cfg.transport, TransportMode::Tcp { .. });
    let rejoin_window = match &cfg.transport {
        TransportMode::Tcp { accept_timeout, .. } => *accept_timeout,
        TransportMode::Spawn { .. } => Duration::ZERO,
    };

    // The Load frame is identical for every worker: encode it once,
    // straight from the borrowed matrix.
    let load_payload = proto::encode_load(data);
    if load_payload.len() > proto::MAX_FRAME {
        return Err(CoordError::Internal(format!(
            "workload matrix of {} payload bytes exceeds the {}-byte frame limit",
            load_payload.len(),
            proto::MAX_FRAME
        )));
    }

    let (tx, rx) = mpsc::channel::<Event>();
    // Both connect paths hand back links whose handshake already
    // validated — a spawn-mode failure is fatal (our own child is
    // broken), a TCP peer that fails it is dropped without costing the
    // run or an accept slot.
    let (links, acceptor) = match (&cfg.transport, listener) {
        (TransportMode::Spawn { worker_bin }, _) => {
            let mut links = Vec::with_capacity(n_workers);
            for w in 0..n_workers {
                links.push(spawn_worker(
                    worker_bin,
                    cfg.kill_worker == Some(w),
                    cfg.handshake_timeout,
                    needed_cap,
                )?);
            }
            (links, None)
        }
        (TransportMode::Tcp { accept_timeout, .. }, Some(listener)) => {
            let links = accept_tcp_workers(
                &listener,
                n_workers,
                *accept_timeout,
                cfg.handshake_timeout,
                cfg.timeout,
                needed_cap,
            )?;
            // The membership stays open: the listener moves to an
            // acceptor thread and mid-run joiners arrive as events.
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let stop = stop.clone();
                let tx = tx.clone();
                let handshake_timeout = cfg.handshake_timeout;
                let io_timeout = cfg.timeout;
                std::thread::spawn(move || {
                    accept_loop(
                        listener,
                        stop,
                        tx,
                        handshake_timeout,
                        io_timeout,
                        needed_cap,
                    )
                })
            };
            (
                links,
                Some(AcceptorGuard {
                    stop,
                    handle: Some(handle),
                }),
            )
        }
        (TransportMode::Tcp { .. }, None) => {
            return Err(CoordError::Internal(
                "TCP mode reached run_inner without a bound listener".into(),
            ))
        }
    };
    let transport_kind = links
        .first()
        .map(|(t, _, _)| t.kind())
        .unwrap_or("none")
        .to_string();

    // Every counter the run keeps lives in the obs registry; the
    // end-of-run CoordStats is a snapshot of it, so a live scrape and
    // the final report can never disagree.
    let registry = cfg
        .registry
        .clone()
        .unwrap_or_else(|| Arc::new(obs::Registry::new()));
    let metrics = CoordMetrics::new(&registry);
    metrics.shards_planned.set(plan.shards().len() as i64);

    // Registration: ship the matrix once per worker, then hand the read
    // half to a dedicated reader thread.
    let mut workers: Vec<WorkerHandle> = Vec::with_capacity(links.len());
    let mut link_seq = 0usize;
    for (transport, reader, hello) in links {
        register_worker(
            transport,
            reader,
            hello,
            &load_payload,
            cfg.chaos.as_ref(),
            &mut link_seq,
            &mut workers,
            &metrics,
            &tx,
        );
    }
    if workers.is_empty() {
        return Err(CoordError::NoWorkers {
            reason: "every worker failed during registration".into(),
        });
    }
    metrics.workers.set(workers.len() as i64);
    // The encoded Load frame is matrix-sized. A fixed membership never
    // needs it again — free it before the assignment/merge phase. An
    // elastic one keeps it for late joiners.
    let load_payload = if elastic {
        Some(load_payload)
    } else {
        drop(load_payload);
        None
    };

    let mut pending: VecDeque<PendingShard> = plan
        .shards()
        .iter()
        .map(|s| PendingShard {
            ranks: s.ranks.clone(),
            attempt: 0,
        })
        .collect();
    let mut busy: HashMap<usize, Outstanding> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut segments: Vec<ShardEdges> = Vec::new();
    let mut summaries: Vec<ShardSummary> = Vec::new();
    let mut stats = PruningStats::default();
    // Ping cadence: a quarter of the liveness timeout, within sane
    // bounds, so a hung worker misses several pings before the deadline.
    let ping_every = (cfg.timeout / 4).clamp(Duration::from_millis(250), Duration::from_secs(5));
    let mut next_ping = Instant::now() + ping_every;
    let mut ping_seq: u64 = 0;
    // Set while zero workers are alive (elastic mode rides out the
    // re-join window before declaring the run dead).
    let mut lost_all_at: Option<Instant> = None;

    let live = |workers: &[WorkerHandle]| workers.iter().filter(|h| h.alive).count();
    let replan = |shard: PendingShard,
                  survivors: usize,
                  pending: &mut VecDeque<PendingShard>,
                  metrics: &CoordMetrics|
     -> Result<(), CoordError> {
        if shard.attempt + 1 > cfg.max_attempts {
            return Err(CoordError::AttemptsExhausted {
                ranks: shard.ranks.clone(),
                attempts: cfg.max_attempts,
            });
        }
        metrics.replans.inc();
        for sub in split_range(shard.ranks.clone(), survivors.max(1)) {
            pending.push_back(PendingShard {
                ranks: sub,
                attempt: shard.attempt + 1,
            });
        }
        Ok(())
    };

    loop {
        // Refresh the live-membership gauge once per supervision round —
        // a relaxed store, purely for scrapers.
        metrics.workers_live.set(live(&workers) as i64);

        // Dispatch to every idle live worker.
        for w in 0..workers.len() {
            if pending.is_empty() {
                break;
            }
            if !workers[w].alive || busy.contains_key(&w) {
                continue;
            }
            let Some(shard) = pending.pop_front() else {
                break;
            };
            let id = next_id;
            next_id += 1;
            let assignment = Assignment {
                shard_id: id,
                ranks: shard.ranks.clone(),
                mode: cfg.mode,
                config: DangoronConfig {
                    threads: cfg.worker_threads,
                    ..engine_cfg.clone()
                },
                query,
            };
            let payload = proto::encode(&Message::Assign(assignment));
            match workers[w].send(&payload) {
                Ok(()) => {
                    metrics.assignments.inc();
                    metrics.assign_bytes.add(payload.len() as u64);
                    let stealable = matches!(cfg.mode, WorkerMode::Batch) && workers[w].heartbeat();
                    busy.insert(
                        w,
                        Outstanding {
                            id,
                            frontier: shard.ranks.start,
                            dispatched_at: Instant::now(),
                            progress_at: Instant::now(),
                            steal_sent: false,
                            stealable,
                            shard,
                        },
                    );
                }
                Err(_) => {
                    // Write failure ⇒ the worker is gone.
                    workers[w].abandon();
                    metrics.worker_failures.inc();
                    replan(shard, live(&workers), &mut pending, &metrics)?;
                }
            }
        }

        // Work-stealing: nothing queued, an idle worker waiting, and a
        // straggler still holding a large remaining interval — ask it to
        // give half up. One request at a time per victim; the executor's
        // grant (or the victim's death) resolves it.
        if pending.is_empty() && !busy.is_empty() {
            let idle_exists = workers
                .iter()
                .enumerate()
                .any(|(w, h)| h.alive && !busy.contains_key(&w));
            if idle_exists {
                let now = Instant::now();
                let victim = busy
                    .iter()
                    .filter(|(&w, o)| {
                        workers[w].alive
                            && o.stealable
                            && !o.steal_sent
                            && o.remaining() >= 2
                            && now.duration_since(o.dispatched_at) >= cfg.steal_after
                    })
                    .max_by_key(|(_, o)| o.remaining())
                    .map(|(&w, _)| w);
                if let Some(w) = victim {
                    let id = busy[&w].id;
                    let payload = proto::encode(&Message::Steal { assignment_id: id });
                    match workers[w].send(&payload) {
                        Ok(()) => {
                            if let Some(o) = busy.get_mut(&w) {
                                o.steal_sent = true;
                                metrics.steal_requests.inc();
                            }
                        }
                        Err(_) => {
                            workers[w].abandon();
                            metrics.worker_failures.inc();
                            if let Some(o) = busy.remove(&w) {
                                replan(o.shard, live(&workers), &mut pending, &metrics)?;
                            }
                        }
                    }
                }
            }
        }

        if busy.is_empty() && pending.is_empty() {
            break;
        }
        let now = Instant::now();
        if live(&workers) == 0 && busy.is_empty() {
            let no_survivors = || CoordError::NoSurvivors {
                pending: pending.len(),
                in_flight: 0,
                completed: summaries.len(),
            };
            if !elastic {
                return Err(no_survivors());
            }
            // Elastic runs ride out the re-join window: a worker with
            // --reconnect (or a fresh one) may still appear.
            let since = *lost_all_at.get_or_insert(now);
            if now.duration_since(since) >= rejoin_window {
                return Err(no_survivors());
            }
        } else {
            lost_all_at = None;
        }

        // Heartbeats on a fixed cadence; a ping-write failure is a dead
        // link discovered early.
        if now >= next_ping {
            let payload = proto::encode(&Message::Ping(ping_seq));
            ping_seq += 1;
            next_ping = now + ping_every;
            let mut dead = Vec::new();
            for (w, h) in workers.iter_mut().enumerate() {
                if h.alive && h.heartbeat() {
                    if h.send(&payload).is_ok() {
                        metrics.pings_sent.inc();
                    } else {
                        dead.push(w);
                    }
                }
            }
            for w in dead {
                workers[w].abandon();
                metrics.worker_failures.inc();
                if let Some(o) = busy.remove(&w) {
                    eprintln!(
                        "dist: worker {w} lost (ping write failed); re-planning {:?}",
                        o.shard.ranks
                    );
                    replan(o.shard, live(&workers), &mut pending, &metrics)?;
                }
            }
        }

        // Hung detection: an assignment that has made no progress for
        // the full timeout. (A straggler that keeps reporting progress
        // never trips this — it is stolen from instead.)
        let hung: Vec<usize> = busy
            .iter()
            .filter(|(_, o)| now.duration_since(o.progress_at) >= cfg.timeout)
            .map(|(&w, _)| w)
            .collect();
        for w in hung {
            let Some(o) = busy.remove(&w) else {
                continue;
            };
            workers[w].abandon();
            metrics.worker_failures.inc();
            eprintln!(
                "dist: worker {w} hung (no progress in {:?}); re-planning {:?}",
                cfg.timeout, o.shard.ranks
            );
            replan(o.shard, live(&workers), &mut pending, &metrics)?;
        }
        // Idle heartbeat-capable workers that stopped answering pings
        // are silently reaped — they hold no work, so nothing re-plans.
        let idle_deadline = cfg.timeout + ping_every * 2;
        for (w, h) in workers.iter_mut().enumerate() {
            if h.alive
                && h.heartbeat()
                && !busy.contains_key(&w)
                && now.duration_since(h.last_seen) >= idle_deadline
            {
                eprintln!("dist: reaping unresponsive idle worker {w}");
                h.abandon();
                metrics.worker_failures.inc();
            }
        }

        // Wait for the next event or the earliest deadline (ping
        // cadence, progress deadlines, the lost-everyone grace window).
        let mut deadline = next_ping;
        for o in busy.values() {
            deadline = deadline.min(o.progress_at + cfg.timeout);
        }
        if let Some(since) = lost_all_at {
            deadline = deadline.min(since + rejoin_window);
        }
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(Event::Joined(transport, reader, hello)) => {
                // Only elastic runs keep the Load frame (and only they
                // spawn an acceptor); a Joined event without it would be
                // a membership-state bug, not a peer failure.
                let Some(load) = load_payload.as_deref() else {
                    return Err(CoordError::Internal(
                        "late-join event on a fixed membership (Load frame already freed)".into(),
                    ));
                };
                if register_worker(
                    transport,
                    reader,
                    hello,
                    load,
                    cfg.chaos.as_ref(),
                    &mut link_seq,
                    &mut workers,
                    &metrics,
                    &tx,
                ) {
                    metrics.late_joins.inc();
                    eprintln!(
                        "dist: admitted late-joining worker {} ({} alive)",
                        workers.len() - 1,
                        live(&workers)
                    );
                }
            }
            Ok(Event::Msg(w, msg)) => {
                workers[w].last_seen = Instant::now();
                match msg {
                    Message::Result(res) => {
                        // Only the reply to the worker's outstanding
                        // assignment counts. Anything else is a frame the
                        // coordinator already gave up on — a kill racing a
                        // final in-flight result, or a duplicate — and
                        // merging it would double count the shard's edges;
                        // it is discarded by id.
                        match busy.get(&w).map(|o| o.id) {
                            Some(id) if res.shard_id == id => {
                                let Some(o) = busy.remove(&w) else {
                                    continue;
                                };
                                // Edges arrive sorted (checked at decode),
                                // so the last one carries the largest window.
                                if let Some(&(win, _)) = res
                                    .edges
                                    .last()
                                    .filter(|(win, _)| *win as usize >= n_windows)
                                {
                                    eprintln!("dist: worker {w} sent window {win} of {n_windows}");
                                    replan(o.shard, live(&workers), &mut pending, &metrics)?;
                                    continue;
                                }
                                stats.merge(&res.stats);
                                summaries.push(ShardSummary {
                                    ranks: res.ranks.clone(),
                                    attempt: o.shard.attempt,
                                    prepare_s: res.prepare_s,
                                    query_s: res.query_s,
                                    stats: res.stats.clone(),
                                    n_edges: res.edges.len(),
                                });
                                segments.push((res.ranks, res.edges));
                            }
                            Some(id) if res.shard_id < id => {
                                metrics.stale_frames.inc();
                            }
                            Some(id) => {
                                return Err(CoordError::Internal(format!(
                                    "worker {w} answered assignment {} while {} was outstanding",
                                    res.shard_id, id
                                )));
                            }
                            None => {
                                metrics.stale_frames.inc();
                            }
                        }
                    }
                    Message::Error(id, text) => {
                        // Engine-side failure: the worker survives, the
                        // shard is re-planned (possibly back onto the same
                        // worker). Stale error frames are discarded like
                        // stale results.
                        match busy.get(&w).map(|o| o.id) {
                            Some(outstanding) if id == outstanding => {
                                let Some(o) = busy.remove(&w) else {
                                    continue;
                                };
                                eprintln!("dist: worker {w} reported: {text}");
                                replan(o.shard, live(&workers), &mut pending, &metrics)?;
                            }
                            _ => {
                                metrics.stale_frames.inc();
                            }
                        }
                    }
                    Message::Pong(_) => {
                        metrics.pongs.inc();
                    }
                    Message::Progress {
                        assignment_id,
                        frontier,
                    } => {
                        metrics.progress_frames.inc();
                        if let Some(o) = busy.get_mut(&w) {
                            if o.id == assignment_id {
                                o.progress_at = Instant::now();
                                // Batch frontiers are absolute ranks;
                                // streaming ones are column counts and the
                                // entry is not stealable, so the clamp
                                // only guards the remaining() arithmetic.
                                let f = (frontier as usize)
                                    .clamp(o.shard.ranks.start, o.shard.ranks.end);
                                o.frontier = o.frontier.max(f);
                            }
                        }
                    }
                    Message::StealGrant {
                        assignment_id,
                        new_end,
                    } => match busy.get_mut(&w) {
                        Some(o) if o.id == assignment_id => {
                            o.steal_sent = false;
                            o.progress_at = Instant::now();
                            let new_end = new_end as usize;
                            if new_end > o.shard.ranks.start && new_end < o.shard.ranks.end {
                                // A binding grant: the victim keeps
                                // start..new_end, the tail re-enters the
                                // queue for the next idle worker.
                                let tail = new_end..o.shard.ranks.end;
                                o.shard.ranks.end = new_end;
                                o.frontier = o.frontier.min(new_end);
                                metrics.steals.inc();
                                eprintln!(
                                    "dist: stole {tail:?} from worker {w} (keeps {:?})",
                                    o.shard.ranks
                                );
                                pending.push_back(PendingShard {
                                    ranks: tail,
                                    attempt: o.shard.attempt,
                                });
                            }
                            // new_end == the current end is a denial
                            // (interval nearly exhausted, or a streaming
                            // session): nothing moves.
                        }
                        _ => {
                            metrics.stale_frames.inc();
                        }
                    },
                    msg @ (Message::Assign(_)
                    | Message::Load(_)
                    | Message::Hello(_)
                    | Message::Ping(_)
                    | Message::Steal { .. }) => {
                        return Err(CoordError::Internal(format!(
                            "worker {w} sent a coordinator-side frame: {msg:?}"
                        )));
                    }
                }
            }
            Ok(Event::Closed(w, why)) => {
                if workers[w].alive {
                    workers[w].abandon();
                    metrics.worker_failures.inc();
                    if let Some(o) = busy.remove(&w) {
                        eprintln!(
                            "dist: worker {w} died ({why}); re-planning {:?}",
                            o.shard.ranks
                        );
                        replan(o.shard, live(&workers), &mut pending, &metrics)?;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deadline work (pings, hung checks, the grace window)
                // happens at the top of the loop.
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Unreachable while this function holds `tx`; kept as a
                // structured error rather than a panic.
                return Err(CoordError::Internal(
                    "coordinator event channel disconnected".into(),
                ));
            }
        }
    }

    drop(acceptor); // stop admitting; join the acceptor thread
    for h in &mut workers {
        h.shutdown();
    }

    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        engine_cfg.edge_rule,
        n_windows,
        segments,
    );
    Ok(DistResult {
        matrices,
        stats,
        shards: summaries,
        coord: metrics.snapshot(transport_kind, t_start.elapsed().as_secs_f64()),
    })
}

/// Reads one frame (bounded by [`proto::MAX_HELLO_FRAME`] — the peer is
/// not yet trusted) and validates it as a compatible handshake. Accepts
/// any version in `MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION`; for peers
/// older than v3 the heartbeat capability bit is masked off (they could
/// not honour it), so the caller can branch on capabilities alone.
fn handshake(mut reader: &mut (dyn Read + Send), needed_cap: u32) -> Result<proto::Hello, String> {
    let payload = frame::read_from(&mut reader, proto::MAX_HELLO_FRAME)
        .map_err(|e| format!("cannot read the handshake frame: {e}"))?
        .ok_or("link closed before the handshake")?;
    match proto::decode(&payload).map_err(|e| format!("bad handshake frame: {e}"))? {
        Message::Hello(mut h) => {
            if h.version < proto::MIN_PROTOCOL_VERSION || h.version > proto::PROTOCOL_VERSION {
                return Err(format!(
                    "protocol version mismatch: worker speaks v{}, coordinator accepts v{}..=v{}",
                    h.version,
                    proto::MIN_PROTOCOL_VERSION,
                    proto::PROTOCOL_VERSION
                ));
            }
            if h.version < 3 {
                h.caps &= !proto::CAP_HEARTBEAT;
            }
            if h.caps & needed_cap != needed_cap {
                return Err(format!(
                    "worker lacks the required capability bit {needed_cap:#x} (has {:#x})",
                    h.caps
                ));
            }
            Ok(h)
        }
        other => Err(format!("expected Hello, got {other:?}")),
    }
}

/// The per-worker reader thread: frames off the link become events on
/// the coordinator's channel until EOF, damage, or channel teardown.
fn reader_loop(idx: usize, mut reader: &mut (dyn Read + Send), tx: &mpsc::Sender<Event>) {
    loop {
        match frame::read_from(&mut reader, proto::MAX_FRAME) {
            Ok(Some(payload)) => match proto::decode(&payload) {
                Ok(msg) => {
                    if tx.send(Event::Msg(idx, msg)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Closed(idx, format!("protocol damage: {e}")));
                    break;
                }
            },
            Ok(None) => {
                let _ = tx.send(Event::Closed(idx, "clean EOF".into()));
                break;
            }
            Err(e) => {
                let _ = tx.send(Event::Closed(idx, e.to_string()));
                break;
            }
        }
    }
}

type Link = (Box<dyn Transport>, Box<dyn Read + Send>, proto::Hello);

/// Runs the blocking [`handshake`] read on a helper thread with a
/// deadline — anonymous pipes have no read timeouts, so without this a
/// spawned worker that never writes its `Hello` (a hung binary, or one
/// speaking protocol v1, which waits for an `Assign` first) would
/// deadlock the coordinator. On success the read half is handed back; on
/// timeout the helper thread stays parked in `read()` until the caller
/// kills the transport, which severs the pipe and lets it exit.
fn handshake_with_deadline(
    mut reader: Box<dyn Read + Send>,
    deadline: Duration,
    needed_cap: u32,
) -> Result<(Box<dyn Read + Send>, proto::Hello), String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let res = handshake(&mut *reader, needed_cap);
        let _ = tx.send((reader, res));
    });
    match rx.recv_timeout(deadline) {
        Ok((reader, Ok(hello))) => Ok((reader, hello)),
        Ok((_, Err(e))) => Err(e),
        Err(_) => Err(format!("no handshake within {deadline:?}")),
    }
}

/// Spawns one worker child over stdio pipes and validates its handshake.
/// A failure here is fatal to the run — the configured worker binary
/// itself is broken or incompatible.
fn spawn_worker(
    worker_bin: &std::path::Path,
    inject_fail: bool,
    handshake_timeout: Duration,
    needed_cap: u32,
) -> Result<Link, CoordError> {
    let mut cmd = Command::new(worker_bin);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if inject_fail {
        cmd.env(worker::FAIL_ENV, "1");
    }
    let child = cmd
        .spawn()
        .map_err(|e| CoordError::Internal(format!("cannot spawn {worker_bin:?}: {e}")))?;
    let mut transport = ChildTransport::new(child);
    let reader = transport
        .take_reader()
        .ok_or_else(|| CoordError::Internal("spawned child has no stdout pipe".into()))?;
    match handshake_with_deadline(reader, handshake_timeout, needed_cap) {
        Ok((reader, hello)) => Ok((Box::new(transport), reader, hello)),
        Err(e) => {
            transport.kill();
            Err(CoordError::Internal(format!(
                "worker {worker_bin:?} handshake failed: {e}"
            )))
        }
    }
}

/// Accepts workers off the listener until `want` have completed the
/// [`handshake`] or `accept_timeout` closes the window. The peer is not
/// yet trusted, so its first-frame read is bounded by the handshake
/// timeout as a socket read timeout (lifted by `handshake_complete` once
/// validated) and by [`proto::MAX_HELLO_FRAME`] — and each handshake
/// runs on its **own thread**, so a peer that connects and then says
/// nothing (a load-balancer probe holding the socket open) cannot
/// serialise the accept loop and starve legitimate workers queued behind
/// it. A peer that fails the handshake — a port scanner, a health check,
/// a version-mismatched worker — is dropped without costing a worker
/// slot or the run. Returns an error only when the window closes with
/// zero workers.
fn accept_tcp_workers(
    listener: &TcpListener,
    want: usize,
    accept_timeout: Duration,
    handshake_timeout: Duration,
    io_timeout: Duration,
    needed_cap: u32,
) -> Result<Vec<Link>, CoordError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| CoordError::Internal(format!("cannot poll the TCP listener: {e}")))?;
    let deadline = Instant::now() + accept_timeout;
    let (tx, rx) = mpsc::channel::<Result<Link, String>>();
    let mut links: Vec<Link> = Vec::with_capacity(want);
    let mut in_flight = 0usize;
    let collect = |done: Result<Link, String>, links: &mut Vec<Link>| match done {
        Ok(link) => {
            eprintln!("dist: accepted worker {}", links.len());
            links.push(link);
        }
        Err(e) => eprintln!("dist: rejecting peer: {e}"),
    };
    while links.len() < want {
        while let Ok(done) = rx.try_recv() {
            in_flight -= 1;
            collect(done, &mut links);
        }
        if links.len() >= want {
            break;
        }
        if Instant::now() >= deadline {
            if in_flight == 0 {
                break;
            }
            // The window is closed; only handshakes already in flight can
            // still qualify. Each is bounded by the pre-trust socket
            // read timeout, so this drains quickly.
            if let Ok(done) = rx.recv_timeout(Duration::from_millis(200)) {
                in_flight -= 1;
                collect(done, &mut links);
            }
            continue;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                // Some platforms (Windows, several BSDs) hand accepted
                // sockets the listener's nonblocking flag; the handshake
                // relies on blocking reads bounded by the read timeout.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(handshake_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout.max(Duration::from_secs(1))));
                match TcpTransport::new(stream) {
                    Ok(mut transport) => {
                        let Some(mut reader) = transport.take_reader() else {
                            eprintln!("dist: dropping {peer}: read half unavailable");
                            continue;
                        };
                        let tx = tx.clone();
                        in_flight += 1;
                        std::thread::spawn(move || {
                            let res = handshake(&mut *reader, needed_cap)
                                .map(|h| (Box::new(transport) as Box<dyn Transport>, reader, h))
                                .map_err(|e| format!("{peer}: {e}"));
                            let _ = tx.send(res);
                        });
                    }
                    Err(e) => eprintln!("dist: dropping {peer}: {e}"),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(CoordError::Internal(format!("TCP accept failed: {e}"))),
        }
    }
    if links.is_empty() {
        return Err(CoordError::NoWorkers {
            reason: format!(
                "no worker connected within {accept_timeout:?} — start workers with \
                 `dangoron-shard --connect ADDR`"
            ),
        });
    }
    if links.len() < want {
        eprintln!(
            "dist: accept window closed with {}/{want} workers; proceeding",
            links.len()
        );
    }
    Ok(links)
}

/// The mid-run membership door (elastic TCP mode): keeps accepting and
/// handshaking peers until the run ends, turning each validated one into
/// an [`Event::Joined`]. Owns the listener; per-peer handshakes run on
/// their own short-lived threads, exactly like the initial window.
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    tx: mpsc::Sender<Event>,
    handshake_timeout: Duration,
    io_timeout: Duration,
    needed_cap: u32,
) {
    // The listener is already nonblocking from the initial window.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(handshake_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout.max(Duration::from_secs(1))));
                match TcpTransport::new(stream) {
                    Ok(mut transport) => {
                        let Some(mut reader) = transport.take_reader() else {
                            eprintln!("dist: dropping late peer {peer}: read half unavailable");
                            continue;
                        };
                        let tx = tx.clone();
                        std::thread::spawn(move || match handshake(&mut *reader, needed_cap) {
                            Ok(hello) => {
                                // A send failure means the run already
                                // ended; the transport drops (and kills
                                // the link) on its way out.
                                let _ = tx.send(Event::Joined(Box::new(transport), reader, hello));
                            }
                            Err(e) => eprintln!("dist: rejecting late peer {peer}: {e}"),
                        });
                    }
                    Err(e) => eprintln!("dist: dropping late peer {peer}: {e}"),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break,
        }
    }
}

/// Runs the same shard plan **in-process** (no worker processes): every
/// shard goes through the identical [`worker::execute`] path and the
/// identical merge, sequentially. The harness falls back to this when the
/// worker binary is not built, and tests use it as the ground truth the
/// process tier must reproduce.
pub fn run_in_process(
    n_shards: usize,
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    let t_start = Instant::now();
    let plan = ShardPlan::balanced(data.n_series(), n_shards);
    if plan.shards().is_empty() {
        return Err(CoordError::Internal(
            "workload has no pairs to shard".into(),
        ));
    }
    let mut segments: Vec<ShardEdges> = Vec::new();
    let mut summaries = Vec::new();
    let mut stats = PruningStats::default();
    for s in plan.shards() {
        let a = Assignment {
            shard_id: s.id as u64,
            ranks: s.ranks.clone(),
            mode,
            config: engine_cfg.clone(),
            query,
        };
        let r = worker::execute(&a, data)?;
        stats.merge(&r.stats);
        summaries.push(ShardSummary {
            ranks: r.ranks.clone(),
            attempt: 0,
            prepare_s: r.prepare_s,
            query_s: r.query_s,
            stats: r.stats.clone(),
            n_edges: r.edges.len(),
        });
        segments.push((r.ranks, r.edges));
    }
    let n_windows = expected_windows(mode, engine_cfg, data.len(), &query);
    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        engine_cfg.edge_rule,
        n_windows,
        segments,
    );
    Ok(DistResult {
        matrices,
        stats,
        shards: summaries,
        coord: CoordStats {
            n_shards_planned: plan.shards().len(),
            transport: "in-process".to_string(),
            wall_s: t_start.elapsed().as_secs_f64(),
            ..Default::default()
        },
    })
}

/// The unsharded reference: the whole triangle through the same
/// [`worker::execute`] path (for batch mode this is exactly
/// `Dangoron::prepare` + `run`). The coordinator's `--verify` compares
/// against it bitwise.
pub fn run_single_process(
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    run_in_process(1, mode, engine_cfg, data, query).map(|mut r| {
        debug_assert_eq!(r.shards.len(), 1);
        debug_assert_eq!(r.shards[0].ranks, 0..triangular::count(data.n_series()));
        r.coord.n_shards_planned = 1;
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::windows_bit_identical;
    use dangoron::BoundMode;
    use tsdata::generators;

    fn workload() -> (TimeSeriesMatrix, SlidingQuery, DangoronConfig) {
        let data = generators::clustered_matrix(10, 300, 2, 0.5, 23).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 300,
            window: 60,
            step: 20,
            threshold: 0.7,
        };
        let cfg = DangoronConfig {
            basic_window: 20,
            bound: BoundMode::PaperJump { slack: 0.0 },
            ..Default::default()
        };
        (data, query, cfg)
    }

    #[test]
    fn in_process_sharding_is_invariant_in_shard_count() {
        let (data, query, cfg) = workload();
        let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
        for k in [2usize, 4, 8, 45] {
            let sharded = run_in_process(k, WorkerMode::Batch, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k}"
            );
            assert_eq!(sharded.stats, single.stats, "k={k}");
        }
    }

    #[test]
    fn in_process_streaming_replay_is_invariant_in_shard_count() {
        let (data, query, cfg) = workload();
        let mode = WorkerMode::StreamingReplay {
            initial_cols: 140,
            chunk_cols: 60,
        };
        let single = run_single_process(mode, &cfg, &data, query).unwrap();
        assert_eq!(
            single.matrices.len(),
            expected_windows(mode, &cfg, data.len(), &query)
        );
        for k in [2usize, 5] {
            let sharded = run_in_process(k, mode, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k}"
            );
            assert_eq!(sharded.stats, single.stats, "k={k}");
        }
    }

    #[test]
    fn expected_windows_accounts_for_partial_basic_windows() {
        let (_, query, cfg) = workload();
        assert_eq!(
            expected_windows(WorkerMode::Batch, &cfg, 300, &query),
            query.n_windows()
        );
        let stream = WorkerMode::StreamingReplay {
            initial_cols: 100,
            chunk_cols: 50,
        };
        // 310 columns: the last 10 never complete a basic window.
        assert_eq!(
            expected_windows(stream, &cfg, 310, &query),
            expected_windows(stream, &cfg, 300, &query)
        );
        assert_eq!(expected_windows(stream, &cfg, 59, &query), 0);
    }

    #[test]
    fn handshake_rejects_version_and_capability_mismatches() {
        use proto::{Hello, CAP_BATCH, CAP_STREAMING};
        let frame_of = |h: Hello| frame::encode(&proto::encode(&Message::Hello(h)));

        let mut ok: &[u8] = &frame_of(Hello::local());
        let boxed: &mut (dyn Read + Send) = &mut ok;
        handshake(boxed, CAP_BATCH).unwrap();

        let mut old: &[u8] = &frame_of(Hello {
            version: 1,
            caps: CAP_BATCH,
        });
        let err = handshake(&mut old, CAP_BATCH).unwrap_err();
        assert!(err.contains("version"), "{err}");

        let mut future: &[u8] = &frame_of(Hello {
            version: proto::PROTOCOL_VERSION + 1,
            caps: CAP_BATCH,
        });
        let err = handshake(&mut future, CAP_BATCH).unwrap_err();
        assert!(err.contains("version"), "{err}");

        let mut weak: &[u8] = &frame_of(Hello {
            version: proto::PROTOCOL_VERSION,
            caps: CAP_BATCH,
        });
        let err = handshake(&mut weak, CAP_STREAMING).unwrap_err();
        assert!(err.contains("capability"), "{err}");

        // A non-Hello first frame is rejected.
        let mut wrong: &[u8] = &frame::encode(&proto::encode(&Message::Error(0, "hi".into())));
        assert!(handshake(&mut wrong, CAP_BATCH).is_err());

        // An oversized first frame is rejected by the handshake limit
        // before its payload is even read.
        let mut big: &[u8] = &frame::encode(&[0u8; 4096]);
        assert!(handshake(&mut big, CAP_BATCH).is_err());
    }

    #[test]
    fn handshake_accepts_v2_and_masks_its_heartbeat_bit() {
        use proto::{Hello, CAP_BATCH, CAP_HEARTBEAT, CAP_STREAMING};
        let frame_of = |h: Hello| frame::encode(&proto::encode(&Message::Hello(h)));

        let mut v2: &[u8] = &frame_of(Hello {
            version: 2,
            caps: CAP_BATCH | CAP_STREAMING,
        });
        let h = handshake(&mut v2, CAP_BATCH).unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(h.caps & CAP_HEARTBEAT, 0);

        // A lying v2 peer advertising the heartbeat bit has it stripped:
        // the coordinator must never send elastic frames to a v2 worker.
        let mut liar: &[u8] = &frame_of(Hello {
            version: 2,
            caps: CAP_BATCH | CAP_STREAMING | CAP_HEARTBEAT,
        });
        let h = handshake(&mut liar, CAP_BATCH).unwrap();
        assert_eq!(h.caps & CAP_HEARTBEAT, 0);

        let mut v3: &[u8] = &frame_of(Hello::local());
        let h = handshake(&mut v3, CAP_BATCH).unwrap();
        assert_ne!(h.caps & CAP_HEARTBEAT, 0);
    }

    #[test]
    fn coord_error_display_is_structured() {
        let e = CoordError::NoSurvivors {
            pending: 3,
            in_flight: 0,
            completed: 5,
        };
        let s = e.to_string();
        assert!(s.contains("3 shard(s) pending"), "{s}");
        assert!(s.contains("5 completed"), "{s}");
        let e = CoordError::AttemptsExhausted {
            ranks: 10..20,
            attempts: 4,
        };
        assert!(e.to_string().contains("10..20"), "{}", e.to_string());
        let e: CoordError = String::from("plain").into();
        assert_eq!(e.to_string(), "plain");
    }
}
