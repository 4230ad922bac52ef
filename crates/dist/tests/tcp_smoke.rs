//! End-to-end tests of the TCP transport: a real coordinator listener
//! driving real `dangoron-shard --connect` worker processes over
//! localhost sockets, verified bitwise against the single-process engine
//! — including the worker-kill/replan, timeout, and stale-final-frame
//! paths.

use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{self, CoordinatorConfig, TransportMode};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use sketch::SlidingQuery;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tsdata::generators;
use tsdata::TimeSeriesMatrix;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_dangoron-shard")
}

fn workload() -> (TimeSeriesMatrix, SlidingQuery, DangoronConfig) {
    let data = generators::clustered_matrix(12, 360, 3, 0.5, 41).unwrap();
    let query = SlidingQuery {
        start: 0,
        end: 360,
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

/// Binds an OS-assigned localhost port and spawns `n` workers dialing it,
/// each with extra environment variables from `envs[i]` (cycled).
fn bind_and_spawn(n: usize, envs: &[Vec<(&str, &str)>]) -> (TcpListener, String, Vec<Child>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let children = (0..n)
        .map(|k| {
            let mut cmd = Command::new(worker_bin());
            cmd.arg("--connect")
                .arg(&addr)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(vars) = envs.get(k % envs.len().max(1)) {
                for (k, v) in vars {
                    cmd.env(k, v);
                }
            }
            cmd.spawn().expect("spawn dangoron-shard --connect")
        })
        .collect();
    (listener, addr, children)
}

/// One worker dialing `addr`, with extra CLI flags and environment.
fn spawn_worker(addr: &str, extra_args: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(worker_bin());
    cmd.arg("--connect")
        .arg(addr)
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn dangoron-shard --connect")
}

fn coordinator(n_shards: usize, n_workers: usize, mode: WorkerMode) -> CoordinatorConfig {
    CoordinatorConfig {
        transport: TransportMode::Tcp {
            listen: String::new(), // pre-bound listener supplies the socket
            accept_timeout: Duration::from_secs(30),
        },
        n_workers,
        mode,
        timeout: Duration::from_secs(60),
        ..CoordinatorConfig::new(Default::default(), n_shards)
    }
}

fn reap(mut children: Vec<Child>) {
    for c in &mut children {
        let _ = c.wait();
    }
}

#[test]
fn tcp_tier_matches_single_process_bitwise() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let (listener, _, children) = bind_and_spawn(2, &[vec![]]);
    let ccfg = coordinator(4, 2, WorkerMode::Batch);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert_eq!(dist.coord.transport, "tcp");
    assert_eq!(dist.coord.n_workers, 2);
    assert_eq!(dist.shards.len(), 4);
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "TCP-merged matrices differ from the single-process engine"
    );
    assert_eq!(dist.stats, single.stats, "shard stats do not sum");
    assert_eq!(dist.coord.replans, 0);
    assert_eq!(dist.coord.worker_failures, 0);

    // The Load frame carries the matrix once per worker; the slim
    // assignments must be orders of magnitude smaller than the v1 fat
    // assignments (matrix inside every Assign) would have been.
    let matrix_payload = 1 + 16 + 8 * data.n_series() * data.len();
    assert_eq!(dist.coord.assignments, 4);
    assert_eq!(dist.coord.load_bytes, 2 * matrix_payload as u64);
    assert!(
        dist.coord.assign_bytes < dist.coord.assignments as u64 * 1024,
        "slim assignments are unexpectedly large: {} bytes",
        dist.coord.assign_bytes
    );
    let fat = dist.coord.assign_bytes + dist.coord.assignments as u64 * matrix_payload as u64;
    assert!(
        dist.coord.assign_bytes + dist.coord.load_bytes < fat,
        "Load + slim assignments must beat fat assignments"
    );
}

#[test]
fn hostile_peer_is_rejected_without_costing_the_run_or_a_worker_slot() {
    use std::io::Write as _;
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // A non-worker connects first and sends a garbage frame — a port
    // scanner or health check hitting the listener. It must be dropped
    // at the handshake; the run proceeds with the two real workers.
    let (listener, addr, children) = bind_and_spawn(2, &[vec![]]);
    let mut stray = std::net::TcpStream::connect(&addr).unwrap();
    stray
        .write_all(&bytes::frame::encode(&[0xFF, 0xEE]))
        .unwrap();
    let ccfg = coordinator(4, 2, WorkerMode::Batch);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);
    drop(stray);

    assert_eq!(dist.coord.n_workers, 2, "the stray peer took a worker slot");
    assert_eq!(dist.coord.worker_failures, 0);
    assert!(windows_bit_identical(&dist.matrices, &single.matrices));
    assert_eq!(dist.stats, single.stats);
}

#[test]
fn result_tagged_beyond_the_last_window_is_replanned_not_merged() {
    // A well-formed Result whose edge names a window the query does not
    // have must never reach the merge: each one is re-planned, and a peer
    // that keeps sending them exhausts the shard's attempts — an error,
    // not a coordinator panic.
    use dist::proto::{Hello, Message, ShardResult};
    use sketch::output::Edge;
    let (data, query, cfg) = workload();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let mut link = std::net::TcpStream::connect(addr).unwrap();
        link.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let send = |link: &mut std::net::TcpStream, msg: &Message| {
            bytes::frame::write_to(link, &dist::proto::encode(msg))
        };
        send(&mut link, &Message::Hello(Hello::local())).unwrap();
        while let Ok(Some(frame)) = bytes::frame::read_from(&mut link, usize::MAX) {
            let reply = match dist::proto::decode(&frame) {
                Ok(Message::Assign(a)) => Message::Result(ShardResult {
                    shard_id: a.shard_id,
                    ranks: a.ranks,
                    prepare_s: 0.0,
                    query_s: 0.0,
                    stats: Default::default(),
                    edges: vec![(
                        query.n_windows() as u32,
                        Edge {
                            i: 0,
                            j: 1,
                            value: 0.9,
                        },
                    )],
                }),
                Ok(Message::Ping(seq)) => Message::Pong(seq),
                Err(_) => break,
                Ok(_) => continue,
            };
            if send(&mut link, &reply).is_err() {
                break;
            }
        }
    });
    let ccfg = CoordinatorConfig {
        max_attempts: 2,
        ..coordinator(1, 1, WorkerMode::Batch)
    };
    let got = coord::run_with_listener(&ccfg, listener, &cfg, &data, query);
    peer.join().unwrap();
    assert!(
        matches!(got, Err(coord::CoordError::AttemptsExhausted { .. })),
        "{:?}",
        got.map(|r| r.matrices.len())
    );
}

#[test]
fn killed_tcp_worker_is_replanned_onto_survivors_with_identical_result() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // Worker 0 aborts on its first assignment (the TCP stand-in for a
    // machine dying mid-run); worker 1 survives.
    let (listener, _, children) = bind_and_spawn(2, &[vec![(dist::worker::FAIL_ENV, "1")], vec![]]);
    let ccfg = coordinator(4, 2, WorkerMode::Batch);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert!(dist.coord.worker_failures >= 1, "injected kill never fired");
    assert!(dist.coord.replans >= 1, "no re-plan recorded");
    assert!(
        dist.shards.iter().any(|s| s.attempt > 0),
        "no shard carries a retry generation"
    );
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "replanned TCP run differs from the single-process engine"
    );
    assert_eq!(dist.stats, single.stats, "replanned stats do not sum");
}

#[test]
fn streaming_replay_over_tcp_matches_single_process() {
    let (data, query, cfg) = workload();
    let mode = WorkerMode::StreamingReplay {
        initial_cols: 160,
        chunk_cols: 60,
    };
    let single = coord::run_single_process(mode, &cfg, &data, query).unwrap();
    let (listener, _, children) = bind_and_spawn(2, &[vec![]]);
    let ccfg = coordinator(4, 2, mode);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert!(!single.matrices.is_empty());
    assert!(windows_bit_identical(&dist.matrices, &single.matrices));
    assert_eq!(dist.stats, single.stats);
}

#[test]
fn duplicate_final_frames_are_discarded_not_double_counted() {
    // Every worker writes each Result frame twice — the deterministic
    // stand-in for a worker's final frame racing the coordinator's kill.
    // Each duplicate must be identified as stale by its assignment id and
    // discarded; merging it would double every affected shard's edges.
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let (listener, _, children) = bind_and_spawn(2, &[vec![(dist::worker::DUP_ENV, "1")]]);
    // More shards than workers, so duplicates interleave with fresh
    // assignments on the same link.
    let ccfg = coordinator(6, 2, WorkerMode::Batch);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert!(
        dist.coord.stale_frames >= 1,
        "no duplicate frame was ever discarded"
    );
    assert_eq!(dist.shards.len(), 6, "a duplicate was merged as a shard");
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "duplicated frames leaked into the merge"
    );
    assert_eq!(dist.stats, single.stats, "stats were double-counted");
}

#[test]
fn late_joining_worker_is_admitted_and_dealt_work() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // One slow worker starts the run (per-chunk delay keeps it busy for
    // seconds); a second, fast worker dials in 300 ms later and must be
    // admitted mid-run and dealt the pending shards.
    let (listener, addr, children) = bind_and_spawn(
        1,
        &[vec![
            (dist::worker::CHUNK_DELAY_ENV, "150"),
            (dist::worker::CHUNK_RANKS_ENV, "8"),
        ]],
    );
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        spawn_worker(&addr, &[], &[])
    });
    let ccfg = coordinator(4, 1, WorkerMode::Batch);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);
    reap(vec![late.join().unwrap()]);

    assert!(dist.coord.late_joins >= 1, "the late worker never joined");
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "elastic membership changed the merged result"
    );
    assert_eq!(dist.stats, single.stats);
}

#[test]
fn straggler_tail_is_stolen_by_idle_worker() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // Worker 0 crawls (200 ms per 4-rank chunk, while demonstrably alive
    // through its progress frames); worker 1 races through the rest of
    // the queue, goes idle, and must be handed the straggler's tail.
    let (listener, _, children) = bind_and_spawn(
        2,
        &[
            vec![
                (dist::worker::CHUNK_DELAY_ENV, "200"),
                (dist::worker::CHUNK_RANKS_ENV, "4"),
            ],
            vec![],
        ],
    );
    let mut ccfg = coordinator(4, 2, WorkerMode::Batch);
    ccfg.steal_after = Duration::from_millis(100);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert!(dist.coord.steals >= 1, "no steal was ever granted");
    assert!(
        dist.shards.len() > 4,
        "a granted steal must split a shard into extra summaries"
    );
    assert_eq!(dist.coord.worker_failures, 0, "stealing is not a failure");
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "work-stealing changed the merged result"
    );
    assert_eq!(dist.stats, single.stats, "stolen intervals double-counted");
}

#[test]
fn dropped_worker_reconnects_and_is_readmitted() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // The chaos layer severs the sole worker's link right after its first
    // assignment (frame 1 = Load, frame 2 = Assign). The worker, started
    // with `--reconnect`, re-dials and must be re-admitted as a new
    // member; its lost assignment is re-planned onto the new identity.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let child = spawn_worker(&addr, &["--reconnect", "3"], &[]);
    let mut ccfg = coordinator(4, 1, WorkerMode::Batch);
    ccfg.chaos = Some(dist::FaultPlan::Explicit(vec![dist::LinkFaults {
        kill_after_frames: Some(2),
        ..Default::default()
    }]));
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(vec![child]);

    assert!(dist.coord.worker_failures >= 1, "the cut link never died");
    assert!(dist.coord.replans >= 1, "lost work was not re-planned");
    assert!(
        dist.coord.late_joins >= 1,
        "the reconnecting worker was never re-admitted"
    );
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "reconnect/replan changed the merged result"
    );
    assert_eq!(dist.stats, single.stats);
}

#[test]
fn hung_tcp_worker_times_out_and_is_replanned() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    // Worker 0 sleeps 30 s before answering anything; the coordinator's
    // 2 s deadline must kill it and re-plan onto worker 1. The sleeper's
    // eventual write lands on a shut-down socket and dies there.
    let (listener, _, children) =
        bind_and_spawn(2, &[vec![(dist::worker::DELAY_ENV, "4000")], vec![]]);
    let mut ccfg = coordinator(4, 2, WorkerMode::Batch);
    ccfg.timeout = Duration::from_secs(2);
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();

    assert!(dist.coord.worker_failures >= 1, "timeout never fired");
    assert!(dist.coord.replans >= 1, "no re-plan recorded");
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "timeout/replan TCP run differs from the single-process engine"
    );
    assert_eq!(dist.stats, single.stats);
    // The sleeper must not outlive the run by much: its socket is shut
    // down, so its next write fails and the process exits.
    reap(children);
}
