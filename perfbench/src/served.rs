//! `serve_daily`: a `dangoron-serve` daemon holding one resident session
//! that two closed-loop clients share — an appender sending one day of
//! columns at a time and a reader issuing one ad-hoc query per acked
//! append.

use crate::batch::THREADS;
use crate::common::{self, engine_config, paper_jump, Scale, BETA};
use crate::report::{edges_subset_bitwise, median, ms_since, n_edges, quantile, Outcome};
use crate::Args;
use dangoron::{BoundMode, Dangoron, StreamingDangoron};
use dist::merge::windows_bit_identical;
use serve::client::{QueryReply, ServeClient};
use serve::proto::{self, ServeMessage};
use sketch::output::EdgeRule;
use sketch::SlidingQuery;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tsdata::TimeSeriesMatrix;

/// The session's window: 30 days of hourly samples, sliding one day.
const WINDOW: usize = 720;
const STEP: usize = 24;
/// The reader's rotation of `(window, step, threshold)` query shapes.
const SHAPES: [(usize, usize, f64); 4] = [
    (720, 24, 0.9),
    (480, 24, 0.85),
    (720, 168, 0.8),
    (240, 48, 0.9),
];
/// Every `SAMPLE_EVERY`-th reply is verified (coprime
/// with the shape rotation, so every shape is sampled).
const SAMPLE_EVERY: usize = 9;
const PATIENCE: Duration = Duration::from_secs(20);

/// Independent session inputs per run: cycle `c` replays input
/// `c % SESSION_INPUTS`, and recall is taken over all of them, so the
/// figures do not follow one dataset.
const SESSION_INPUTS: u64 = 3;
/// Most in-flight replies verified per run.
const MAX_SAMPLES: usize = 24;

/// One session's data: the opening history and the daily appends.
struct SessionInput {
    full: TimeSeriesMatrix,
    open: TimeSeriesMatrix,
    chunks: Vec<TimeSeriesMatrix>,
}

impl SessionInput {
    fn generate(scale: &Scale, seed: u64) -> Result<Self, String> {
        let err = |e: tsdata::TsError| e.to_string();
        let days = scale.serve_days;
        let full = common::climate(scale.serve_n, WINDOW + days * STEP, seed)?.data;
        let open = full.slice_columns(0, WINDOW).map_err(err)?;
        let chunks = (0..days)
            .map(|d| full.slice_columns(WINDOW + d * STEP, WINDOW + (d + 1) * STEP))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        Ok(Self { full, open, chunks })
    }
}

/// A spawned daemon, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    metrics_addr: String,
}

impl Daemon {
    fn launch(bin: &Path) -> Result<Self, String> {
        let addr = free_addr()?;
        let metrics_addr = free_addr()?;
        let child = Command::new(bin)
            .args(["--listen", &addr, "--metrics-addr", &metrics_addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            addr,
            metrics_addr,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A loopback address with a port the OS just handed out.
fn free_addr() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    l.local_addr()
        .map(|a| a.to_string())
        .map_err(|e| e.to_string())
}

/// `(sum, count)` of a histogram family on the daemon's `/metrics`.
fn scrape_hist(metrics_addr: &str, family: &str) -> Result<(f64, f64), String> {
    let mut s = TcpStream::connect(metrics_addr).map_err(|e| format!("scrape: {e}"))?;
    s.set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: {metrics_addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("scrape: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("scrape: {e}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("scrape: no HTTP body")?;
    let families = obs::expo::parse_prometheus(body)?;
    let fam = families
        .iter()
        .find(|f| f.name == family)
        .ok_or_else(|| format!("scrape: no family {family}"))?;
    let value = |suffix: &str| {
        fam.samples
            .iter()
            .find(|s| s.name == format!("{family}{suffix}"))
            .map(|s| s.value)
            .ok_or_else(|| format!("scrape: no {family}{suffix}"))
    };
    Ok((value("_sum")?, value("_count")?))
}

enum ToReader {
    /// An append to `session` was acked; the reader queries once.
    Acked { session: String, cycle: usize },
    /// Reply once every earlier ack has been answered.
    Barrier(mpsc::Sender<()>),
}

/// A reply kept for verification.
struct Sampled {
    /// The cycle (input `cycle % SESSION_INPUTS`) it answers.
    cycle: usize,
    shape: (usize, usize, f64),
    reply: QueryReply,
}

#[derive(Default)]
struct ReaderLog {
    rt_ms: Vec<f64>,
    sampled: Vec<Sampled>,
    errors: Vec<String>,
}

fn reader(addr: &str, rx: mpsc::Receiver<ToReader>) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut client = match ServeClient::connect(addr, PATIENCE) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("reader connect: {e}"));
            return log;
        }
    };
    let mut k = 0;
    for msg in rx {
        match msg {
            ToReader::Acked { session, cycle } => {
                let shape = SHAPES[k % SHAPES.len()];
                let t = Instant::now();
                let r = client.query(&session, shape.0, shape.1, shape.2);
                let rt = ms_since(t);
                match r {
                    Ok(reply) => {
                        log.rt_ms.push(rt);
                        if k % SAMPLE_EVERY == 4 && log.sampled.len() < MAX_SAMPLES {
                            log.sampled.push(Sampled {
                                cycle,
                                shape,
                                reply,
                            });
                        }
                    }
                    Err(e) => log.errors.push(format!("query: {e}")),
                }
                k += 1;
            }
            ToReader::Barrier(done) => {
                let _ = done.send(());
            }
        }
    }
    log
}

/// One append cycle's record.
#[derive(Default)]
struct Cycle {
    append_ms: Vec<f64>,
    /// The daemon's drain time of each append, from `/metrics` (traced
    /// cycles only).
    service_ms: Vec<f64>,
    windows_closed: usize,
    appends: usize,
    memory_bytes: usize,
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (scale, seed, seconds, trace) = (&args.scale, args.seed, args.seconds, args.trace);
    let bin = args
        .bin_dir
        .join(format!("dangoron-serve{}", std::env::consts::EXE_SUFFIX));
    if !bin.is_file() {
        return Err(format!("daemon binary {} not found", bin.display()));
    }
    let days = scale.serve_days;
    let cfg = engine_config(1, paper_jump());
    let err = |e: tsdata::TsError| e.to_string();

    // Set-up: inputs, daemon spawn, the appender's link, session open.
    let ((inputs, daemon, mut client, open_ack), setup) = common::repeat_timed(3, || {
        let inputs = (0..SESSION_INPUTS)
            .map(|k| SessionInput::generate(scale, common::sub_seed(seed, k)))
            .collect::<Result<Vec<_>, _>>()?;
        let daemon = Daemon::launch(&bin)?;
        let mut client = ServeClient::connect(&daemon.addr, PATIENCE)
            .map_err(|e| format!("connect to daemon: {e}"))?;
        let ack = client
            .open("daily-0", &inputs[0].open, WINDOW, STEP, BETA, &cfg)
            .map_err(|e| format!("open: {e}"))?;
        Ok((inputs, daemon, client, ack))
    })?;
    let n = inputs[0].full.n_series();

    let (tx, rx) = mpsc::channel();
    let reader_addr = daemon.addr.clone();
    let reader = std::thread::spawn(move || reader(&reader_addr, rx));

    // Untraced runs measure cycles until the deadline (the first one
    // always completes); a traced run measures one untraced cycle, then
    // one traced cycle that scrapes the daemon after every append.
    let mut cycles: Vec<Cycle> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut query_service = (0.0, 0.0);
    loop {
        let c = cycles.len();
        let traced = trace && c == 1;
        let name = format!("daily-{c}");
        let input = &inputs[c % inputs.len()];
        if c > 0 {
            let ack = client.open(&name, &input.open, WINDOW, STEP, BETA, &cfg);
            out.count(ack, "open");
        }
        let scrape = |family| scrape_hist(&daemon.metrics_addr, family);
        let q0 = traced
            .then(|| scrape("dangoron_serve_query_us"))
            .transpose()?;
        let mut drained = traced
            .then(|| scrape("dangoron_serve_drain_us"))
            .transpose()?;
        let mut cycle = Cycle::default();
        for chunk in &input.chunks {
            if c > 0 && !trace && Instant::now() >= deadline {
                break;
            }
            let t = Instant::now();
            let ack = client.append(&name, chunk);
            let rt = ms_since(t);
            let Some(ack) = out.count(ack, "append") else {
                continue;
            };
            cycle.append_ms.push(rt);
            cycle.appends += 1;
            cycle.windows_closed += ack.windows_closed;
            cycle.memory_bytes = ack.memory_bytes;
            if let Some((sum0, _)) = drained {
                let now = scrape("dangoron_serve_drain_us")?;
                cycle.service_ms.push((now.0 - sum0) / 1e3);
                drained = Some(now);
            }
            let _ = tx.send(ToReader::Acked {
                session: name.clone(),
                cycle: c,
            });
        }
        let (done_tx, done_rx) = mpsc::channel();
        let _ = tx.send(ToReader::Barrier(done_tx));
        let _ = done_rx.recv();
        if let Some((sum0, count0)) = q0 {
            let (sum1, count1) = scrape("dangoron_serve_query_us")?;
            query_service = ((sum1 - sum0) / 1e3, count1 - count0);
        }
        let evicted = client.evict(&name);
        out.count(evicted, "evict");
        cycles.push(cycle);
        let done = if trace {
            cycles.len() == 2
        } else {
            Instant::now() >= deadline
        };
        if done {
            break;
        }
    }
    // Bare link round trips on the appender's link.
    let mut ping_ms = Vec::new();
    for seq in 0..32u64 {
        let t = Instant::now();
        let pong = client
            .send_raw_frame(&proto::encode(&ServeMessage::Ping(seq)))
            .and_then(|()| client.read_reply());
        ping_ms.push(ms_since(t));
        let ok = matches!(pong, Ok(ServeMessage::Pong(s)) if s == seq);
        out.check(ok, "ping not answered with its pong");
    }
    drop(tx);
    let log = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    // Recall: every query shape over each input's whole history, answered
    // by a session opened on it (timing cannot change these answers).
    let mut finals = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let name = format!("recall-{k}");
        let opened = client.open(&name, &input.full, WINDOW, STEP, BETA, &cfg);
        if out.count(opened, "open").is_none() {
            continue;
        }
        for shape in SHAPES {
            let reply = client.query(&name, shape.0, shape.1, shape.2);
            if let Some(reply) = out.count(reply, "query") {
                finals.push(Sampled {
                    cycle: k,
                    shape,
                    reply,
                });
            }
        }
        out.count(client.evict(&name), "evict");
    }
    drop(client);
    drop(daemon);

    for e in &log.errors {
        out.count(Err::<(), _>(e), "reader");
    }
    // The in-process replica of the session: the windows each append
    // should close, and the engine's own work per append.
    let mut replica =
        StreamingDangoron::new(inputs[0].open.clone(), WINDOW, STEP, BETA, cfg.clone())
            .map_err(err)?;
    let (mut closed_by, mut walk_ms, mut steals, mut chunk_counts) =
        (vec![0], Vec::new(), 0u64, 0u64);
    for chunk in &inputs[0].chunks {
        let (s0, c0) = common::exec_counters();
        let t = Instant::now();
        let closed = replica.append(chunk).map_err(err)?.len();
        walk_ms.push(ms_since(t));
        closed_by.push(closed_by[closed_by.len() - 1] + closed);
        let (s1, c1) = common::exec_counters();
        steals += s1 - s0;
        chunk_counts += c1 - c0;
    }
    for (k, c) in cycles.iter().enumerate() {
        let expected = closed_by[c.appends];
        out.check(
            c.windows_closed == expected,
            &format!(
                "cycle {k}: appends closed {} windows, expected {expected}",
                c.windows_closed
            ),
        );
    }
    // Replies against a one-shot run over the reply's columns.
    let exhaustive = Dangoron::new(engine_config(THREADS, BoundMode::Exhaustive)).map_err(err)?;
    let mut verify = |s: &Sampled| -> Result<(usize, usize), String> {
        let (window, step, threshold) = s.shape;
        let cols = s.reply.covered_cols;
        let prefix = inputs[s.cycle % inputs.len()]
            .full
            .slice_columns(0, cols)
            .map_err(err)?;
        let q = SlidingQuery {
            start: 0,
            end: cols,
            window,
            step,
            threshold,
        };
        let got = s.reply.matrices(n, threshold, EdgeRule::Positive);
        // `query_shared` reuses the session's pivot table only for the
        // session's own geometry and walks other geometries without
        // horizontal pruning; the one-shot run mirrors that.
        let mut one_shot = engine_config(THREADS, paper_jump());
        if (window, step) != (WINDOW, STEP) {
            one_shot.horizontal = None;
        }
        let want = Dangoron::new(one_shot)
            .and_then(|e| e.execute(&prefix, q))
            .map_err(err)?;
        out.check(
            windows_bit_identical(&got, &want.matrices),
            &format!("reply over {cols} columns ({window}, {step}) differs from a one-shot run"),
        );
        let exact = exhaustive.execute(&prefix, q).map_err(err)?;
        let subset = got.len() == exact.matrices.len()
            && got
                .iter()
                .zip(&exact.matrices)
                .all(|(a, b)| edges_subset_bitwise(a.edges(), b.edges()));
        out.check(
            subset,
            &format!("reply over {cols} columns has an edge Exhaustive lacks"),
        );
        Ok((n_edges(&got), n_edges(&exact.matrices)))
    };
    for s in &log.sampled {
        verify(s)?;
    }
    let (mut served_edges, mut exact_edges) = (0, 0);
    for s in &finals {
        let (got, exact) = verify(s)?;
        served_edges += got;
        exact_edges += exact;
    }
    out.check(
        !log.sampled.is_empty() && finals.len() == SHAPES.len() * inputs.len(),
        "a reply is missing from verification",
    );
    let recall = served_edges as f64 / exact_edges.max(1) as f64;
    let first = &cycles[0];
    out.notes.push(format!(
        "serve_daily: n={n} open={} cols, {} cycles, {} appends, {} queries, {} verified replies, recall={recall:.4}",
        open_ack.covered_cols,
        cycles.len(),
        cycles.iter().map(|c| c.appends).sum::<usize>(),
        log.rt_ms.len(),
        log.sampled.len()
    ));

    let untraced: Vec<f64> = cycles
        .iter()
        .take(if trace { 1 } else { cycles.len() })
        .flat_map(|c| c.append_ms.iter().copied())
        .collect();
    if !trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("op_p50_ms", median(&untraced), "ms");
        out.metric("op_p90_ms", quantile(&untraced, 0.9), "ms");
        out.metric("query_p50_ms", median(&log.rt_ms), "ms");
        out.metric("query_p90_ms", quantile(&log.rt_ms, 0.9), "ms");
        out.metric("recall", recall, "ratio");
        out.metric(
            "resident_mb",
            first.memory_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
        return Ok(());
    }

    let traced = &cycles[1];
    let append_p50 = median(&traced.append_ms);
    let service = median(&traced.service_ms);
    let query_service_ms = if query_service.1 > 0.0 {
        query_service.0 / query_service.1
    } else {
        0.0
    };
    // The codec of the same messages, encoded and decoded here.
    let (mut codec, mut frame_bytes) = (Vec::new(), Vec::new());
    for (d, chunk) in inputs[0].chunks.iter().enumerate().step_by(SAMPLE_EVERY) {
        let msgs = [
            ServeMessage::Append {
                name: "daily-1".into(),
                data: chunk.clone(),
            },
            ServeMessage::Appended {
                name: "daily-1".into(),
                covered_cols: (WINDOW + (d + 1) * STEP) as u64,
                windows_closed: 1,
                memory_bytes: traced.memory_bytes as u64,
            },
        ];
        let (ms, bytes) = codec_round(out, &msgs);
        codec.push(ms);
        frame_bytes.push(bytes as f64);
    }
    let (mut q_codec, mut q_bytes) = (Vec::new(), Vec::new());
    for s in &log.sampled {
        let msgs = [
            ServeMessage::Query {
                id: 1,
                name: "daily-0".into(),
                window: s.shape.0,
                step: s.shape.1,
                threshold: s.shape.2,
            },
            ServeMessage::QueryResult {
                id: 1,
                covered_cols: s.reply.covered_cols as u64,
                n_windows: s.reply.n_windows as u64,
                edges: s.reply.edges.clone(),
            },
        ];
        let (ms, bytes) = codec_round(out, &msgs);
        q_codec.push(ms);
        q_bytes.push(bytes as f64);
    }
    let codec_ms = median(&codec);
    let ping = median(&ping_ms);
    let open_query = SlidingQuery {
        start: 0,
        end: WINDOW,
        window: WINDOW,
        step: STEP,
        threshold: BETA,
    };
    // Opening the session builds these layers over the initial history.
    let layers = common::prepare_layers(&inputs[0].open, &open_query, cfg.threads)?;
    out.metric("sketch.store_build_ms", layers.store_ms, "ms");
    out.metric("sketch.pair_build_ms", layers.pair_ms, "ms");
    out.metric("core.cost_prefix_ms", layers.cost_ms, "ms");
    out.metric("core.pivot_build_ms", layers.pivot_ms, "ms");
    // The session runs one engine thread, so its walk is the 1-thread one.
    out.metric("core.walk_ms", median(&walk_ms), "ms");
    out.metric("core.walk_1t_ms", median(&walk_ms), "ms");
    common::pruning_metrics(out, replica.stats(), days);
    out.metric("exec.steal_attempts", steals as f64 / days as f64, "count");
    out.metric("exec.chunks", chunk_counts as f64 / days as f64, "count");
    out.metric("serve.append_service_ms", service, "ms");
    out.metric("serve.query_service_ms", query_service_ms, "ms");
    out.metric("serve.codec_ms", codec_ms, "ms");
    out.metric("serve.query_codec_ms", median(&q_codec), "ms");
    out.metric("serve.frame_bytes", median(&frame_bytes), "bytes");
    out.metric("serve.query_frame_bytes", median(&q_bytes), "bytes");
    out.metric("serve.ping_rtt_ms", ping, "ms");
    out.metric("serve.wait_ms", append_p50 - service - codec_ms, "ms");
    out.metric(
        "serve.query_wait_ms",
        median(&log.rt_ms) - query_service_ms - median(&q_codec),
        "ms",
    );
    out.metric(
        "unattributed_ms",
        append_p50 - service - codec_ms - ping,
        "ms",
    );
    out.metric("trace_overhead_ms", append_p50 - median(&untraced), "ms");
    Ok(())
}

/// Encodes and decodes each message once: `(milliseconds, frame bytes)`.
fn codec_round(out: &mut Outcome, msgs: &[ServeMessage]) -> (f64, usize) {
    let t = Instant::now();
    let mut bytes = 0;
    let mut ok = true;
    for m in msgs {
        let frame = proto::encode(m);
        bytes += frame.len();
        ok &= proto::decode(&frame).is_ok();
    }
    let ms = ms_since(t);
    out.check(ok, "serve frame does not decode");
    (ms, bytes)
}
