//! `obs::http` — a hand-rolled, hardened HTTP/1.1 exposition server.
//!
//! Same total-decode discipline as `dist::proto`: the request line and
//! header block are read against hard byte caps, bytes after the header
//! terminator are rejected as trailing garbage (we serve GET/HEAD only,
//! so a body is never legitimate), every read runs under a socket
//! deadline so a slow-loris peer cannot pin a scrape slot, and no path
//! panics (lint rule R3 covers this crate) — malformed input gets a 4xx
//! or a close, never a crash and never an unbounded allocation.
//!
//! Routes: `/metrics` (Prometheus text), `/stats.json` (JSON snapshot),
//! `/healthz`, plus an optional caller-provided route handler for
//! embedder-specific paths (the serve daemon mounts
//! `/sessions/<name>/edges` through it). Connections are one-shot
//! (`Connection: close`); concurrency is capped by a wait-free slot
//! counter — an over-cap connection gets an immediate 503.

use crate::expo;
use crate::registry::{Registry, Snapshot};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on the request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 4 * 1024;
/// Hard cap on the whole head (request line + headers + terminator).
pub const MAX_HEAD: usize = 8 * 1024;
/// Per-socket read timeout; also the granularity of deadline checks.
pub const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Total time a connection may spend delivering its head.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(3);
/// Concurrent connection cap; over-cap connections get 503.
pub const MAX_CONNS: usize = 8;

/// A response from a custom route handler.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 JSON response.
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
        }
    }
}

/// Custom route hook: `(path, query) -> Some(response)` to claim the
/// request, `None` to fall through to 404. Must never panic — it runs on
/// a scrape thread inside the supervised server.
pub type RouteHandler = Arc<dyn Fn(&str, &str) -> Option<Response> + Send + Sync>;

/// The embedded exposition server. Binds on construction, serves from a
/// background accept thread, and shuts down (joining the acceptor) on
/// [`MetricsServer::shutdown`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// starts serving merged snapshots of `registries`. `extra` handles
    /// embedder routes before the 404 fallback.
    pub fn bind(
        addr: &str,
        registries: Vec<Arc<Registry>>,
        extra: Option<RouteHandler>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        // Blocking accept: a scrape is picked up the moment it connects;
        // `shutdown` wakes the acceptor with a loopback connect.
        let acceptor = std::thread::Builder::new()
            .name("obs-http".into())
            .spawn(move || accept_loop(listener, registries, extra, stop2))?;
        Ok(Self {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. In-flight responses finish on
    /// their own threads.
    pub fn shutdown(&mut self) {
        let Some(h) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Wake the blocked `accept`; it sees `stop` and returns. A
        // wildcard bind is reachable on loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Join only once the wake-up is queued; an unreachable listener
        // would block the join forever, so the acceptor is left detached.
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    registries: Vec<Arc<Registry>>,
    extra: Option<RouteHandler>,
    stop: Arc<AtomicBool>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return; // `shutdown`'s wake-up connect (or a late scrape)
        }
        match accepted {
            Ok((stream, _)) => {
                // Wait-free slot claim: over-cap peers are told to retry
                // rather than queued (a stuck scraper must not starve the
                // next one).
                if live.fetch_add(1, Ordering::AcqRel) >= MAX_CONNS {
                    live.fetch_sub(1, Ordering::AcqRel);
                    let _ = respond(&stream, 503, "text/plain; charset=utf-8", b"busy\n", false);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let registries = registries.clone();
                let extra = extra.clone();
                let live2 = Arc::clone(&live);
                let spawned =
                    std::thread::Builder::new()
                        .name("obs-conn".into())
                        .spawn(move || {
                            handle_conn(stream, &registries, extra.as_ref());
                            live2.fetch_sub(1, Ordering::AcqRel);
                        });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::AcqRel);
                }
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads the request head (through `\r\n\r\n`) under byte caps and the
/// head deadline. Returns the head bytes plus any trailing garbage flag.
fn read_head(stream: &mut TcpStream) -> Result<(Vec<u8>, bool), u16> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let start = Instant::now();
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if buf.len() > MAX_HEAD {
            return Err(431); // head too large
        }
        if start.elapsed() > HEAD_DEADLINE {
            return Err(408); // slow-loris: out of time
        }
        // Reject an oversized request line before the terminator arrives:
        // if the first line hasn't ended within its cap, no suffix can
        // make the request valid.
        if !buf.contains(&b'\n') && buf.len() > MAX_REQUEST_LINE {
            return Err(414);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(400), // truncated: EOF before terminator
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n.min(chunk.len())]);
                if let Some(pos) = find_terminator(&buf) {
                    let trailing = buf.len() > pos + 4;
                    buf.truncate(pos + 4);
                    return Ok((buf, trailing));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Per-read timeout: loop to re-check the overall deadline.
            }
            Err(_) => return Err(400),
        }
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct Request {
    method: String,
    path: String,
    query: String,
}

/// Parses the head: request line `METHOD SP TARGET SP HTTP/1.x`, then
/// headers. Rejects bodies outright (Content-Length > 0 or any
/// Transfer-Encoding) — this server is read-only.
fn parse_head(head: &[u8]) -> Result<Request, u16> {
    let text = std::str::from_utf8(head).map_err(|_| 400u16)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(400u16)?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(414);
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(400u16)?;
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if parts.next().is_some() || !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(400);
    }
    if method.is_empty() || target.is_empty() || !target.starts_with('/') {
        return Err(400);
    }
    for line in lines {
        if line.is_empty() {
            continue; // the blank line before the (absent) body
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(400); // header without a colon
        };
        if name.is_empty() || name.contains(' ') {
            return Err(400);
        }
        let lname = name.to_ascii_lowercase();
        let value = value.trim();
        if lname == "content-length" {
            match value.parse::<u64>() {
                Ok(0) => {}
                Ok(_) => return Err(400), // a body on GET/HEAD: reject
                Err(_) => return Err(400),
            }
        }
        if lname == "transfer-encoding" {
            return Err(400);
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
    })
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    head_only: bool,
) -> std::io::Result<()> {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_reason(status),
        content_type,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(body)?;
    }
    stream.flush()
}

/// Merged snapshot across all mounted registries, re-sorted so the
/// exposition stays stable regardless of registry order.
fn merged_snapshot(registries: &[Arc<Registry>]) -> Vec<Snapshot> {
    let mut all: Vec<Snapshot> = Vec::new();
    for r in registries {
        all.extend(r.snapshot());
    }
    all.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    all
}

fn handle_conn(mut stream: TcpStream, registries: &[Arc<Registry>], extra: Option<&RouteHandler>) {
    let req = match read_head(&mut stream) {
        Ok((head, trailing)) => {
            if trailing {
                // Pipelined garbage after the terminator of a GET/HEAD:
                // reject rather than guess at framing.
                let _ = respond(
                    &stream,
                    400,
                    "text/plain; charset=utf-8",
                    b"trailing data\n",
                    false,
                );
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            match parse_head(&head) {
                Ok(r) => r,
                Err(status) => {
                    let _ = respond(
                        &stream,
                        status,
                        "text/plain; charset=utf-8",
                        b"bad request\n",
                        false,
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        Err(status) => {
            let _ = respond(
                &stream,
                status,
                "text/plain; charset=utf-8",
                b"bad request\n",
                false,
            );
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let head_only = match req.method.as_str() {
        "GET" => false,
        "HEAD" => true,
        _ => {
            let _ = respond(
                &stream,
                405,
                "text/plain; charset=utf-8",
                b"GET or HEAD only\n",
                false,
            );
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let resp = match req.path.as_str() {
        "/metrics" => {
            let text = expo::to_prometheus(&merged_snapshot(registries));
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: text.into_bytes(),
            }
        }
        "/stats.json" => Response::json(expo::to_json(&merged_snapshot(registries))),
        "/healthz" => Response::text(200, "ok\n"),
        _ => match extra.and_then(|h| h(&req.path, &req.query)) {
            Some(r) => r,
            None => Response::text(404, "not found\n"),
        },
    };
    let _ = respond(
        &stream,
        resp.status,
        resp.content_type,
        &resp.body,
        head_only,
    );
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MetricsServer {
        let r = Arc::new(Registry::new());
        r.counter("t_ops_total", "ops").add(3);
        MetricsServer::bind("127.0.0.1:0", vec![r], None).unwrap()
    }

    fn roundtrip(addr: SocketAddr, req: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(req).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_metrics_and_health() {
        let srv = server();
        let out = roundtrip(srv.addr(), b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"));
        assert!(out.contains("t_ops_total 3"));
        let out = roundtrip(srv.addr(), b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(out.contains("ok"));
        let out = roundtrip(srv.addr(), b"GET /nope HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn shutdown_wakes_the_blocked_acceptor_and_closes_the_listener() {
        let mut srv = server();
        let addr = srv.addr();
        let t = Instant::now();
        srv.shutdown();
        assert!(t.elapsed() < Duration::from_secs(1));
        // The joined acceptor dropped the listener: nothing accepts now.
        assert!(TcpStream::connect(addr).is_err());
        srv.shutdown(); // idempotent
    }

    #[test]
    fn head_returns_headers_only() {
        let srv = server();
        let out = roundtrip(srv.addr(), b"HEAD /metrics HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"));
        assert!(!out.contains("t_ops_total"));
        assert!(out.contains("Content-Length:"));
    }

    #[test]
    fn custom_route_handler_mounts() {
        let r = Arc::new(Registry::new());
        let handler: RouteHandler = Arc::new(|path, query| {
            (path == "/custom").then(|| Response::json(format!("{{\"q\":\"{}\"}}", query)))
        });
        let srv = MetricsServer::bind("127.0.0.1:0", vec![r], Some(handler)).unwrap();
        let out = roundtrip(srv.addr(), b"GET /custom?w=3 HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"));
        assert!(out.contains("{\"q\":\"w=3\"}"));
    }
}
