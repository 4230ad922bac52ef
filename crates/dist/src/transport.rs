//! Pluggable coordinator↔worker transports.
//!
//! The wire protocol ([`crate::proto`]) is a sequence of length-prefixed
//! frames over *any* byte stream; this module abstracts where that stream
//! comes from. A [`Transport`] is one established, bidirectional link to
//! one worker: framed writes on the coordinator thread, and a detachable
//! read half the coordinator moves onto a dedicated reader thread. Two
//! implementations exist:
//!
//! * [`ChildTransport`] — the PR 4 mode: the coordinator spawns a
//!   `dangoron-shard` child and speaks over its stdio pipes;
//! * [`TcpTransport`] — workers started independently (possibly on other
//!   machines) connect to `dangoron-coord --listen ADDR`, and the
//!   coordinator accepts them off a [`std::net::TcpListener`].
//!
//! Both halves of a link are severed by [`Transport::kill`] (SIGKILL for
//! a child, `shutdown(Both)` for a socket), which is what guarantees the
//! reader thread unblocks and can be joined — a reader blocked in
//! `read()` on a live pipe/socket would otherwise leak.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout};
use std::time::Duration;

use bytes::frame;

/// Tunes a freshly established framed TCP link: disables Nagle's
/// algorithm (`TCP_NODELAY`). Every frame already leaves in one write
/// ([`frame::write_to`]), but a writer that sends frames back to back
/// (a daemon pushing deltas and then its ack, or a reply spanning
/// several segments) would otherwise have its tail held until the peer
/// ACKs — and the peer delays that ACK by ~40 ms. Called on every link
/// this workspace dials or accepts.
pub fn tune_link(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// One established link to a worker, with the read half detachable so a
/// reader thread can own it while the coordinator keeps the write half.
pub trait Transport: Send {
    /// Writes one length-prefixed frame and flushes it.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Writes raw bytes (no framing) and flushes. Only the chaos layer
    /// uses this — truncating a frame mid-write requires bypassing the
    /// all-or-nothing framed `send`.
    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Takes the read half (at most once) for the reader thread.
    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>>;

    /// Called once the peer's handshake has been validated — the link is
    /// trusted from here on. [`TcpTransport`] uses this to lift the
    /// short pre-trust socket read timeout; the default is a no-op.
    fn handshake_complete(&mut self) {}

    /// Signals end-of-assignments: the worker's serve loop sees a clean
    /// EOF on its next read and exits.
    fn close_send(&mut self);

    /// Forcibly severs the link in both directions. Idempotent; after it
    /// returns, a blocked reader-thread `read()` is guaranteed to
    /// complete (EOF or error).
    fn kill(&mut self);

    /// Reaps whatever the transport owns (waits on a child process);
    /// called after [`Transport::close_send`] or [`Transport::kill`].
    fn reap(&mut self);

    /// A short human label for diagnostics (`"pipe"` / `"tcp"`).
    fn kind(&self) -> &'static str;
}

/// A spawned `dangoron-shard` child over its stdio pipes.
pub struct ChildTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<ChildStdout>,
}

impl ChildTransport {
    /// Wraps a child whose stdin/stdout were spawned piped.
    pub fn new(mut child: Child) -> Self {
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        Self {
            child,
            stdin,
            stdout,
        }
    }
}

impl Drop for ChildTransport {
    /// Error-path cleanup: a transport dropped before a graceful
    /// `close_send` + `reap` (e.g. registration bailed out mid-loop)
    /// must not leave the child as a zombie. After a normal shutdown the
    /// kill is a no-op and the wait returns the cached status.
    fn drop(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Transport for ChildTransport {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("worker stdin already closed"))?;
        frame::write_to(stdin, payload)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("worker stdin already closed"))?;
        stdin.write_all(bytes)?;
        stdin.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.stdout
            .take()
            .map(|s| Box::new(s) as Box<dyn Read + Send>)
    }

    fn close_send(&mut self) {
        self.stdin.take(); // dropping the pipe is the EOF
    }

    fn kill(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        // Reap immediately: child death closes its stdout pipe, which is
        // what unblocks the reader thread.
        let _ = self.child.wait();
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
    }

    fn kind(&self) -> &'static str {
        "pipe"
    }
}

/// A worker connected over TCP. The write half is owned here; the read
/// half is a cloned handle to the same socket, so `shutdown(Both)`
/// severs both at once.
pub struct TcpTransport {
    stream: TcpStream,
    reader: Option<TcpStream>,
}

impl TcpTransport {
    /// Wraps an accepted (or connected) stream and [tunes](tune_link) it.
    /// Cloning the read half can fail only on resource exhaustion.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        tune_link(&stream)?;
        let reader = stream.try_clone()?;
        Ok(Self {
            stream,
            reader: Some(reader),
        })
    }

    /// Sets the socket read timeout (used to bound the handshake read on
    /// a not-yet-trusted peer; `None` blocks forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Reads one frame synchronously off the link — the coordinator's
    /// handshake read, before the read half is detached.
    pub fn recv(&mut self, max_len: usize) -> io::Result<Option<Vec<u8>>> {
        match self.reader.as_mut() {
            Some(r) => frame::read_from(r, max_len),
            None => Err(io::Error::other("read half already detached")),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        frame::write_to(&mut self.stream, payload)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader
            .take()
            .map(|s| Box::new(s) as Box<dyn Read + Send>)
    }

    fn handshake_complete(&mut self) {
        // The read-timeout socket option is shared with the cloned read
        // half, so this also unblocks the reader thread's long waits.
        let _ = self.stream.set_read_timeout(None);
    }

    fn close_send(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn reap(&mut self) {}

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

/// The worker's side of a link: a framed `Read + Write` pair driving
/// [`crate::worker::serve`]. Stdio pipes and TCP sockets both reduce to
/// this.
pub struct WorkerIo<R: Read, W: Write> {
    /// The frame source (assignments in).
    pub input: R,
    /// The frame sink (results out).
    pub output: W,
}

impl WorkerIo<TcpStream, TcpStream> {
    /// Connects to a listening coordinator, retrying with jittered
    /// exponential backoff for up to `patience` (covers the two-terminal
    /// race where the worker starts before the coordinator has bound its
    /// listener, and the reconnect path after a dropped link). The delay
    /// doubles from 100 ms up to a 2 s cap, each sleep stretched by a
    /// seeded jitter of up to half the delay — a fleet of workers
    /// restarting together must not re-dial in lockstep.
    pub fn connect(addr: &str, patience: Duration, jitter_seed: u64) -> io::Result<Self> {
        let deadline = std::time::Instant::now() + patience;
        let mut rng = crate::chaos::Rng::new(jitter_seed);
        let mut delay = Duration::from_millis(100);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    tune_link(&stream)?;
                    let input = stream.try_clone()?;
                    return Ok(Self {
                        input,
                        output: stream,
                    });
                }
                Err(e) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    let jitter_ms = rng.range_u64(0, delay.as_millis() as u64 / 2 + 1);
                    let sleep = (delay + Duration::from_millis(jitter_ms))
                        .min(deadline.saturating_duration_since(now));
                    std::thread::sleep(sleep);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
            }
        }
    }
}

/// How one conversation over a [`serve_with_reconnect`] link ended, as
/// reported by the serve closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// This side is done on purpose (a client that sent its last
    /// request). Never retried.
    Done,
    /// The link hit end-of-file. For a worker this is ambiguous: a peer
    /// that finished cleanly closes the link exactly the way a severed
    /// link looks from here — only the listener knows which happened, so
    /// the reconnect loop disambiguates with a probe dial.
    Eof,
}

/// Patience for the probe dial after an [`LinkEnd::Eof`]: long enough to
/// ride out a restarting listener, short enough that a peer outliving a
/// finished run exits promptly instead of grinding the full `patience`.
const EOF_PROBE_PATIENCE: Duration = Duration::from_secs(2);

/// Dials `addr` and hands the link to `serve`; re-dials and re-serves up
/// to `reconnect` more times before giving up. [`LinkEnd::Done`] ends
/// the loop — a deliberate finish is never retried. [`LinkEnd::Eof`]
/// could be either a peer that completed its run or a link that was
/// killed under this side while it sat idle (both read as end-of-file),
/// so the loop probes: if something is still listening on `addr` the run
/// is still on and the link is re-established; if nothing accepts within
/// a short patience, the peer is gone and the loop exits cleanly. An
/// `Err` (a link that died mid-frame) re-dials with the full `patience`
/// and surfaces the error once attempts are exhausted.
///
/// This is the one reconnect loop shared by every long-lived peer of a
/// listening process: `dangoron-shard --connect/--reconnect` rejoining an
/// elastic coordinator, and the serving tier's clients re-dialing a
/// `dangoron-serve` daemon. The backoff jitter is seeded per process
/// *and* per attempt ([`WorkerIo::connect`]) so a fleet killed together
/// does not re-dial in lockstep. `who` labels the retry diagnostics on
/// stderr.
pub fn serve_with_reconnect<F>(
    addr: &str,
    patience: Duration,
    reconnect: u32,
    who: &str,
    mut serve: F,
) -> io::Result<()>
where
    F: FnMut(WorkerIo<TcpStream, TcpStream>) -> io::Result<LinkEnd>,
{
    let mut attempt: u32 = 0;
    let mut probing = false;
    loop {
        let seed = (std::process::id() as u64) << 8 | attempt as u64;
        let link = if probing {
            match WorkerIo::connect(addr, EOF_PROBE_PATIENCE, seed) {
                Ok(link) => link,
                // Nothing accepting: the peer finished and left. A clean
                // end-of-run must exit cleanly, not as a dial error.
                Err(_) => return Ok(()),
            }
        } else {
            WorkerIo::connect(addr, patience, seed)?
        };
        match serve(link) {
            Ok(LinkEnd::Done) => return Ok(()),
            Ok(LinkEnd::Eof) if attempt < reconnect => {
                attempt += 1;
                probing = true;
                eprintln!(
                    "{who}: link closed; probing {addr} for a live peer (attempt {attempt}/{reconnect})"
                );
            }
            Ok(LinkEnd::Eof) => return Ok(()),
            Err(e) if attempt < reconnect => {
                attempt += 1;
                probing = false;
                eprintln!("{who}: link lost ({e}); reconnecting to {addr} (attempt {attempt}/{reconnect})");
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_transport_frames_roundtrip_and_kill_unblocks_the_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut io = WorkerIo::connect(&addr.to_string(), Duration::from_secs(5), 1).unwrap();
            // Echo one frame back, then wait for the EOF from close_send.
            let got = frame::read_from(&mut io.input, 1024).unwrap().unwrap();
            frame::write_to(&mut io.output, &got).unwrap();
            assert!(frame::read_from(&mut io.input, 1024).unwrap().is_none());
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        t.send(b"ping").unwrap();
        assert_eq!(t.recv(1024).unwrap().unwrap(), b"ping");
        let mut reader = t.take_reader().unwrap();
        t.close_send();
        client.join().unwrap();
        // After the peer exits, the detached read half sees EOF.
        assert!(frame::read_from(&mut reader, 1024).unwrap().is_none());
        t.kill();
        t.reap();
        assert_eq!(t.kind(), "tcp");
    }

    #[test]
    fn every_framed_tcp_link_disables_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let io = WorkerIo::connect(&addr, Duration::from_secs(5), 3).unwrap();
        assert!(io.input.nodelay().unwrap());
        assert!(io.output.nodelay().unwrap());
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "accepted sockets start with Nagle on"
        );
        let t = TcpTransport::new(accepted).unwrap();
        assert!(t.stream.nodelay().unwrap());
        assert!(t.reader.as_ref().unwrap().nodelay().unwrap());
    }

    #[test]
    fn serve_with_reconnect_redials_on_error_and_stops_on_ok() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            // Accept three links; the worker errors twice, then succeeds.
            for _ in 0..3 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let mut served = 0;
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 5, "test", |_link| {
            served += 1;
            if served < 3 {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected"))
            } else {
                Ok(LinkEnd::Done)
            }
        });
        assert!(res.is_ok());
        assert_eq!(served, 3, "a deliberate finish must not be retried");
        acceptor.join().unwrap();

        // Exhausted retries surface the last error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            for _ in 0..2 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 1, "test", |_link| {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "always"))
        });
        assert!(res.is_err());
        acceptor.join().unwrap();
    }

    #[test]
    fn eof_probe_rejoins_while_the_listener_lives() {
        // A link killed while this side sits idle reads as EOF; as long
        // as the listener is still up, the loop must re-establish it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            for _ in 0..2 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let mut served = 0;
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 3, "test", |_link| {
            served += 1;
            if served == 1 {
                Ok(LinkEnd::Eof)
            } else {
                Ok(LinkEnd::Done)
            }
        });
        assert!(res.is_ok());
        assert_eq!(served, 2, "EOF with a live listener must rejoin");
        acceptor.join().unwrap();
    }

    #[test]
    fn eof_exits_cleanly_once_the_listener_is_gone() {
        // The other half of the ambiguity: EOF because the peer finished
        // and closed up. The probe finds nothing accepting and the loop
        // ends Ok — never a dial error, never a full-patience grind.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            serve_with_reconnect(&addr, Duration::from_secs(30), 3, "test", |_link| {
                Ok(LinkEnd::Eof)
            })
        });
        let (_s, _) = listener.accept().unwrap();
        drop(listener);
        // The probe may still catch the listener's backlog for an accept
        // or two; the attempt budget bounds it either way.
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn connect_retries_until_the_listener_appears() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe); // free the port; nothing is listening now
        let waiter = std::thread::spawn(move || {
            WorkerIo::connect(&addr.to_string(), Duration::from_secs(10), 2)
        });
        std::thread::sleep(Duration::from_millis(400));
        let listener = TcpListener::bind(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        assert!(waiter.join().unwrap().is_ok());
    }
}
