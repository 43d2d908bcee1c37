//! The service: session dispatch, the TCP accept loop, and the
//! in-process loopback used by tests and benchmarks.
//!
//! A session is strictly turn-based: the client sends one request frame,
//! the server answers with one response frame — except for streams
//! (`SubmitJob` with `stream: true`, or `Subscribe`), where the response
//! is followed by `0x2_` frames until `StreamEnd`, after which the
//! connection is again free for requests. The dispatcher is generic over
//! `Read + Write`, so the identical code path serves TCP sockets and the
//! [`crate::pipe`] loopback.

use crate::frame::{read_frame, write_frame, Frame, FrameError, FrameType};
use crate::job::JobManager;
use crate::metrics::ServerMetrics;
use crate::pipe::{duplex, PipeEnd};
use crate::queue::SubQueue;
use crate::wire;
use freerider_telemetry::{trace, Stopwatch};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Listen address knob.
pub const ADDR_ENV: &str = "FREERIDER_SERVE_ADDR";
/// Per-job subscriber cap knob.
pub const MAX_SUBS_ENV: &str = "FREERIDER_SERVE_MAX_SUBS";
/// Per-subscriber queue capacity knob. Values below
/// [`crate::job::MIN_QUEUE_CAP`] are clamped there, so eviction can
/// never discard a stream's terminal `JobResult`/`StreamEnd` frames.
pub const QUEUE_ENV: &str = "FREERIDER_SERVE_QUEUE";
/// Periodic stats-push knob: broadcast a `Stats` frame to every
/// subscriber after each this-many completed rounds (unset/0 = off).
pub const STATS_EVERY_ENV: &str = "FREERIDER_SERVE_STATS_EVERY";

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7973";
/// Default per-job subscriber cap.
pub const DEFAULT_MAX_SUBS: usize = 64;
/// Default per-subscriber queue capacity, in frames.
pub const DEFAULT_QUEUE: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Per-job subscriber cap.
    pub max_subs: usize,
    /// Per-subscriber stream queue capacity, in frames.
    pub queue_cap: usize,
    /// Executor width for job threads (0 = honour `FREERIDER_THREADS`).
    pub threads: usize,
    /// Broadcast a `Stats` frame to subscribers every this many rounds
    /// (0 = never). Enabling this makes the byte/frame counters
    /// timing-dependent; the counters determinism contract holds at 0.
    pub stats_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            max_subs: DEFAULT_MAX_SUBS,
            queue_cap: DEFAULT_QUEUE,
            threads: 0,
            stats_every: 0,
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl ServeConfig {
    /// Reads `FREERIDER_SERVE_ADDR` / `_MAX_SUBS` / `_QUEUE` /
    /// `_STATS_EVERY`; unset or unparsable values fall back to the
    /// defaults.
    pub fn from_env() -> Self {
        ServeConfig {
            addr: std::env::var(ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_string()),
            max_subs: env_usize(MAX_SUBS_ENV, DEFAULT_MAX_SUBS),
            queue_cap: env_usize(QUEUE_ENV, DEFAULT_QUEUE),
            threads: 0,
            stats_every: env_usize(STATS_EVERY_ENV, 0),
        }
    }

    fn manager(&self) -> JobManager {
        JobManager::new(self.threads, self.queue_cap, self.max_subs)
            .with_stats_every(self.stats_every)
    }
}

// ---------------------------------------------------------------------
// Session dispatch (transport-agnostic).

/// Serves one connection until the peer hangs up or asks for shutdown.
/// `on_shutdown` is invoked when a `Shutdown` frame is honoured, after
/// the `ShuttingDown` acknowledgement is on the wire.
///
/// Every decoded frame is counted (by type and bytes) in the server's
/// [`ServerMetrics`]; malformed framing (bad version/type/over-cap
/// length) is counted separately before the session hangs up. With
/// `FREERIDER_TRACE` active, the session runs under a `serve.session`
/// trace packet and each request under a nested `serve.frame.<type>`
/// packet, so a failed or slow request is forensically reconstructable.
pub fn handle_session<S: Read + Write, F: Fn()>(mut stream: S, mgr: &JobManager, on_shutdown: F) {
    let metrics = Arc::clone(mgr.metrics());
    let session = metrics.session_opened();
    let _session_scope = trace::packet("serve.session", session);
    let mut seq = 0u64;
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
            Err(e) => {
                // The peer's framing is broken — bad version, unknown
                // type, or an over-cap length. Count it, tell the peer
                // if the pipe still works, and hang up: resynchronizing
                // a misaligned byte stream is not possible.
                metrics.malformed();
                trace::fail("malformed frame");
                send_error(&mut stream, &metrics, &e.to_string());
                break;
            }
        };
        metrics.frame_rx(frame.kind, frame.payload.len());
        seq += 1;
        let _frame_scope = trace::packet(frame.kind.trace_scope(), seq);
        let clock = Stopwatch::start();
        // Streaming arms record their own handling latency (response
        // sent, before the open-ended pump); every other arm is timed
        // here, after dispatch.
        let self_timed = matches!(frame.kind, FrameType::SubmitJob | FrameType::Subscribe);
        let keep_going = match frame.kind {
            FrameType::SubmitJob => on_submit(&mut stream, mgr, &frame.payload, &clock),
            FrameType::JobStatus => on_status(&mut stream, mgr, &frame.payload),
            FrameType::CancelJob => on_cancel(&mut stream, mgr, &frame.payload),
            FrameType::ListJobs => send(
                &mut stream,
                &metrics,
                Frame::new(FrameType::Jobs, wire::encode_jobs(&mgr.list())),
            ),
            FrameType::Subscribe => on_subscribe(&mut stream, mgr, &frame.payload, &clock),
            FrameType::GetStats => {
                // Snapshot first, send second: the Stats frame's own tx
                // accounting lands *after* the snapshot, so a snapshot
                // never (self-referentially) counts itself.
                let payload = wire::encode_stats(&metrics.report());
                send(&mut stream, &metrics, Frame::new(FrameType::Stats, payload))
            }
            FrameType::GetHealth => send(
                &mut stream,
                &metrics,
                Frame::new(FrameType::Health, wire::encode_health(&metrics.health())),
            ),
            FrameType::Shutdown => {
                send(&mut stream, &metrics, Frame::bare(FrameType::ShuttingDown));
                on_shutdown();
                false
            }
            other => send_error(
                &mut stream,
                &metrics,
                &format!("frame type {other:?} is not a request"),
            ),
        };
        if !self_timed {
            metrics.frame_handled_ns(frame.kind, clock.elapsed_ns());
        }
        if !keep_going {
            break;
        }
    }
    metrics.session_closed();
}

fn send<S: Write>(stream: &mut S, metrics: &ServerMetrics, frame: Frame) -> bool {
    let ok = write_frame(stream, &frame).is_ok();
    if ok {
        metrics.frame_tx(frame.kind, frame.payload.len());
    }
    ok
}

fn send_error<S: Write>(stream: &mut S, metrics: &ServerMetrics, msg: &str) -> bool {
    send(
        stream,
        metrics,
        Frame::new(FrameType::Error, wire::encode_error(msg)),
    )
}

/// Drains a subscriber queue onto the wire until it closes (the final
/// frame is always `StreamEnd`). Returns `false` when the peer is gone.
fn pump<S: Write>(stream: &mut S, metrics: &ServerMetrics, q: &SubQueue) -> bool {
    while let Some(frame) = q.pop() {
        if !send(stream, metrics, frame) {
            // Writer gone: close so the job thread stops cloning frames
            // into a queue nobody will ever drain.
            q.close();
            return false;
        }
    }
    true
}

fn on_submit<S: Read + Write>(
    stream: &mut S,
    mgr: &JobManager,
    payload: &[u8],
    clock: &Stopwatch,
) -> bool {
    let metrics = mgr.metrics();
    let spec = match wire::decode_submit(payload) {
        Ok(s) => s,
        Err(e) => return send_error(stream, metrics, &e.to_string()),
    };
    if spec.stream {
        // Attach the subscriber *before* the job thread starts so the
        // submitting connection observes every frame from round zero.
        let q = mgr.new_queue();
        let id = mgr.submit(spec, Some(Arc::clone(&q)));
        let accepted = send(
            stream,
            metrics,
            Frame::new(FrameType::JobAccepted, wire::encode_job_id(id)),
        );
        metrics.frame_handled_ns(FrameType::SubmitJob, clock.elapsed_ns());
        if !accepted {
            q.close();
            return false;
        }
        pump(stream, metrics, &q)
    } else {
        let id = mgr.submit(spec, None);
        let ok = send(
            stream,
            metrics,
            Frame::new(FrameType::JobAccepted, wire::encode_job_id(id)),
        );
        metrics.frame_handled_ns(FrameType::SubmitJob, clock.elapsed_ns());
        ok
    }
}

fn on_status<S: Read + Write>(stream: &mut S, mgr: &JobManager, payload: &[u8]) -> bool {
    let metrics = mgr.metrics();
    let id = match wire::decode_job_id(payload) {
        Ok(id) => id,
        Err(e) => return send_error(stream, metrics, &e.to_string()),
    };
    match mgr.get(id) {
        Some(job) => send(
            stream,
            metrics,
            Frame::new(FrameType::Status, wire::encode_status(&job.status())),
        ),
        None => send_error(stream, metrics, &format!("no such job {id}")),
    }
}

fn on_cancel<S: Read + Write>(stream: &mut S, mgr: &JobManager, payload: &[u8]) -> bool {
    let metrics = mgr.metrics();
    let id = match wire::decode_job_id(payload) {
        Ok(id) => id,
        Err(e) => return send_error(stream, metrics, &e.to_string()),
    };
    match mgr.cancel(id) {
        Some(landed) => send(
            stream,
            metrics,
            Frame::new(FrameType::Cancelled, wire::encode_cancelled(id, landed)),
        ),
        None => send_error(stream, metrics, &format!("no such job {id}")),
    }
}

fn on_subscribe<S: Read + Write>(
    stream: &mut S,
    mgr: &JobManager,
    payload: &[u8],
    clock: &Stopwatch,
) -> bool {
    let metrics = mgr.metrics();
    let id = match wire::decode_job_id(payload) {
        Ok(id) => id,
        Err(e) => return send_error(stream, metrics, &e.to_string()),
    };
    match mgr.subscribe(id) {
        Ok(q) => {
            metrics.frame_handled_ns(FrameType::Subscribe, clock.elapsed_ns());
            pump(stream, metrics, &q)
        }
        Err(e) => send_error(stream, metrics, &e),
    }
}

// ---------------------------------------------------------------------
// TCP server.

/// A bound, not-yet-running TCP server.
pub struct Server {
    listener: TcpListener,
    mgr: Arc<JobManager>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address. Port 0 picks an ephemeral port —
    /// read it back with [`Server::local_addr`].
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            mgr: Arc::new(cfg.manager()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The server's metrics registry (tests and the serve binary read
    /// it after `run` returns).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(self.mgr.metrics())
    }

    /// The actual bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a client sends `Shutdown`. Each session
    /// runs on its own thread; on shutdown every unfinished job is
    /// cancelled, every session socket is shut down (so a session parked
    /// in a blocking read on an idle connection wakes up instead of
    /// pinning the server forever), and all session threads are joined.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        // Per live session: a socket clone (to unblock its read on
        // shutdown) and the thread handle (to join).
        let mut sessions: Vec<(Option<TcpStream>, std::thread::JoinHandle<()>)> = Vec::new();
        loop {
            let (socket, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if self.stop.load(Ordering::Acquire) => break,
                Err(e) => return Err(e),
            };
            if self.stop.load(Ordering::Acquire) {
                break; // the self-connect that unblocked accept()
            }
            // Reap finished sessions so a long-running server does not
            // accumulate one handle per connection it ever served.
            let mut i = 0;
            while i < sessions.len() {
                if sessions[i].1.is_finished() {
                    let (_, h) = sessions.swap_remove(i);
                    let _ = h.join();
                } else {
                    i += 1;
                }
            }
            freerider_telemetry::count("serve.sessions");
            // Turn-based protocol, whole frames per write: Nagle would
            // only hold a reply back for the client's delayed ACK.
            let _ = socket.set_nodelay(true);
            let peer = socket.try_clone().ok();
            let mgr = Arc::clone(&self.mgr);
            let stop = Arc::clone(&self.stop);
            let handle = std::thread::spawn(move || {
                handle_session(socket, &mgr, || {
                    stop.store(true, Ordering::Release);
                    // Unblock the accept loop so it notices the flag.
                    let _ = TcpStream::connect(addr);
                });
            });
            sessions.push((peer, handle));
        }
        // Order matters: finish the jobs first (closing stream queues, so
        // any session inside `pump` drains out), then shut the sockets so
        // sessions parked in `read_frame` fail their read, then join.
        self.mgr.shutdown();
        for (sock, h) in &sessions {
            if !h.is_finished() {
                // Still parked in a blocking read with no work pending:
                // this shutdown is tearing down an idle connection.
                self.mgr.metrics().session_idle_shutdown();
            }
            if let Some(s) = sock {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        for (_, h) in sessions {
            let _ = h.join();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Loopback (in-process) serving.

/// An in-process server: same dispatcher, no sockets. Each
/// [`Loopback::connect`] opens a fresh session over a [`crate::pipe`]
/// duplex, served by its own thread against the shared [`JobManager`].
pub struct Loopback {
    mgr: Arc<JobManager>,
}

impl Loopback {
    /// A loopback server with the given configuration (`addr` unused).
    pub fn new(cfg: &ServeConfig) -> Loopback {
        Loopback {
            mgr: Arc::new(cfg.manager()),
        }
    }

    /// Opens a session; the returned end speaks the frame protocol.
    /// Dropping it hangs the session up.
    pub fn connect(&self) -> PipeEnd {
        let (client_end, server_end) = duplex();
        let mgr = Arc::clone(&self.mgr);
        std::thread::spawn(move || {
            handle_session(server_end, &mgr, || {});
        });
        client_end
    }

    /// Direct access to the job manager (tests assert on job state).
    pub fn manager(&self) -> &JobManager {
        &self.mgr
    }
}
