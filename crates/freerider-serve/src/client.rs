//! The client half of the protocol: typed requests over any transport.
//!
//! [`Client`] wraps a `Read + Write` transport (a `TcpStream`, or a
//! [`crate::pipe::PipeEnd`] from [`crate::server::Loopback`]) and speaks
//! the request/response exchanges; [`Client::next_event`] pulls stream
//! frames during a subscription. The raw `JobResult` payload bytes are
//! surfaced alongside the decoded report so callers can assert
//! byte-identity against an in-process run.

use crate::frame::{read_frame, write_frame, Frame, FrameError, FrameType};
use crate::metrics::{HealthInfo, StatsReport};
use crate::wire::{self, JobSpec, StatusInfo, WireError};
use freerider_net::{DeploymentReport, RoundProgress, TagReport};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport/framing failure.
    Frame(FrameError),
    /// The response payload did not decode.
    Wire(WireError),
    /// The server answered with an `Error` frame.
    Server(String),
    /// The server answered with a frame type this call cannot accept.
    Unexpected(FrameType),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(t) => write!(f, "unexpected frame type {t:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One frame of a job's stream, decoded.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// Per-round progress.
    Progress(RoundProgress),
    /// Periodic per-tag snapshot.
    Tags {
        /// Round the snapshot was taken after.
        round: usize,
        /// Every tag's state so far.
        tags: Vec<TagReport>,
    },
    /// The job's final report.
    Result {
        /// The exact payload bytes as served (byte-identity checks).
        raw: Vec<u8>,
        /// The decoded report.
        report: DeploymentReport,
    },
    /// A periodic server metrics snapshot (`FREERIDER_SERVE_STATS_EVERY`).
    Stats(StatsReport),
    /// End of the stream.
    End {
        /// The job whose stream ended.
        job: u64,
    },
}

/// A protocol client over any `Read + Write` transport.
pub struct Client<S: Read + Write> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connects over TCP, with `TCP_NODELAY` set: each request is one
    /// whole frame, so Nagle's algorithm could only delay it.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected transport.
    pub fn over(stream: S) -> Client<S> {
        Client { stream }
    }

    fn call(&mut self, request: Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, &request)?;
        self.recv()
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        let f = read_frame(&mut self.stream)?;
        if f.kind == FrameType::Error {
            return Err(ClientError::Server(wire::decode_error(&f.payload)?));
        }
        Ok(f)
    }

    fn request(&mut self, request: Frame, kind: FrameType) -> Result<Frame, ClientError> {
        let f = self.call(request)?;
        if f.kind != kind {
            return Err(ClientError::Unexpected(f.kind));
        }
        Ok(f)
    }

    /// Submits a job; returns its id. When `spec.stream` is true the
    /// server follows the acknowledgement with the job's stream — pull
    /// it with [`Client::next_event`] until [`StreamEvent::End`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        let f = self.request(
            Frame::new(FrameType::SubmitJob, wire::encode_submit(spec)),
            FrameType::JobAccepted,
        )?;
        Ok(wire::decode_job_id(&f.payload)?)
    }

    /// The next stream frame, decoded. Call only while a stream is
    /// active (after a streaming submit or a subscribe).
    pub fn next_event(&mut self) -> Result<StreamEvent, ClientError> {
        let f = self.recv()?;
        Ok(match f.kind {
            FrameType::Progress => StreamEvent::Progress(wire::decode_progress(&f.payload)?),
            FrameType::TagSnapshot => {
                let (round, tags) = wire::decode_tags(&f.payload)?;
                StreamEvent::Tags { round, tags }
            }
            FrameType::JobResult => {
                let report = wire::decode_report(&f.payload)?;
                StreamEvent::Result {
                    raw: f.payload,
                    report,
                }
            }
            FrameType::Stats => StreamEvent::Stats(wire::decode_stats(&f.payload)?),
            FrameType::StreamEnd => StreamEvent::End {
                job: wire::decode_job_id(&f.payload)?,
            },
            other => return Err(ClientError::Unexpected(other)),
        })
    }

    /// Drains a stream to its end; returns all events in order.
    pub fn drain_stream(&mut self) -> Result<Vec<StreamEvent>, ClientError> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?;
            let done = matches!(e, StreamEvent::End { .. });
            events.push(e);
            if done {
                return Ok(events);
            }
        }
    }

    /// One job's status.
    pub fn status(&mut self, job: u64) -> Result<StatusInfo, ClientError> {
        let f = self.request(
            Frame::new(FrameType::JobStatus, wire::encode_job_id(job)),
            FrameType::Status,
        )?;
        Ok(wire::decode_status(&f.payload)?)
    }

    /// Requests cancellation; returns whether it landed before the job
    /// finished.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        let f = self.request(
            Frame::new(FrameType::CancelJob, wire::encode_job_id(job)),
            FrameType::Cancelled,
        )?;
        Ok(wire::decode_cancelled(&f.payload)?.1)
    }

    /// Every job's status, ascending by id.
    pub fn list(&mut self) -> Result<Vec<StatusInfo>, ClientError> {
        let f = self.request(Frame::bare(FrameType::ListJobs), FrameType::Jobs)?;
        Ok(wire::decode_jobs(&f.payload)?)
    }

    /// Subscribes to a job's stream; pull with [`Client::next_event`].
    /// A finished job replays its final frames immediately.
    pub fn subscribe(&mut self, job: u64) -> Result<(), ClientError> {
        write_frame(
            &mut self.stream,
            &Frame::new(FrameType::Subscribe, wire::encode_job_id(job)),
        )?;
        Ok(())
    }

    /// The server's full metrics snapshot, decoded. For byte-identity
    /// assertions use [`Client::stats_raw`] instead.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        Ok(wire::decode_stats(&self.stats_raw()?)?)
    }

    /// The raw `Stats` payload bytes exactly as served.
    pub fn stats_raw(&mut self) -> Result<Vec<u8>, ClientError> {
        let f = self.request(Frame::bare(FrameType::GetStats), FrameType::Stats)?;
        Ok(f.payload)
    }

    /// The server's liveness/readiness probe.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        let f = self.request(Frame::bare(FrameType::GetHealth), FrameType::Health)?;
        Ok(wire::decode_health(&f.payload)?)
    }

    /// Asks the server to shut down; resolves once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(Frame::bare(FrameType::Shutdown), FrameType::ShuttingDown)?;
        Ok(())
    }
}
