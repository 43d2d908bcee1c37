//! Structured, zero-dependency telemetry for the FreeRider workspace.
//!
//! The simulation's headline numbers (BER curves, throughput, range) say
//! *what* happened; this crate records *why*: how many frames each RX
//! stage saw and dropped, how codeword-translation votes split, where
//! wall-clock time goes. It provides:
//!
//! - **Counters** — monotonic event counts ([`count`], [`count_n`]).
//! - **Histograms** — log₂-binned `u64` distributions ([`record`]).
//! - **Span timers** — RAII wall-clock scopes ([`span`]).
//! - **Event log** — leveled stderr logging gated by `FREERIDER_LOG`
//!   ([`event!`]).
//! - **JSON** — a hand-rolled RFC 8259 writer ([`JsonWriter`]) used by
//!   `repro --json` for machine-readable results, and its inverse: a
//!   zero-allocation pull reader ([`jsonv::JsonReader`]) that the
//!   `freerider-serve` wire decoders use to consume those documents, and
//!   a tree parser ([`JsonValue`]) over the same grammar, kept as their
//!   test oracle.
//! - **Flight recorder** — per-packet trace scopes gated by
//!   `FREERIDER_TRACE` ([`trace`]), with a deterministic failure-forensics
//!   dump and a Chrome `trace_event` exporter ([`chrome`]).
//! - **Stage profiler** — hierarchical RAII scope trees gated by
//!   `FREERIDER_PROFILE` ([`profile`]): per-stage wall-clock attribution
//!   (p50/p90, percent-of-parent, throughput) alongside deterministic
//!   work counters that are byte-identical across worker counts.
//!
//! # Determinism contract
//!
//! Each thread records into its own collector; [`snapshot`] merges them
//! (plus a graveyard holding finished threads' data) by pure integer
//! addition. The workspace guarantees bit-identical results for any
//! `FREERIDER_THREADS` value, and that guarantee extends to the counter
//! and histogram sections of a snapshot: `Snapshot::metrics_json` is
//! byte-identical across worker counts for the same workload. Wall-clock
//! timers are the deliberate exception — they are reported in a separate
//! `timing` section that consumers must not diff.
//!
//! Like the rest of the workspace, this crate has no external
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod jsonv;
pub mod log;
pub mod profile;
pub mod registry;
pub mod snapshot;
pub mod timer;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use hist::{bin_index, bin_lower_bound, LogHistogram, BINS};
pub use json::JsonWriter;
pub use jsonv::{JsonError, JsonValue};
pub use log::{Level, LOG_ENV};
pub use profile::{ProfileData, StageStat, PROFILE_ENV};
pub use registry::{count, count_n, record, record_span_ns, reset, snapshot, span};
pub use snapshot::Snapshot;
pub use timer::{Span, Stopwatch, TimerStat};
pub use trace::{PacketRecord, TraceMode, TRACE_ENV};
