//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the boundary: a name, a start and an end on one process-wide clock,
//! the span that caused it, and the trace id it belongs to (the packet id
//! `derive_seed(point_seed, i)` or the served job id). Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Children of one parent may run on
//! different threads (the points of a sweep), so coverage is the union
//! of the child intervals, not their sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub sid: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `channel.back`.
    pub name: &'static str,
    /// Shared by every span of one packet or one job.
    pub trace: u64,
    /// Recording thread (worker index within the run).
    pub worker: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Work attached at the boundary (samples propagated, frames, …).
    pub n: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn next_sid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Where recorders hand their spans when they are dropped.
#[derive(Debug, Clone, Default)]
pub struct Sink(Arc<Mutex<Vec<Span>>>);

impl Sink {
    /// Every span recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// A per-thread span stack. Spans opened while another is open become
/// its children; roots are parented to `root_parent` (the sweep span a
/// worker's points belong to).
#[derive(Debug)]
pub struct Recorder {
    sink: Sink,
    worker: u32,
    root_parent: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder for thread `worker` whose root spans hang off
    /// `root_parent` (0 for none).
    pub fn new(sink: &Sink, worker: u32, root_parent: u64) -> Self {
        Recorder {
            sink: sink.clone(),
            worker,
            root_parent,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, trace: u64) -> u64 {
        let parent = match self.stack.last() {
            Some(&i) => self.spans[i].sid,
            None => self.root_parent,
        };
        let sid = next_sid();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            sid,
            parent,
            name,
            trace,
            worker: self.worker,
            start_ns: now_ns(),
            end_ns: 0,
            n: 0,
        });
        sid
    }

    /// Closes the innermost open span, attaching `n` units of work.
    pub fn close(&mut self, n: u64) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now_ns();
            self.spans[i].n = n;
        }
    }

    /// Records an already-finished span (the served-job timeline, whose
    /// trace id is only known once the server has accepted the job).
    pub fn push(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        n: u64,
    ) -> u64 {
        let sid = next_sid();
        self.spans.push(Span {
            sid,
            parent,
            name,
            trace,
            worker: self.worker,
            start_ns,
            end_ns,
            n,
        });
        sid
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let mut out = self.sink.0.lock().unwrap_or_else(|p| p.into_inner());
        out.append(&mut self.spans);
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage).
    pub self_ns: u64,
    /// Summed attached work.
    pub n: u64,
}

impl Agg {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name totals with self time, over one set of spans.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.sid)
            .map(|iv| union_within(iv, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(covered);
        a.n += s.n;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes the spans as JSON lines, sorted by start time.
pub fn write_jsonl(path: &std::path::Path, spans: &mut [Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    spans.sort_by_key(|s| (s.start_ns, s.sid));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            w,
            "{{\"sid\":{},\"parent\":{},\"name\":\"{}\",\"trace\":{},\"worker\":{},\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            s.sid, s.parent, s.name, s.trace, s.worker, s.start_ns, s.end_ns, s.n
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 14), (20, 30)];
        assert_eq!(union_within(&mut iv, 1, 25), 2 + 9 + 5);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let sink = Sink::default();
        {
            let mut r = Recorder::new(&sink, 0, 0);
            let root = r.push("pkt", 1, 0, 100, 200, 0);
            r.push("a", 1, root, 110, 150, 0);
            r.push("b", 1, root, 140, 170, 0);
        }
        let agg = aggregate(&sink.take());
        assert_eq!(agg["pkt"].self_ns, 100 - 60);
        assert_eq!(agg["a"].self_ns, 40);
    }
}
