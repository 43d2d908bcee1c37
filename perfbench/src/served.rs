//! The `served-jobs` workload: a closed loop of `nproc` clients, each on
//! its own TCP connection over the host loopback, against an in-process
//! `freerider_serve::Server` with one executor worker per job. Each
//! client submits a streaming deployment job and drains it to
//! `StreamEnd` before it sends the next.

use crate::layers::{self, Layers};
use crate::report::{self, Digest, Outcome};
use crate::spans::{self, Recorder, Sink};
use crate::Args;
use freerider_net::{Deployment, DeploymentSim, LinkModel, SimConfig, SimEvent, TagReport};
use freerider_rt::{derive_seed, CancelToken, Executor, Rng64};
use freerider_serve::wire::{self, JobSpec};
use freerider_serve::{Client, ServeConfig, Server, StreamEvent};
use freerider_telemetry::profile;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Executor width of every served job (`ServeConfig::threads`).
const SERVER_THREADS: usize = 1;

/// A job class: deployment size, rounds and snapshot cadence.
#[derive(Debug, Clone, Copy)]
struct Class {
    name: &'static str,
    tags: usize,
    rounds: usize,
    snapshot_every: usize,
    /// Distinct specs of this class a run cycles through. Tag positions
    /// are seeded, so a run averages over many to keep the per-seed
    /// spread of tag participation small.
    pool: usize,
}

/// Interactive jobs: a glance at a small deployment.
const SMALL: Class = Class {
    name: "small",
    tags: 30,
    rounds: 10,
    snapshot_every: 0,
    pool: 32,
};

/// Study-size jobs: a full deployment study with per-tag snapshots.
const STUDY: Class = Class {
    name: "study",
    tags: 200,
    rounds: 400,
    snapshot_every: 10,
    pool: 16,
};

const CLASSES: [Class; 2] = [SMALL, STUDY];

/// Tag spacing of the grid layouts, metres: `bench-baseline`'s served job.
const GRID_PITCH_M: f64 = 0.8;

/// Largest seeded offset of a tag from its grid position, metres, on
/// each axis. A quarter pitch keeps the tags in their grid cells.
const JITTER_M: f64 = 0.2;

/// The seeded spec of pool entry `k` of class `class`.
///
/// The layout generalises `bench-baseline`'s served job (30 tags on a
/// 6 × 5 grid of 0.8 m pitch, one receiver at (4, 0)): `⌈√tags⌉`
/// columns at the same pitch, centred on the exciter, the same single
/// receiver, and a seeded offset of up to `JITTER_M` on each tag.
fn spec(seed: u64, class: usize, k: u64) -> JobSpec {
    let c = CLASSES[class];
    let mut rng = Rng64::derive(derive_seed(seed, class as u64 + 1), k);
    let cols = (c.tags as f64).sqrt().ceil() as usize;
    let rows = c.tags.div_ceil(cols);
    let x0 = -GRID_PITCH_M * (cols - 1) as f64 / 2.0;
    let y0 = -GRID_PITCH_M * (rows - 1) as f64 / 2.0;
    let mut d = Deployment::open_plan().with_receiver(4.0, 0.0);
    for i in 0..c.tags {
        let x = x0 + (i % cols) as f64 * GRID_PITCH_M + rng.f64_range(-JITTER_M, JITTER_M);
        let y = y0 + (i / cols) as f64 * GRID_PITCH_M + rng.f64_range(-JITTER_M, JITTER_M);
        d = d.with_tag(x, y);
    }
    JobSpec {
        config: SimConfig {
            rounds: c.rounds,
            // The wire codec carries integers exactly only up to 2^53.
            seed: rng.below(1 << 53),
            ..SimConfig::default()
        },
        deployment: d,
        stream: true,
        snapshot_every: c.snapshot_every,
    }
}

/// Every pooled spec, by class.
fn pools(seed: u64) -> Vec<Vec<JobSpec>> {
    (0..CLASSES.len())
        .map(|c| {
            (0..CLASSES[c].pool as u64)
                .map(|k| spec(seed, c, k))
                .collect()
        })
        .collect()
}

/// One client's position in its job sequence.
#[derive(Debug, Clone, Default)]
struct Schedule {
    client: usize,
    clients: usize,
    done: usize,
    per_class: [usize; 2],
}

impl Schedule {
    /// Alternates the classes; odd clients start with a study job, so
    /// the clients do not run their study jobs in step.
    fn next(&mut self) -> (usize, usize) {
        let class = (self.done + self.client) % CLASSES.len();
        let n = self.per_class[class];
        self.per_class[class] += 1;
        self.done += 1;
        (
            class,
            (self.client + n * self.clients) % CLASSES[class].pool,
        )
    }
}

/// One served job as the client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    class: usize,
    job: u64,
    start_ns: u64,
    accept_ns: u64,
    first_ns: u64,
    end_ns: u64,
    frames: u64,
    /// Tag bursts the job simulated, from its reference; 0 if it failed.
    participants: u64,
    /// Ended with a `JobResult` equal to the expected bytes.
    ok: bool,
}

impl JobRecord {
    /// Submit-to-`StreamEnd` latency; a failed job misses every limit.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.end_ns - self.start_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }
}

/// Submits one job and drains its stream. The job passes if it ends with
/// a `JobResult` whose bytes equal `expected` (any result when `None`).
fn serve_one(
    client: &mut Client<TcpStream>,
    spec: &JobSpec,
    expected: Option<&[u8]>,
    class: usize,
) -> JobRecord {
    let mut r = JobRecord {
        class,
        job: 0,
        start_ns: spans::now_ns(),
        accept_ns: 0,
        first_ns: 0,
        end_ns: 0,
        frames: 0,
        participants: 0,
        ok: false,
    };
    match client.submit(spec) {
        Ok(id) => r.job = id,
        Err(e) => {
            eprintln!("perfbench: submit failed: {e}");
            r.end_ns = spans::now_ns();
            return r;
        }
    }
    let mut result_ok = false;
    r.accept_ns = spans::now_ns();
    loop {
        let event = client.next_event();
        if r.frames == 0 {
            r.first_ns = spans::now_ns();
        }
        r.frames += 1;
        match event {
            Ok(StreamEvent::Result { raw, .. }) => {
                result_ok = expected.is_none_or(|want| raw == want);
            }
            Ok(StreamEvent::End { .. }) => {
                r.ok = result_ok;
                break;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("perfbench: stream failed: {e}");
                break;
            }
        }
    }
    r.end_ns = spans::now_ns();
    r
}

/// A running server and its clients.
struct Rig {
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client<TcpStream>>,
}

impl Rig {
    /// Asks the server to shut down and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        if let Some(c) = self.clients.first_mut() {
            c.shutdown()
                .map_err(|e| format!("shutdown request failed: {e}"))?;
        }
        drop(self.clients);
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Set-up: bind the server, connect every client, serve one study-size
/// warm-up job.
fn setup_once(clients: usize, seed: u64) -> std::io::Result<Rig> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: SERVER_THREADS,
        ..ServeConfig::default()
    })?;
    let addr: SocketAddr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run());
    let mut rig = Rig {
        server: handle,
        clients: Vec::new(),
    };
    for _ in 0..clients {
        rig.clients.push(Client::connect(addr)?);
    }
    let warm = serve_one(&mut rig.clients[0], &spec(seed, 1, u64::MAX), None, 1);
    if !warm.ok {
        let _ = rig.shutdown();
        return Err(std::io::Error::other("warm-up job failed"));
    }
    Ok(rig)
}

/// Runs the closed loop until `secs` have passed; every client serves at
/// least one job. Returns the records and the loop's wall time.
fn closed_loop(
    rig: &mut Rig,
    scheds: &mut [Schedule],
    pools: &[Vec<JobSpec>],
    refs: &[Vec<Reference>],
    secs: f64,
) -> Result<(Vec<JobRecord>, f64), String> {
    let start = Instant::now();
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(scheds.iter_mut())
            .map(|(client, sched)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < secs || out.is_empty() {
                        let (class, k) = sched.next();
                        let want = &refs[class][k];
                        let mut r = serve_one(client, &pools[class][k], Some(&want.report), class);
                        if r.ok {
                            r.participants = want.participants;
                        }
                        let failed = !r.ok;
                        out.push(r);
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((records.concat(), start.elapsed().as_secs_f64()))
}

/// What a pooled spec must produce, computed in-process.
struct Reference {
    /// `wire::encode_report(&DeploymentSim::run())`: the bytes the served
    /// `JobResult` must equal.
    report: Vec<u8>,
    /// Tag bursts the job simulates: `RoundProgress::participants`
    /// summed over its rounds.
    participants: u64,
}

/// The reference of every pooled spec, by class.
fn references(pools: &[Vec<JobSpec>]) -> Vec<Vec<Reference>> {
    pools
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|s| {
                    let sim = DeploymentSim::new(
                        s.deployment.clone(),
                        LinkModel::default(),
                        s.config.clone(),
                    );
                    let mut participants = 0;
                    let _ =
                        sim.run_observed(&Executor::serial(), &CancelToken::new(), 0, &mut |e| {
                            if let SimEvent::Round(p) = e {
                                participants += p.participants as u64;
                            }
                        });
                    Reference {
                        report: wire::encode_report(&sim.run()),
                        participants,
                    }
                })
                .collect()
        })
        .collect()
}

/// Per-class in-process `run_observed` time at the server's width, and a
/// 200-tag snapshot taken along the way.
fn sim_times(pools: &[Vec<JobSpec>]) -> ([f64; 2], Option<(usize, Vec<TagReport>)>) {
    let exec = Executor::new(SERVER_THREADS);
    let mut snapshot = None;
    let mut ms = [0.0; 2];
    for (class, pool) in pools.iter().enumerate() {
        let mut times = Vec::new();
        for s in pool {
            let sim =
                DeploymentSim::new(s.deployment.clone(), LinkModel::default(), s.config.clone());
            let t = Instant::now();
            let _ = sim.run_observed(&exec, &CancelToken::new(), s.snapshot_every, &mut |e| {
                if let SimEvent::Tags { round, tags } = e {
                    if snapshot.is_none() && tags.len() == STUDY.tags {
                        snapshot = Some((round, tags.to_vec()));
                    }
                }
            });
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ms[class] = report::mean(&times);
    }
    (ms, snapshot)
}

/// Mean encode and decode time of one tag snapshot, microseconds.
fn wire_tag_times(round: usize, tags: &[TagReport]) -> (f64, f64) {
    const REPS: u32 = 200;
    let bytes = wire::encode_tags(round, tags);
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(wire::encode_tags(round, std::hint::black_box(tags)));
    }
    let enc = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        let _ = std::hint::black_box(wire::decode_tags(std::hint::black_box(&bytes)));
    }
    let dec = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    (enc, dec)
}

fn server_counter(rig: &mut Rig, name: &str) -> u64 {
    rig.clients
        .first_mut()
        .and_then(|c| c.stats().ok())
        .map(|s| s.counter(name))
        .unwrap_or(0)
}

/// Runs the served-jobs workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    profile::set_enabled(false);
    let clients = crate::nproc();
    let pools = pools(args.seed);
    let refs = references(&pools);
    let mut digest = Digest::default();
    for r in refs.iter().flatten() {
        digest.bytes(&r.report);
    }

    let mut setups = Vec::new();
    let mut set_up = |reps: usize| -> Result<Rig, String> {
        let mut rig = None;
        for _ in 0..reps {
            if let Some(old) = rig.take() {
                Rig::shutdown(old)?;
            }
            let t = Instant::now();
            match setup_once(clients, args.seed) {
                Ok(r) => rig = Some(r),
                Err(e) => return Err(format!("served-jobs set-up failed: {e}")),
            }
            setups.push(t.elapsed().as_secs_f64());
        }
        rig.ok_or_else(|| "served-jobs set-up never ran".to_string())
    };
    let mut rig = set_up(crate::SETUP_REPS_BEFORE)?;
    let mut scheds: Vec<Schedule> = (0..clients)
        .map(|c| Schedule {
            client: c,
            clients,
            ..Schedule::default()
        })
        .collect();

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (records, wall) = closed_loop(&mut rig, &mut scheds, &pools, &refs, untraced_secs)?;

    let mut traced = None;
    if args.trace {
        let bytes_before = server_counter(&mut rig, "bytes.tx");
        let evicted_before = server_counter(&mut rig, "subs.evictions");
        profile::reset();
        profile::set_enabled(true);
        let (t_records, t_wall) =
            closed_loop(&mut rig, &mut scheds, &pools, &refs, args.seconds / 2.0)?;
        profile::set_enabled(false);
        let bytes_after = server_counter(&mut rig, "bytes.tx");
        let evicted_after = server_counter(&mut rig, "subs.evictions");
        traced = Some((
            t_records,
            t_wall,
            bytes_after.saturating_sub(bytes_before),
            evicted_after.saturating_sub(evicted_before),
        ));
    }
    rig.shutdown()?;

    let attempted = records.len() as u64;
    let completed = records.iter().filter(|r| r.ok).count() as u64;
    let failed = attempted - completed;
    let latencies: Vec<f64> = records.iter().map(JobRecord::latency_ms).collect();
    let frames: u64 = records.iter().map(|r| r.frames).sum();
    let participants: u64 = records.iter().map(|r| r.participants).sum();

    let mut out = Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        ..Outcome::default()
    };
    out.note(format!(
        "nproc={clients} workers={SERVER_THREADS} per job connections={clients} transport=tcp 127.0.0.1 (host loopback, not a link)"
    ));
    out.note(format!("sim_digest={}", digest.hex()));
    out.note(format!(
        "fail_frac={} ({failed} of {attempted} jobs)",
        failed as f64 / attempted.max(1) as f64
    ));
    let per_class = |c: usize| records.iter().filter(|r| r.class == c).count();
    out.note(format!(
        "job_ms: {} samples ({} {} {}x{}, {} {} {}x{})",
        latencies.len(),
        per_class(0),
        SMALL.name,
        SMALL.tags,
        SMALL.rounds,
        per_class(1),
        STUDY.name,
        STUDY.tags,
        STUDY.rounds
    ));

    let Some((t_records, t_wall, t_bytes, evicted)) = traced else {
        set_up(crate::SETUP_REPS_AFTER)?.shutdown()?;
        out.metric("link_pkts_per_s", participants as f64 / wall, "1/s");
        out.metric("jobs_per_s", completed as f64 / wall, "1/s");
        out.metric("job_ms_p50", report::median(&latencies), "ms");
        out.metric("job_ms_p90", report::quantile(&latencies, 0.9), "ms");
        out.metric("frames_per_s", frames as f64 / wall, "1/s");
        out.metric("setup_s", report::median(&setups), "s");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        return Ok(out);
    };

    let profile_data = profile::report();
    let (sim_ms, snapshot) = sim_times(&pools);
    let (encode_tags_us, decode_tags_us) = snapshot
        .as_ref()
        .map(|(round, tags)| wire_tag_times(*round, tags))
        .unwrap_or((0.0, 0.0));

    let sink = Sink::default();
    {
        let mut rec = Recorder::new(&sink, 0, 0);
        for r in &t_records {
            let root = rec.push("serve.job", r.job, 0, r.start_ns, r.end_ns, r.frames);
            rec.push("serve.accept", r.job, root, r.start_ns, r.accept_ns, 0);
            rec.push("serve.first_frame", r.job, root, r.accept_ns, r.first_ns, 1);
            rec.push(
                "serve.drain",
                r.job,
                root,
                r.first_ns,
                r.end_ns,
                r.frames.saturating_sub(1),
            );
        }
    }
    let mut all_spans = sink.take();
    let agg = spans::aggregate(&all_spans);

    let t_done: Vec<&JobRecord> = t_records.iter().filter(|r| r.ok).collect();
    let n = t_done.len().max(1) as f64;
    let ms = |a: u64, b: u64| (b.saturating_sub(a)) as f64 / 1e6;
    let served = layers::Served {
        sim_ms_small: sim_ms[0],
        sim_ms_study: sim_ms[1],
        accept_ms: t_done
            .iter()
            .map(|r| ms(r.start_ns, r.accept_ns))
            .sum::<f64>()
            / n,
        first_frame_ms: t_done
            .iter()
            .map(|r| ms(r.start_ns, r.first_ns))
            .sum::<f64>()
            / n,
        overhead_ms: t_done
            .iter()
            .map(|r| ms(r.start_ns, r.end_ns) - sim_ms[r.class])
            .sum::<f64>()
            / n,
        frames_per_job: t_done.iter().map(|r| r.frames as f64).sum::<f64>() / n,
        bytes_per_job: t_bytes as f64 / t_records.len().max(1) as f64,
        evicted: evicted as f64,
        encode_tags_us,
        decode_tags_us,
    };
    let traced_jobs_per_s = t_done.len() as f64 / t_wall;
    layers::emit(
        &mut out,
        &Layers {
            spans: &agg,
            profile: &profile_data,
            rx_back_attempts: 0,
            rx_back_ok: 0,
            productive_fail: 0,
            replay_mismatch: 0,
            busy_frac: 0.0,
            tail_ms: 0.0,
            trace_overhead_frac: 1.0 - traced_jobs_per_s / (completed as f64 / wall),
            fail_frac: failed as f64 / attempted.max(1) as f64,
            served: Some(served),
        },
    );
    out.note(format!(
        "traced: {} jobs, spans written to {}",
        t_records.len(),
        crate::spans_path(args).display()
    ));
    if let Err(e) = spans::write_jsonl(&crate::spans_path(args), &mut all_spans) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Ok(out)
}
