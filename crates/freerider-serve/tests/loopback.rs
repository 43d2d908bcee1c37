//! End-to-end protocol tests over the in-process loopback transport —
//! plus one real-TCP smoke test.
//!
//! The headline assertion: a 1000-tag job submitted through the service
//! streams ≥ 10 progress frames and a final `JobResult` whose payload is
//! **byte-identical** to encoding the report of the same `SimConfig` +
//! `Deployment` run directly in-process — at executor widths 1 and 4,
//! and with 0 or 3 extra subscribers watching.

use freerider_net::{Deployment, DeploymentSim, LinkModel, SimConfig};
use freerider_serve::client::StreamEvent;
use freerider_serve::server::Loopback;
use freerider_serve::wire::{self, JobSpec};
use freerider_serve::{Client, ClientError, ServeConfig};

/// A 1000-tag office: tags on a 40 × 25 grid around the exciter.
fn thousand_tag_deployment() -> Deployment {
    let mut d = Deployment::open_plan()
        .with_receiver(6.0, 0.0)
        .with_receiver(-6.0, 0.0);
    for gy in 0..25 {
        for gx in 0..40 {
            let x = (gx as f64) * 0.3 - 6.0;
            let y = (gy as f64) * 0.4 - 4.8;
            d = d.with_tag(x, y);
        }
    }
    assert_eq!(d.tags.len(), 1000);
    d
}

fn spec(rounds: usize, stream: bool, snapshot_every: usize) -> JobSpec {
    JobSpec {
        config: SimConfig {
            rounds,
            seed: 0xFEED_F00D,
            ..SimConfig::default()
        },
        deployment: thousand_tag_deployment(),
        stream,
        snapshot_every,
    }
}

fn loopback(threads: usize) -> Loopback {
    Loopback::new(&ServeConfig {
        threads,
        ..ServeConfig::default()
    })
}

/// The reference: run the same job in-process and encode its report.
fn direct_bytes(s: &JobSpec) -> Vec<u8> {
    let report =
        DeploymentSim::new(s.deployment.clone(), LinkModel::default(), s.config.clone()).run();
    wire::encode_report(&report)
}

fn wait_done(client: &mut Client<freerider_serve::pipe::PipeEnd>, job: u64) {
    for _ in 0..20_000 {
        let s = client.status(job).expect("status");
        if s.state == "done" || s.state == "cancelled" || s.state == "failed" {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("job {job} never finished");
}

#[test]
fn streamed_1000_tag_job_matches_in_process_run_at_widths_1_and_4() {
    let s = spec(40, true, 10);
    let reference = direct_bytes(&s);
    let mut served = Vec::new();

    for threads in [1usize, 4] {
        let server = loopback(threads);
        let mut client = Client::over(server.connect());
        let job = client.submit(&s).expect("submit");
        let events = client.drain_stream().expect("stream");

        let progress = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Progress(_)))
            .count();
        assert!(
            progress >= 10,
            "want ≥ 10 progress frames, got {progress} (threads={threads})"
        );
        let snapshots = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Tags { .. }))
            .count();
        assert_eq!(snapshots, 4, "40 rounds / snapshot_every 10");

        let raw = events
            .iter()
            .find_map(|e| match e {
                StreamEvent::Result { raw, .. } => Some(raw.clone()),
                _ => None,
            })
            .expect("stream must carry a JobResult frame");
        assert_eq!(
            raw, reference,
            "served result differs from the in-process run (threads={threads})"
        );
        assert!(matches!(events.last(), Some(StreamEvent::End { job: j }) if *j == job));
        served.push(raw);
    }
    assert_eq!(served[0], served[1], "executor width changed the bytes");
}

#[test]
fn result_is_identical_with_zero_and_three_subscribers() {
    let s_quiet = spec(30, false, 0);
    let reference = direct_bytes(&s_quiet);

    // Zero subscribers: nobody watches the run; the result is replayed
    // to a late subscriber after completion.
    let server = loopback(2);
    let mut client = Client::over(server.connect());
    let job = client.submit(&s_quiet).expect("submit");
    wait_done(&mut client, job);
    let mut sub = Client::over(server.connect());
    sub.subscribe(job).expect("subscribe");
    let events = sub.drain_stream().expect("replay");
    let quiet_raw = events
        .iter()
        .find_map(|e| match e {
            StreamEvent::Result { raw, .. } => Some(raw.clone()),
            _ => None,
        })
        .expect("late subscriber must replay the result");
    assert_eq!(quiet_raw, reference, "0-subscriber run diverged");

    // Three subscribers: the submitting stream plus two attached over
    // separate connections while the job runs (or replayed if it beat
    // them — either way the bytes must match).
    let s_live = spec(30, true, 5);
    let server = loopback(2);
    let mut submitter = Client::over(server.connect());
    let job = submitter.submit(&s_live).expect("submit");
    let mut watchers: Vec<_> = (0..2)
        .map(|_| {
            let mut w = Client::over(server.connect());
            w.subscribe(job).expect("subscribe");
            w
        })
        .collect();
    let mut raws = vec![extract_result(submitter.drain_stream().expect("stream"))];
    for w in watchers.iter_mut() {
        raws.push(extract_result(w.drain_stream().expect("watch")));
    }
    for raw in &raws {
        assert_eq!(raw, &reference, "a subscriber saw different bytes");
    }
}

fn extract_result(events: Vec<StreamEvent>) -> Vec<u8> {
    events
        .into_iter()
        .find_map(|e| match e {
            StreamEvent::Result { raw, .. } => Some(raw),
            _ => None,
        })
        .expect("stream must carry a JobResult frame")
}

#[test]
fn cancel_status_and_list_over_the_wire() {
    let server = loopback(1);
    let mut client = Client::over(server.connect());

    // A job big enough that the cancel lands mid-run.
    let job = client.submit(&spec(500_000, false, 0)).expect("submit");
    let st = client.status(job).expect("status");
    assert!(st.state == "queued" || st.state == "running");
    assert_eq!(st.rounds, 500_000);
    assert_eq!(st.tags, 1000);

    assert!(client.cancel(job).expect("cancel"), "cancel should land");
    wait_done(&mut client, job);
    assert_eq!(client.status(job).expect("status").state, "cancelled");

    // Its stream replays a bare StreamEnd — no result was produced.
    let mut sub = Client::over(server.connect());
    sub.subscribe(job).expect("subscribe");
    let events = sub.drain_stream().expect("replay");
    assert!(events
        .iter()
        .all(|e| !matches!(e, StreamEvent::Result { .. })));
    assert!(matches!(events.last(), Some(StreamEvent::End { .. })));

    let jobs = client.list().expect("list");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].job, job);

    // Unknown ids and invalid submissions come back as server errors.
    assert!(matches!(client.status(999), Err(ClientError::Server(_))));
    assert!(matches!(client.cancel(999), Err(ClientError::Server(_))));
    let mut bad = spec(10, false, 0);
    bad.config.rounds = 0;
    assert!(matches!(client.submit(&bad), Err(ClientError::Server(_))));
}

#[test]
fn tcp_round_trip_with_shutdown() {
    use freerider_serve::server::{ServeConfig, Server};

    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let runner = std::thread::spawn(move || server.run());

    let s = spec(12, true, 0);
    let reference = direct_bytes(&s);
    let mut client = Client::<std::net::TcpStream>::connect(addr).expect("connect");
    client.submit(&s).expect("submit");
    let events = client.drain_stream().expect("stream");
    let raw = extract_result(events.clone());
    assert_eq!(raw, reference, "TCP-served result diverged");
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Progress(_)))
            .count()
            >= 10
    );

    client.shutdown().expect("shutdown");
    runner.join().expect("join").expect("server run");
}

#[test]
fn stats_and_health_report_live_activity() {
    let server = loopback(2);
    let mut client = Client::over(server.connect());
    let job = client.submit(&spec(20, true, 0)).expect("submit");
    let events = client.drain_stream().expect("stream");
    assert!(matches!(events.last(), Some(StreamEvent::End { job: j }) if *j == job));

    // The raw payload must be valid JSON (round-trips through jsonv)
    // and decode into a report that reflects the traffic just made.
    let raw = client.stats_raw().expect("stats raw");
    let text = std::str::from_utf8(&raw).expect("stats payload is UTF-8");
    freerider_telemetry::jsonv::JsonValue::parse(text).expect("stats payload is JSON");
    let stats = wire::decode_stats(&raw).expect("decode stats");

    assert_eq!(stats.counter("frames.rx.submit_job"), 1);
    assert_eq!(stats.counter("frames.tx.job_accepted"), 1);
    assert!(stats.counter("frames.tx.progress") >= 10);
    assert_eq!(stats.counter("frames.tx.job_result"), 1);
    assert_eq!(stats.counter("sessions.accepted"), 1);
    assert_eq!(stats.counter("jobs.submitted"), 1);
    assert_eq!(stats.counter("jobs.completed"), 1);
    assert_eq!(stats.counter("subs.attached"), 1);
    assert!(stats.counter("bytes.rx") > 0);
    assert!(stats.counter("bytes.tx") > 0);
    assert_eq!(stats.gauge("jobs.running"), 0);
    assert_eq!(stats.gauge("jobs.queued"), 0);
    assert_eq!(stats.gauge("sessions.active"), 1, "this session is open");
    assert_eq!(stats.counter("frames.malformed"), 0);
    // Frame handling latency was measured for every request frame.
    let (name, lat) = &stats.latency[0];
    assert_eq!(name, "frame.handle_ns");
    // The snapshot is taken before its own frame's latency lands, so
    // at minimum the submit has been measured.
    assert!(lat.count >= 1, "submit at minimum, got {}", lat.count);

    let h = client.health().expect("health");
    assert!(h.ok);
    assert_eq!(h.jobs_running, 0);
    assert_eq!(h.sessions_active, 1);
    assert!(h.frames_rx >= 3 && h.frames_tx > h.frames_rx);
}

#[test]
fn stats_counters_are_byte_identical_across_executor_widths() {
    // The acceptance pin: the deterministic counter subset of a Stats
    // snapshot must not depend on FREERIDER_THREADS. Identical request
    // sequence, fresh server each time, widths 1 and 4.
    let s = spec(40, true, 10);
    let mut payloads = Vec::new();
    for threads in [1usize, 4] {
        let server = loopback(threads);
        let mut client = Client::over(server.connect());
        client.submit(&s).expect("submit");
        client.drain_stream().expect("stream");
        let report = client.stats().expect("stats");
        payloads.push(wire::encode_stats_counters(&report));
    }
    assert!(
        payloads[0]
            .windows(b"frames.rx.submit_job".len())
            .any(|w| w == b"frames.rx.submit_job"),
        "snapshot must carry the session's traffic"
    );
    assert_eq!(
        String::from_utf8_lossy(&payloads[0]),
        String::from_utf8_lossy(&payloads[1]),
        "counter subset diverged between executor widths 1 and 4"
    );
}

#[test]
fn eviction_counters_match_dropped_frames_through_the_clamp() {
    use freerider_serve::job::MIN_QUEUE_CAP;
    use std::sync::Arc;

    // queue_cap 1 is clamped to MIN_QUEUE_CAP by the manager; a
    // subscriber that never pops retains exactly that many frames and
    // evicts every earlier one — and the metrics registry must agree
    // with the per-queue counters frame-for-frame.
    let server = Loopback::new(&ServeConfig {
        threads: 2,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let mgr = server.manager();
    assert_eq!(mgr.queue_cap(), MIN_QUEUE_CAP, "clamp engaged");

    let lazy = mgr.new_queue();
    let job = mgr.submit(spec(50, false, 0), Some(Arc::clone(&lazy)));
    let mut client = Client::over(server.connect());
    wait_done(&mut client, job);

    // 50 progress + JobResult + StreamEnd were pushed; cap survive.
    let expected_pushed = 50 + 2;
    assert_eq!(lazy.pushed(), expected_pushed);
    assert_eq!(lazy.evicted(), expected_pushed - MIN_QUEUE_CAP as u64);

    // A post-completion subscriber replays only the terminal frames —
    // too few to evict — so the registry total stays the lazy queue's.
    let replay = mgr.subscribe(job).expect("replay subscribe");
    let mut replayed = 0u64;
    while replay.pop().is_some() {
        replayed += 1;
    }
    assert_eq!(replayed, 2, "JobResult + StreamEnd");
    assert_eq!(replay.evicted(), 0);

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.counter("subs.evictions"),
        lazy.evicted() + replay.evicted()
    );
    assert_eq!(
        stats.counter("subs.broadcast"),
        lazy.pushed() + replay.pushed()
    );
    assert_eq!(
        stats.gauge("queue.depth_hwm"),
        MIN_QUEUE_CAP as u64,
        "high-water mark is the clamped capacity"
    );

    // The books balance exactly: every accepted frame was either
    // popped, evicted, or is still queued (here: still queued = cap).
    lazy.close();
    let mut popped = 0u64;
    while lazy.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped, MIN_QUEUE_CAP as u64);
    assert_eq!(lazy.pushed(), popped + lazy.evicted());
}

#[test]
fn shutdown_completes_with_an_idle_connection_open() {
    use freerider_serve::server::{ServeConfig, Server};

    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let runner = std::thread::spawn(move || server.run());

    // An idle session: connected, never sends a frame. Its thread parks
    // in a blocking read; shutdown used to join it and hang forever.
    let idle = std::net::TcpStream::connect(addr).expect("idle connect");

    let mut client = Client::<std::net::TcpStream>::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    runner.join().expect("join").expect("server run");
    drop(idle);
}

#[test]
fn tcp_round_trips_do_not_wait_for_delayed_acks() {
    use freerider_serve::server::{ServeConfig, Server};
    use std::time::{Duration, Instant};

    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let runner = std::thread::spawn(move || server.run());

    let mut small = Deployment::open_plan().with_receiver(4.0, 0.0);
    for i in 0..30 {
        small = small.with_tag((i % 6) as f64 * 0.8 - 2.0, (i / 6) as f64 * 0.8 - 1.6);
    }
    let job = JobSpec {
        config: SimConfig {
            rounds: 10,
            seed: 7,
            ..SimConfig::default()
        },
        deployment: small,
        stream: true,
        snapshot_every: 5,
    };

    let mut client = Client::<std::net::TcpStream>::connect(addr).expect("connect");
    let t0 = Instant::now();
    // A frame held back by Nagle's algorithm until the peer's delayed
    // ACK costs each of these 51 exchanges ~40 ms, about 2 s in all;
    // without it they take milliseconds.
    for _ in 0..50 {
        assert!(client.health().expect("health").ok);
    }
    client.submit(&job).expect("submit");
    let events = client.drain_stream().expect("stream");
    let elapsed = t0.elapsed();
    assert_eq!(extract_result(events), direct_bytes(&job));
    assert!(
        elapsed < Duration::from_secs(1),
        "50 health probes + one 30-tag streaming job took {elapsed:?} over TCP"
    );

    client.shutdown().expect("shutdown");
    runner.join().expect("join").expect("server run");
}
