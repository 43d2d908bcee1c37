//! Golden payload bytes for the `freerider-serve` wire encoders.
//!
//! A served `JobResult` is checked against an in-process run encoded by
//! the same `wire::encode_report`, so that comparison cannot see a change
//! in the encoder itself. These tests can: each fixed input below must
//! encode to exactly the bytes committed here, which were recorded from
//! the `fmt`-based `JsonWriter` before its integer and string fast paths
//! existed. Do not regenerate them to make a test pass; a mismatch means
//! the wire format changed.

use freerider::channel::geometry::{Point, Wall};
use freerider::net::{Deployment, DeploymentReport, RoundProgress, SimConfig, TagReport};
use freerider::serve::wire::{self, JobSpec, StatusInfo};
use freerider::serve::{HealthInfo, LatencySummary, StatsReport};

fn progress() -> RoundProgress {
    RoundProgress {
        round: 17,
        rounds: 400,
        time_s: 0.425_000_000_000_000_04,
        n_slots: 64,
        participants: 199,
        delivered_slots: 10,
        delivered_bits: 9_007_199_254_740_993,
        reports_delivered: 1_000_000,
    }
}

fn tags() -> Vec<TagReport> {
    vec![
        TagReport {
            delivered_bits: 0,
            reports_delivered: 0,
            mean_latency_s: None,
            servable: false,
            plm_reach: 0.0,
        },
        TagReport {
            delivered_bits: 9,
            reports_delivered: 10,
            mean_latency_s: Some(0.012_345_678_901_234_5),
            servable: true,
            plm_reach: 0.975,
        },
        TagReport {
            delivered_bits: u64::MAX,
            reports_delivered: 99_999,
            mean_latency_s: Some(1e-7),
            servable: true,
            plm_reach: 1.0,
        },
        TagReport {
            delivered_bits: 1 << 53,
            reports_delivered: 100_000,
            mean_latency_s: Some(12_345.5),
            servable: false,
            plm_reach: 1.0 / 3.0,
        },
    ]
}

fn report() -> DeploymentReport {
    DeploymentReport {
        tags: tags(),
        aggregate_bps: 61_234.567_8,
        fairness: 0.812_5,
        total_time_s: 40.0,
    }
}

fn stats() -> StatsReport {
    StatsReport {
        counters: vec![
            ("bytes.rx".to_string(), 4_294_967_296),
            ("frames.rx.submit_job".to_string(), 1),
            ("quote\"back\\slash\ttab\u{1}ctl".to_string(), 10),
        ],
        gauges: vec![
            ("jobs.running".to_string(), 0),
            ("sessions.active".to_string(), 99),
        ],
        latency: vec![
            (
                "frame.handle_ns.progress".to_string(),
                LatencySummary {
                    count: 400,
                    sum: 123_456_789,
                    min: 101,
                    max: 1_000_001,
                    p50: 999,
                    p90: 10_000,
                    p99: 99_999,
                },
            ),
            (
                "job.stage.net.sim.draw".to_string(),
                LatencySummary {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                },
            ),
        ],
    }
}

fn spec() -> JobSpec {
    let mut d = Deployment::open_plan()
        .with_receiver(4.0, 0.0)
        .with_receiver(-6.5, 0.25)
        .with_tag(0.8, -1.6)
        .with_tag(-2.4, 0.8);
    d.site = d
        .site
        .clone()
        .with_wall(Wall::new(Point::new(3.0, -4.0), Point::new(3.0, 4.0), 7.5));
    JobSpec {
        config: SimConfig {
            rounds: 400,
            seed: 0xc04e17,
            ..SimConfig::default()
        },
        deployment: d,
        stream: true,
        snapshot_every: 10,
    }
}

/// The `tags` array shared by the `TagSnapshot` and `JobResult` payloads.
macro_rules! tag_array {
    () => {
        concat!(
    r#"{"delivered_bits":0,"reports_delivered":0,"mean_latency_s":null,"servable":false,"plm_reach":0},"#,
    r#"{"delivered_bits":9,"reports_delivered":10,"mean_latency_s":0.0123456789012345,"servable":true,"plm_reach":0.975},"#,
    r#"{"delivered_bits":18446744073709551615,"reports_delivered":99999,"mean_latency_s":0.0000001,"servable":true,"plm_reach":1},"#,
    r#"{"delivered_bits":9007199254740992,"reports_delivered":100000,"mean_latency_s":12345.5,"servable":false,"plm_reach":0.3333333333333333}"#,
        )
    };
}

/// The `counters` object, with one key that needs every kind of escape.
macro_rules! counters {
    () => {
        r#"{"bytes.rx":4294967296,"frames.rx.submit_job":1,"quote\"back\\slash\ttab\u0001ctl":10}"#
    };
}

/// One `Status` payload, also the first item of the `Jobs` payload.
macro_rules! status {
    () => {
        r#"{"job":18446744073709551615,"state":"running","rounds_done":0,"rounds":400,"tags":200}"#
    };
}

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("encoders emit UTF-8")
}

#[test]
fn progress_payload_is_golden() {
    assert_eq!(
        text(wire::encode_progress(&progress())),
        r#"{"round":17,"rounds":400,"time_s":0.42500000000000004,"n_slots":64,"participants":199,"delivered_slots":10,"delivered_bits":9007199254740993,"reports_delivered":1000000}"#
    );
}

#[test]
fn tag_snapshot_payload_is_golden() {
    assert_eq!(
        text(wire::encode_tags(40, &tags())),
        concat!(r#"{"round":40,"tags":["#, tag_array!(), "]}")
    );
}

#[test]
fn job_result_payload_is_golden() {
    assert_eq!(
        text(wire::encode_report(&report())),
        concat!(
            r#"{"tags":["#,
            tag_array!(),
            r#"],"aggregate_bps":61234.5678,"fairness":0.8125,"total_time_s":40}"#
        )
    );
}

#[test]
fn stats_payload_is_golden() {
    assert_eq!(
        text(wire::encode_stats(&stats())),
        concat!(
            r#"{"schema":"freerider-serve-stats/1","counters":"#,
            counters!(),
            r#","gauges":{"jobs.running":0,"sessions.active":99},"latency":{"#,
            r#""frame.handle_ns.progress":{"count":400,"sum":123456789,"min":101,"max":1000001,"p50":999,"p90":10000,"p99":99999},"#,
            r#""job.stage.net.sim.draw":{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0}}}"#
        )
    );
    assert_eq!(text(wire::encode_stats_counters(&stats())), counters!());
}

#[test]
fn request_and_response_payloads_are_golden() {
    let status = StatusInfo {
        job: 18_446_744_073_709_551_615,
        state: "running".to_string(),
        rounds_done: 0,
        rounds: 400,
        tags: 200,
    };
    let health = HealthInfo {
        ok: true,
        jobs_queued: 1,
        jobs_running: 12,
        sessions_active: 123,
        frames_rx: 1_234_567_890_123,
        frames_tx: 98_765,
    };
    assert_eq!(
        text(wire::encode_submit(&spec())),
        concat!(
            r#"{"stream":true,"snapshot_every":10,"config":{"rounds":400,"slot_s":0.0025,"#,
            r#""bits_per_slot":100,"report_interval_s":1,"report_bits":128,"plm_bps":500,"#,
            r#""capture_prob":0.45,"seed":12602903},"deployment":{"path_loss":{"pl0_db":35,"#,
            r#""exponent":1.75},"walls":[{"ax":3,"ay":-4,"bx":3,"by":4,"loss_db":7.5}],"#,
            r#""exciter":{"x":0,"y":0,"tx_power_dbm":11},"receivers":[{"x":4,"y":0,"#,
            r#""sensitivity_dbm":-94},{"x":-6.5,"y":0.25,"sensitivity_dbm":-94}],"tags":["#,
            r#"{"x":0.8,"y":-1.6,"sensitivity_dbm":-36.5},{"x":-2.4,"y":0.8,"sensitivity_dbm":-36.5}],"#,
            r#""backscatter_loss_db":6.021584838512754}}"#
        )
    );
    assert_eq!(text(wire::encode_status(&status)), status!());
    assert_eq!(
        text(wire::encode_jobs(&[
            status.clone(),
            StatusInfo { job: 7, ..status }
        ])),
        concat!(
            r#"{"jobs":["#,
            status!(),
            r#",{"job":7,"state":"running","rounds_done":0,"rounds":400,"tags":200}]}"#
        )
    );
    assert_eq!(
        text(wire::encode_health(&health)),
        r#"{"ok":true,"jobs_queued":1,"jobs_running":12,"sessions_active":123,"frames_rx":1234567890123,"frames_tx":98765}"#
    );
    assert_eq!(
        text(wire::encode_job_id(1_000_000_007)),
        r#"{"job":1000000007}"#
    );
    assert_eq!(
        text(wire::encode_cancelled(0, false)),
        r#"{"job":0,"cancelled":false}"#
    );
    assert_eq!(
        text(wire::encode_error("unknown \"job\" 9\\n\u{7f}é\u{1f}")),
        concat!(
            r#"{"error":"unknown \"job\" 9\\n"#,
            "\u{7f}",
            r#"é\u001f"}"#
        )
    );
}
