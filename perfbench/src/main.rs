//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wifi-sweep|narrowband-sweep|served-jobs> \
//!     [--seed <n|default|holdout>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every
//! instrumentation hook off. With `--trace 1` it measures for half the
//! time untraced and for half traced — spans around each public layer
//! call, plus the stage profiler — and prints the per-layer metrics.
//! The last line of standard output is the JSON result; the lines before
//! it give the simulated-statistics digest, the failure base and the
//! sample counts. See `perfbench/README.md`.

mod layers;
mod report;
mod served;
mod spans;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The hold-out seed: kept out of tuning, for confirming a claimed gain.
pub const HOLDOUT_SEED: u64 = 0x00c0_4e17;

/// Set-ups a run times before its measured phase and after its untraced
/// one; `setup_s` is the median of all of them. Load on a shared host
/// drifts over a run, so set-ups at both ends sample it as the measured
/// phase does.
pub const SETUP_REPS_BEFORE: usize = 5;
/// See [`SETUP_REPS_BEFORE`].
pub const SETUP_REPS_AFTER: usize = 4;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 10 and 11.
    WifiSweep,
    /// Figs. 12 and 13.
    NarrowbandSweep,
    /// Streaming deployment jobs over TCP.
    ServedJobs,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "wifi-sweep" => Some(Workload::WifiSweep),
            "narrowband-sweep" => Some(Workload::NarrowbandSweep),
            "served-jobs" => Some(Workload::ServedJobs),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WifiSweep => "wifi-sweep",
            Workload::NarrowbandSweep => "narrowband-sweep",
            Workload::ServedJobs => "served-jobs",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = match value()?.as_str() {
                    "default" => DEFAULT_SEED,
                    "holdout" => HOLDOUT_SEED,
                    v => v.parse().map_err(|_| format!("bad seed {v:?}"))?,
                }
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Executor workers and client connections: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Where the traced run writes its spans: beside the build output.
pub fn spans_path(args: &Args) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench")
        .join(format!("spans-{}.jsonl", args.workload.name()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin every instrumentation hook off whatever the environment says;
    // the traced run turns the profiler on itself.
    freerider_telemetry::trace::set_mode(freerider_telemetry::TraceMode::Off);
    freerider_telemetry::profile::set_enabled(false);

    let out = match args.workload {
        Workload::WifiSweep => Ok(sweeps::run(&args, false)),
        Workload::NarrowbandSweep => Ok(sweeps::run(&args, true)),
        Workload::ServedJobs => served::run(&args),
    };
    match out {
        Ok(out) => {
            println!(
                "workload={} seed={} trace={}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            );
            for n in &out.notes {
                println!("{n}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload served-jobs --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServedJobs);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(
            parse_args(&argv("--workload wifi-sweep --seed holdout"))
                .unwrap()
                .seed,
            HOLDOUT_SEED
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload wifi-sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload wifi-sweep --seconds 0")).is_err());
    }
}
