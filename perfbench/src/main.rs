//! The repository benchmark command.
//!
//! ```text
//! perfbench --workload <warm|trace|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays the workload in fresh child processes of this same binary,
//! one simulation each, in rounds: a round replays each of the
//! workload's replay seeds (derived from `--seed`) once. Rounds repeat
//! while `--seconds` of wall time allow. With `--trace 0` every replay
//! is plain and the end-to-end metrics are reported; with `--trace 1`
//! each replay runs plain and then traced, and the per-layer metrics are
//! reported. The last line of standard output is the JSON result. Exits
//! 1 when a check fails.

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::report::{self, Metric, Replay};
use perfbench::run::{run_once, Sample};
use perfbench::workload::{replay_seed, Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <warm|trace|churn> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line. `child` is set in the per-replay child
/// processes: `Some(traced)`, with `seed` the replay's own seed.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<bool>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut child) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_key(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => trace = Some(parse_flag(&flag, &value)?),
                "--child" => child = Some(parse_flag(&flag, &value)?),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
            child,
        })
    }
}

fn parse_flag(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, got {value:?}")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(traced) => child(&args, traced),
        None => parent(&args),
    }
}

/// One replay in this process: prints the sample, or the failed checks
/// on standard error.
fn child(args: &Args, traced: bool) -> ExitCode {
    match run_once(args.workload, args.seed, Scale::Bench, traced) {
        Ok(sample) => {
            print!("{}", sample.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one replay in a child process and parses its sample.
fn spawn(workload: Workload, seed: u64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.key()])
        .args(["--seed", &seed.to_string()])
        .args(["--child", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn replay: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} replay on seed {seed} exited with {}",
            workload.key(),
            out.status
        ));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

fn parent(args: &Args) -> ExitCode {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let workload = args.workload;
    let seeds: Vec<u64> = (0..workload.replays())
        .map(|k| replay_seed(args.seed, k))
        .collect();
    // Whole rounds only, and at least three replays per replay seed
    // set, so every median has something to choose from.
    let min_rounds = 3usize.div_ceil(seeds.len());
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut replays: Vec<Replay> = Vec::new();
    let mut longest = Duration::ZERO;
    let outcome = 'rounds: loop {
        let round = replays.last().map_or(0, |r| r.round + 1);
        let t = Instant::now();
        for (k, &seed) in seeds.iter().enumerate() {
            for &traced in modes {
                match spawn(workload, seed, traced) {
                    Ok(sample) => replays.push(Replay { k, round, sample }),
                    Err(e) => break 'rounds Err(e),
                }
            }
        }
        longest = longest.max(t.elapsed());
        if round + 1 >= min_rounds && start.elapsed() + longest > budget {
            break Ok(());
        }
    };
    let outcome = outcome
        .and_then(|()| report::consistent(&replays))
        .and_then(|()| report::check_pool(&replays));
    let metrics: Vec<Metric> = match &outcome {
        Ok(()) if args.trace => report::per_layer(&replays),
        Ok(()) => report::end_to_end(&replays),
        Err(_) => Vec::new(),
    };
    let outcome = outcome.and_then(|()| match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number", m.name)),
        None => Ok(()),
    });
    for r in &replays {
        let s = &r.sample;
        eprintln!(
            "{} round {} replay {} {}: setup {:.3} s, run {:.3} s, peak RSS {:.0} MiB",
            workload.key(),
            r.round,
            r.k,
            if s.traced() { "traced" } else { "plain " },
            s.get("setup_s"),
            s.get("run_s"),
            s.get("peak_rss_mib")
        );
    }
    if let Err(e) = &outcome {
        eprintln!("perfbench: {e}");
    }
    let attempted: u64 = replays
        .iter()
        .map(|r| r.sample.get("injected") as u64)
        .sum();
    let failed: u64 = replays
        .iter()
        .map(|r| (r.sample.get("lost") + r.sample.get("unserved")) as u64)
        .sum();
    println!(
        "{}",
        report::result_json(outcome.is_ok(), attempted.max(1), failed, &metrics)
    );
    if outcome.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
