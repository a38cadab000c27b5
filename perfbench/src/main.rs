//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pktbuf_detour|lookup_churn|sharded_faa_fabric> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! After one warm-up run it repeats the workload, each time a fresh build
//! from the same seed, until `--seconds` have passed. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced runs
//! and reports the per-layer metrics. Every run's outputs are checked and
//! its trace digest must equal the warm-up run's. The last line of standard
//! output is the JSON result.

use extmem_perfbench::report::{end_to_end, per_layer, Metric};
use extmem_perfbench::stats::fail_frac;
use extmem_perfbench::{run_once, Run, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Runs measured at least, whatever `--seconds` says (of each kind, with
/// `--trace 1`).
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn print_run(i: usize, r: &Run, reference: u64) {
    let c = &r.outcome.common;
    println!(
        "run {i:>2} {:<8} digest {:016x}{} setup {:.4} s  run {:.4} s  {:.0} frames/s  failed {}",
        if r.traced { "traced" } else { "untraced" },
        c.digest,
        if c.digest == reference {
            ""
        } else {
            " (DIFFERS)"
        },
        r.setup_s,
        r.wall_s,
        r.frames_per_s(),
        r.outcome.failed(),
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>16} {:<13} ({})",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.base
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let frames = w.default_frames();
    println!(
        "workload {} seed {} frames {} trace {} host cores {}",
        w.name(),
        args.seed,
        frames,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // The first run in a process is slower (cold caches, allocator growth):
    // it only fixes the reference digest.
    let warm = run_once(w, args.seed, frames, false);
    // Peak memory of one workload run: the first, before later runs'
    // allocator reuse can shift it.
    let rss_mb = peak_rss_mb();
    let reference = warm.outcome.common.digest;
    print_run(0, &warm, reference);
    drop(warm);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let min_runs = if args.trace { 2 * MIN_RUNS } else { MIN_RUNS };
    while start.elapsed() < budget || runs.len() < min_runs {
        // Traced and untraced runs alternate, so drift hits both alike.
        let traced = args.trace && runs.len() % 2 == 1;
        let r = run_once(w, args.seed, frames, traced);
        print_run(runs.len() + 1, &r, reference);
        runs.push(r);
    }

    let first = &runs[0].outcome;
    for (name, n) in &first.failures {
        println!("failures.{name:<34} {n}");
    }
    let attempted: u64 = runs.iter().map(|r| r.outcome.common.sent).sum();
    let failed: u64 = runs.iter().map(|r| r.outcome.failed()).sum();
    let mismatched = runs
        .iter()
        .filter(|r| r.outcome.common.digest != reference)
        .count();
    println!(
        "fail_frac {} ({failed} failed ops / {attempted} attempted frames over {} runs)",
        fail_frac(failed, attempted),
        runs.len()
    );
    println!(
        "determinism: {} of {} runs match the reference digest {reference:016x}{}",
        runs.len() - mismatched,
        runs.len(),
        if args.trace {
            " (traced runs included)"
        } else {
            ""
        }
    );

    let (traced, untraced): (Vec<Run>, Vec<Run>) = runs.into_iter().partition(|r| r.traced);
    let metrics = if args.trace {
        let m = per_layer(&traced, &untraced);
        let self_sum: f64 = m
            .iter()
            .filter(|m| m.name.ends_with(".self_s"))
            .map(|m| m.value)
            .sum();
        let lt = traced[0].layers.expect("traced");
        let wall: f64 = traced.iter().map(|r| r.wall_s).sum::<f64>() / traced.len() as f64;
        println!(
            "identity: sum of layer self_s incl. sim = {self_sum:.6} s; workers x traced wall = {} x {wall:.6} = {:.6} s",
            lt.workers,
            lt.workers as f64 * wall
        );
        m
    } else {
        end_to_end(&untraced, rss_mb)
    };
    print_metrics(&metrics);
    let correct = failed == 0 && mismatched == 0;
    println!("{}", json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
