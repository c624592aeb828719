//! Command-line front end of the benchmark.
//!
//! ```text
//! perfbench --workload <array-8m|btree-tree-4p|kv-crash> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seconds` (default 10) sets the length of the run as a number of
//! repetitions of the workload, through a fixed nominal repetition time
//! per workload (`bench::repetitions`), so the work a run does depends
//! only on its arguments.
//!
//! Prints human-readable context lines, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` (failed units: transactions or crash cases) and `metrics`.
//! `correct` is false, and the exit code 1, when any unit or any
//! run-level output check failed; a usage error exits 2. A traced run
//! also writes its span log to `perfbench-spans/<workload>-seed<seed>.tsv`
//! under the working directory.

use std::fmt::Write as _;
use std::process::ExitCode;

use supermem_perfbench::bench::{run, SWEEP_WORKERS};
use supermem_perfbench::workload::{Workload, WORKLOADS};
use supermem_perfbench::DEFAULT_SEED;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let out = run(args.workload, args.seed, args.seconds, args.trace);

    let aes_ni = cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("aes");
    println!(
        "perfbench workload={} seed={} seconds={} trace={} repetitions={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.reps
    );
    println!(
        "host: nproc={} aes={} run_threads=1 sweep_workers={} pinning=none (one process, closed loop)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        if aes_ni { "AES-NI" } else { "T-table" },
        SWEEP_WORKERS,
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!("simulated digest: {:#018x}", out.digest);
    for m in &out.metrics {
        println!("{} = {} {}", m.name, json_number(m.value), m.unit);
    }
    let failed = out.failed;
    let correct = out.failures.is_empty();
    println!(
        "fail_ratio = {} ({failed} failed of {} attempted units; {} failure lines)",
        json_number(failed as f64 / out.attempted as f64),
        out.attempted,
        out.failures.len()
    );
    for f in out.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }

    if let Some(log) = &out.spans {
        let dir = std::path::Path::new("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_tsv()));
        match written {
            Ok(()) => println!(
                "span log: {} spans in {}",
                log.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        out.attempted
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
