//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]`
//! runs one workload and ends its standard output with one JSON result
//! line; `perfbench compare OLD NEW` compares two record files.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{env, RunOptions, Workload};

const USAGE: &str = "usage: perfbench --workload detect_suite|repair_4t|service_mix \
                     --seed N --seconds S --trace 0|1 [--record FILE]\n       \
                     perfbench compare OLD_RECORDS NEW_RECORDS [--bench BENCHMARK.json]";

fn parse(args: &[String]) -> Result<(RunOptions, Option<PathBuf>), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--record" => record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let dir = env::run_dir().join(format!(
        "{}-seed{seed}-pid{}",
        workload.name(),
        std::process::id()
    ));
    let opts = RunOptions {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir,
    };
    Ok((opts, record))
}

fn run(args: &[String], started: Instant) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("compare") {
        print!("{}", perfbench::compare::main(&args[1..])?);
        return Ok(());
    }
    let (opts, record) = parse(args)?;
    let refused = env::refused_vars();
    if !refused.is_empty() {
        return Err(format!(
            "refusing to run with {} set: these change what is measured",
            refused.join(", ")
        ));
    }
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    let report = match opts.workload {
        Workload::DetectSuite | Workload::Repair4t => perfbench::sim::run(&opts, started),
        Workload::ServiceMix => perfbench::service_mix::run(&opts, started),
    };
    // The span file stays; the run's service data directories are gone.
    let _ = std::fs::remove_dir(&opts.dir);
    let report = report?;
    if let Some(path) = record {
        report
            .append_record(&path)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
