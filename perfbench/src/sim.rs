//! `detect_suite` and `repair_4t`: a fixed list of simulation jobs, run one
//! at a time on one host thread through `tmi_bench::Executor::run_spec`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tmi_bench::{Executor, JobResult, JobSpec, RunResult};

use crate::jobs;
use crate::report::{Report, Timing};
use crate::stats::{mean, ratio};
use crate::traced::{self, Spans, TracedJob};
use crate::{RunOptions, Workload};

/// A workload's job list with the executor that will run it, after the
/// warm-up job.
struct Ready {
    list: Vec<JobSpec>,
    exec: Executor,
}

/// The job list of `workload` at its reference scale, in seed order.
fn job_list(workload: Workload, seed: u64) -> Vec<JobSpec> {
    let list = match workload {
        Workload::DetectSuite => jobs::detect_suite(jobs::DETECT_SCALE),
        Workload::Repair4t => jobs::repair_4t(jobs::REPAIR_SCALE),
        Workload::ServiceMix => unreachable!("service_mix is not a simulation list"),
    };
    jobs::shuffled(list, seed)
}

fn set_up(workload: Workload, seed: u64) -> Result<Ready, String> {
    let list = job_list(workload, seed);
    // A fresh executor per pass: its memo cache must never serve a job of
    // the timed list.
    let exec = Executor::new(1);
    let warm = exec.run_spec(&jobs::warmup(workload));
    if !warm.ok() {
        return Err(format!("warm-up job failed: {}", describe(&warm)));
    }
    Ok(Ready { list, exec })
}

/// One untimed-set-up, timed pass over the list.
struct Pass {
    wall_s: f64,
    job_s: Vec<f64>,
    results: Vec<JobResult>,
}

fn untraced_pass(ready: &Ready) -> Pass {
    let start = Instant::now();
    let mut job_s = Vec::with_capacity(ready.list.len());
    let mut results = Vec::with_capacity(ready.list.len());
    for spec in &ready.list {
        let t = Instant::now();
        let r = ready.exec.run_spec(spec);
        job_s.push(t.elapsed().as_secs_f64());
        results.push(r);
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        job_s,
        results,
    }
}

/// A one-line description of a job and its outcome.
fn describe(r: &JobResult) -> String {
    let what = format!(
        "{} {} {}T scale {}{}{}{}",
        r.spec.workload,
        r.spec.cfg.runtime.label(),
        r.spec.cfg.threads,
        r.spec.cfg.scale,
        if r.spec.cfg.fixed { " fixed" } else { "" },
        if r.spec.cfg.misaligned {
            " misaligned"
        } else {
            ""
        },
        if r.spec.cfg.huge_pages { " 2M" } else { "" },
    );
    match &r.outcome {
        Ok(run) => format!(
            "{what}: halt {:?}, verified {:?}, cached {}",
            run.halt, run.verified, r.from_cache
        ),
        Err(panic) => format!("{what}: panicked: {panic}"),
    }
}

/// The simulated outcome a pass must reproduce exactly.
fn outcome_key(r: &JobResult) -> Option<(u64, u64, u64)> {
    r.outcome
        .as_ref()
        .ok()
        .map(|run| (run.cycles, run.ops, run.hitm_events))
}

/// Runs a simulation workload and reports its metrics.
pub fn run(opts: &RunOptions, started: Instant) -> Result<Report, String> {
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..crate::SETUP_REPS {
        let t = if rep == 0 { started } else { Instant::now() };
        ready = Some(set_up(opts.workload, opts.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");

    let budget = Duration::from_secs_f64(opts.seconds);
    let measuring = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = untraced_pass(&ready);
        passes.push(pass);
        if opts.trace || measuring.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        ready = set_up(opts.workload, opts.seed)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in &passes {
        for (i, r) in pass.results.iter().enumerate() {
            attempted += 1;
            let repeatable = outcome_key(r) == outcome_key(&passes[0].results[i]);
            if !r.ok() || r.from_cache || !repeatable {
                failed += 1;
                notes.push(format!(
                    "FAILED {}{}",
                    describe(r),
                    if repeatable {
                        ""
                    } else {
                        " (differs from pass 1)"
                    }
                ));
            }
        }
    }
    let first = &passes[0];
    let timing = Timing {
        walls: passes.iter().map(|p| p.wall_s).collect(),
        latencies_ms: passes
            .iter()
            .flat_map(|p| p.job_s.iter().map(|s| s * 1e3))
            .collect(),
        setups,
        ops: first
            .results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|run| run.ops))
            .sum(),
    };
    notes.push(timing.note(ready.list.len()));
    let mut m = BTreeMap::new();
    if opts.trace {
        traced_pass(opts, &ready, first, &mut m, &mut notes)?;
    } else {
        m = timing.end_to_end(attempted, failed)?;
    }
    Ok(Report {
        workload: opts.workload,
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        correct: failed == 0,
        metrics: m,
        notes,
        stamp: crate::env::Stamp::collect(&opts.dir),
    })
}

/// Runs the list again through the traced path and fills the per-layer
/// metrics.
fn traced_pass(
    opts: &RunOptions,
    ready: &Ready,
    untraced: &Pass,
    m: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let timer_ns = traced::timer_overhead_ns();
    let mut spans = Spans::default();
    let start = Instant::now();
    let traced: Vec<TracedJob> = ready
        .list
        .iter()
        .enumerate()
        .map(|(i, spec)| traced::trace_job(spec, i, &mut spans, timer_ns))
        .collect();
    let traced_wall = start.elapsed().as_secs_f64();

    let mut pairs = Vec::new();
    let mut runs = Vec::new();
    for (i, t) in traced.iter().enumerate() {
        let r = &untraced.results[i];
        if let Ok(run) = &r.outcome {
            runs.push(run);
            pairs.push((untraced.job_s[i], run, t));
        }
    }
    layer_metrics(&pairs, timer_ns, m, notes);
    count_metrics(&runs, m);
    m.insert(
        "tracing.overhead_frac".to_string(),
        traced_wall / untraced.wall_s - 1.0,
    );
    write_spans(opts, &spans, notes)
}

/// Writes the run's spans to the run directory.
pub fn write_spans(
    opts: &RunOptions,
    spans: &Spans,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = opts.dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, spans.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        spans.all().len(),
        path.display()
    ));
    Ok(())
}

/// Per-layer host times from traced jobs paired with their untraced runs
/// `(untraced job seconds, untraced result, traced job)`. A traced job
/// that does not reproduce its untraced run is reported and left out.
pub fn layer_metrics(
    pairs: &[(f64, &RunResult, &TracedJob)],
    timer_ns: f64,
    m: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) {
    let mut kept = Vec::new();
    for &(job_s, run, t) in pairs {
        match t.mismatch(run) {
            None => kept.push((job_s, run, t)),
            Some(why) => notes.push(format!(
                "TRACE MISMATCH {} {}: {why}",
                run.workload, run.runtime
            )),
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_job = |f: &dyn Fn(&TracedJob) -> f64| -> f64 {
        mean(&kept.iter().map(|(_, _, t)| f(t)).collect::<Vec<_>>())
    };
    m.insert(
        "workloads.build_ms".into(),
        per_job(&|t| ms(t.times.build_ns)),
    );
    m.insert(
        "workloads.verify_ms".into(),
        per_job(&|t| ms(t.times.verify_ns)),
    );
    m.insert(
        "sim.assemble_ms".into(),
        per_job(&|t| ms(t.times.assemble_ns)),
    );
    m.insert(
        "telemetry.snapshot_ms".into(),
        per_job(&|t| ms(t.times.snapshot_ns)),
    );
    let overhead: Vec<f64> = kept
        .iter()
        .map(|(job_s, _, t)| {
            let x = &t.times;
            job_s * 1e3 - ms(x.build_ns + x.assemble_ns + x.run_ns + x.snapshot_ns + x.verify_ns)
        })
        .collect();
    m.insert("bench.exec_overhead_ms".into(), mean(&overhead));

    let sum = |f: &dyn Fn(&TracedJob) -> f64| -> f64 { kept.iter().map(|(_, _, t)| f(t)).sum() };
    let next_ns = sum(&|t| t.times.next_ns());
    let run_ns = sum(&|t| t.times.run_ns as f64);
    let engine_ns = run_ns - next_ns;
    m.insert(
        "program.next_ns".into(),
        ratio(
            sum(&|t| t.times.next_sampled_ns),
            sum(&|t| t.times.next_sampled as f64),
        ),
    );
    m.insert("program.next_share".into(), ratio(next_ns, run_ns));
    m.insert(
        "sim.run_ns_per_op".into(),
        ratio(engine_ns, sum(&|t| t.ops as f64)),
    );
    m.insert(
        "sim.run_share".into(),
        ratio(engine_ns, sum(&|t| t.times.total_ns as f64)),
    );
    m.insert("trace.jobs".into(), kept.len() as f64);
    m.insert("trace.mismatches".into(), (pairs.len() - kept.len()) as f64);
    m.insert("trace.timer_ns".into(), timer_ns);
}

/// Exact simulated counts summed over `runs`.
pub fn count_metrics(runs: &[&RunResult], m: &mut BTreeMap<String, f64>) {
    let sum = |name: &str| -> f64 { runs.iter().map(|r| r.metrics.u64(name) as f64).sum() };
    let sum_suffix = |suffix: &str| -> f64 {
        runs.iter()
            .flat_map(|r| r.metrics.iter())
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, v)| v.as_f64())
            .sum()
    };
    let accesses = sum("machine.accesses");
    let counts = [
        ("sim.ops", runs.iter().map(|r| r.ops as f64).sum()),
        ("sim.cycles", runs.iter().map(|r| r.cycles as f64).sum()),
        ("machine.accesses", accesses),
        (
            "machine.local_hit_rate",
            ratio(sum("machine.local_hits"), accesses),
        ),
        (
            "machine.hitm_per_kacc",
            ratio(sum("machine.hitm_events") * 1e3, accesses),
        ),
        (
            "machine.dir.hit_rate",
            ratio(sum("machine.dir.hits"), sum("machine.dir.probes")),
        ),
        (
            "os.tlb.hit_rate",
            ratio(
                sum("os.tlb.hits"),
                sum("os.tlb.hits") + sum("os.tlb.misses"),
            ),
        ),
        ("os.demand_faults", sum("os.total_demand_faults")),
        ("os.cow_breaks", sum("os.cow_breaks")),
        ("os.tlb.shootdowns", sum("os.tlb.shootdowns")),
        ("perf.records_taken", sum_suffix(".perf.records_taken")),
        ("core.commits", sum("tmi.repair.commits")),
        ("core.bytes_merged", sum("tmi.repair.bytes_merged")),
        ("core.conversions", sum("tmi.repair.converted")),
        ("baselines.commits", sum("sheriff.repair.commits")),
        ("baselines.emulated_stores", sum("laser.emulated_stores")),
    ];
    for (name, v) in counts {
        m.insert(name.to_string(), v);
    }
}
