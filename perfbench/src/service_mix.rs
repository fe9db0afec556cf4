//! `service_mix`: an in-process `tmi_service::Service` (default config, two
//! workers, journal and cache spill in a fresh data directory) driven by a
//! closed loop of two clients, one thread each, because a tenant's `run`
//! blocks on its reply.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tmi_bench::{Executor, JobSpec, RunResult};
use tmi_oracle::{check_litmus, run_seed_raw, run_transistency_seed_raw, CheckConfig, Litmus};
use tmi_service::{CacheSpill, Client, Journal, JournalRecord, RunOutcome, Service, ServiceConfig};
use tmi_telemetry::json::{self, Json};
use tmi_telemetry::MetricsSnapshot;

use crate::jobs::{self, MixJob, SERVICE_CLIENTS};
use crate::report::{Report, Timing};
use crate::sim::{count_metrics, layer_metrics, write_spans};
use crate::stats::{median, quantile, ratio};
use crate::traced::{self, Spans, TracedJob};
use crate::{RunOptions, Workload};

/// A started service with its connected clients and their job sequences.
struct Live {
    service: Service,
    clients: Vec<Client>,
    dir: PathBuf,
    mix: Vec<Vec<MixJob>>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn set_up(opts: &RunOptions, index: usize) -> Result<Live, String> {
    let mix = jobs::service_mix(opts.seed);
    let dir = opts.dir.join(format!("service-{index}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io("cannot clear service data dir"))?;
    }
    std::fs::create_dir_all(&dir).map_err(io("cannot create service data dir"))?;
    let service = Service::start(ServiceConfig {
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .map_err(io("cannot start the service"))?;
    let mut clients = Vec::new();
    for _ in 0..SERVICE_CLIENTS {
        clients.push(Client::connect(service.addr()).map_err(io("cannot connect"))?);
    }
    let warm = clients[0].run(
        "warmup",
        &jobs::warmup(Workload::ServiceMix),
        1,
        false,
        |_| {},
    )?;
    if let Err(e) = check_payload(&warm.payload) {
        return Err(format!("warm-up job failed: {e}"));
    }
    Ok(Live {
        service,
        clients,
        dir,
        mix,
    })
}

fn tear_down(mut live: Live) -> Result<(), String> {
    live.clients[0].shutdown()?;
    drop(live.clients);
    live.service.wait();
    std::fs::remove_dir_all(&live.dir).map_err(io("cannot remove service data dir"))
}

/// One submitted job as its client saw it.
struct Sent {
    start: Instant,
    end: Instant,
    /// Arrival of the streamed `queued`, `running` and `done` events.
    marks: [Option<Instant>; 3],
    outcome: Result<RunOutcome, String>,
}

/// One timed pass over both clients' sequences.
struct Pass {
    wall_s: f64,
    sent: Vec<Vec<Sent>>,
    metrics: MetricsSnapshot,
}

fn run_client(client: &mut Client, tenant: &str, seq: &[MixJob], marks: bool) -> Vec<Sent> {
    seq.iter()
        .map(|job| {
            let mut seen = [None; 3];
            let start = Instant::now();
            let outcome = client.run(tenant, &job.spec, 1, false, |p| {
                if marks {
                    let slot = match p.state.as_str() {
                        "queued" => 0,
                        "running" => 1,
                        "done" => 2,
                        _ => return,
                    };
                    seen[slot].get_or_insert_with(Instant::now);
                }
            });
            Sent {
                start,
                end: Instant::now(),
                marks: seen,
                outcome,
            }
        })
        .collect()
}

fn run_pass(live: &mut Live, marks: bool) -> Pass {
    let barrier = Barrier::new(SERVICE_CLIENTS);
    let sent: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&live.mix)
            .enumerate()
            .map(|(c, (client, seq))| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run_client(client, &format!("client-{c}"), seq, marks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = sent.iter().filter_map(|s| s.first()).map(|s| s.start).min();
    let last = sent.iter().filter_map(|s| s.last()).map(|s| s.end).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    Pass {
        wall_s,
        sent,
        metrics: live.service.metrics(),
    }
}

/// Checks a fresh reply: a litmus job must be clean, a suite job must
/// complete and verify. Returns the simulated ops it delivered.
fn check_payload(payload: &str) -> Result<u64, String> {
    let v = json::parse(payload).map_err(|e| format!("unparsable payload: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    match v.get("kind").and_then(Json::as_str) {
        Some("litmus") => {
            let clean = matches!(v.get("clean"), Some(Json::Bool(true)));
            if clean && num("divergences") == 0 {
                Ok(num("steps"))
            } else {
                Err(format!("litmus {} diverged", num("litmus_seed")))
            }
        }
        Some("run") => {
            let completed = v.get("halt").and_then(Json::as_str) == Some("Completed");
            let verified = matches!(v.get("verified"), Some(Json::Bool(true)));
            if completed && verified {
                Ok(num("ops"))
            } else {
                Err(format!(
                    "run did not complete and verify: halt {:?}, verified {:?}",
                    v.get("halt"),
                    v.get("verified")
                ))
            }
        }
        other => Err(format!("unknown payload kind {other:?}")),
    }
}

/// Validates a pass: every job answered, fresh replies correct, exactly
/// the re-submissions served from the cache with the bytes of their
/// first reply, nothing rejected, failed or retried. Returns
/// `(attempted, failed, fresh simulated ops)`.
fn check_pass(live: &Live, pass: &Pass, notes: &mut Vec<String>) -> (u64, u64, u64) {
    let (mut attempted, mut failed, mut ops) = (0u64, 0u64, 0u64);
    let mut repeats = 0u64;
    for (c, (seq, sent)) in live.mix.iter().zip(&pass.sent).enumerate() {
        for (k, (job, s)) in seq.iter().zip(sent).enumerate() {
            attempted += 1;
            let verdict = match (&s.outcome, job.repeat_of) {
                (Err(e), _) => Err(e.clone()),
                (Ok(out), None) if out.cached => Err("fresh spec served from cache".into()),
                (Ok(out), None) => check_payload(&out.payload).map(|n| ops += n),
                (Ok(out), Some(of)) => {
                    repeats += 1;
                    match &sent[of].outcome {
                        Ok(first) if out.cached && out.payload == first.payload => Ok(()),
                        Ok(_) if !out.cached => Err("re-submission missed the cache".into()),
                        _ => Err("cached reply differs from the fresh reply".into()),
                    }
                }
            };
            if let Err(e) = verdict {
                failed += 1;
                notes.push(format!(
                    "FAILED client {c} job {k} {}: {e}",
                    job.spec.workload
                ));
            }
        }
    }
    let m = &pass.metrics;
    let rejects = rejects(m);
    let bad = [
        ("cache hits", m.u64("service.cache_hits"), repeats),
        ("rejects", rejects, 0),
        ("failed jobs", m.u64("service.jobs_failed"), 0),
        ("retried jobs", m.u64("service.jobs_retried"), 0),
    ];
    for (what, got, want) in bad {
        if got != want {
            failed += 1;
            notes.push(format!("FAILED service {what}: {got}, expected {want}"));
        }
    }
    (attempted, failed, ops)
}

fn rejects(m: &MetricsSnapshot) -> u64 {
    m.u64("service.reject_queue_full")
        + m.u64("service.reject_quota")
        + m.u64("service.reject_bad_request")
}

fn latencies_ms(pass: &Pass) -> Vec<f64> {
    pass.sent
        .iter()
        .flatten()
        .map(|s| s.end.duration_since(s.start).as_secs_f64() * 1e3)
        .collect()
}

/// Runs `service_mix` and reports its metrics.
pub fn run(opts: &RunOptions, started: Instant) -> Result<Report, String> {
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut index = 0;
    let mut live = None;
    for rep in 0..crate::SETUP_REPS {
        if let Some(old) = live.take() {
            tear_down(old)?;
        }
        let t = if rep == 0 { started } else { Instant::now() };
        live = Some(set_up(opts, index)?);
        index += 1;
        setups.push(t.elapsed().as_secs_f64());
    }
    let stamp = crate::env::Stamp::collect(&opts.dir);

    let budget = Duration::from_secs_f64(opts.seconds);
    let measuring = Instant::now();
    let mut passes = Vec::new();
    let (mut attempted, mut failed, mut ops) = (0, 0, None);
    loop {
        let mut current = live.take().expect("a live service");
        let pass = run_pass(&mut current, false);
        let (a, f, o) = check_pass(&current, &pass, &mut notes);
        attempted += a;
        failed += f;
        ops.get_or_insert(o);
        passes.push(pass);
        tear_down(current)?;
        if opts.trace || measuring.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        live = Some(set_up(opts, index)?);
        index += 1;
        setups.push(t.elapsed().as_secs_f64());
    }
    let timing = Timing {
        walls: passes.iter().map(|p| p.wall_s).collect(),
        latencies_ms: passes.iter().flat_map(latencies_ms).collect(),
        setups,
        ops: ops.unwrap_or(0),
    };
    notes.push(timing.note(passes[0].sent.iter().map(Vec::len).sum()));
    let mut m = BTreeMap::new();
    if opts.trace {
        let mut live = set_up(opts, index)?;
        let pass = run_pass(&mut live, true);
        let (a, f, _) = check_pass(&live, &pass, &mut notes);
        attempted += a;
        failed += f;
        m.insert(
            "tracing.overhead_frac".to_string(),
            pass.wall_s / timing.wall_s() - 1.0,
        );
        let mix = live.mix.clone();
        let dir = opts.dir.join("standalone");
        tear_down(live)?;
        traced_layers(opts, &mix, &pass, &dir, &mut m, &mut notes)?;
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
        stamp,
    })
}

/// Per-layer metrics of the traced pass: service stages from the
/// clients' event timestamps, the service's own counters, then the
/// oracle, journal, cache spill and simulation layers timed standalone on
/// the pass's own jobs.
fn traced_layers(
    opts: &RunOptions,
    mix: &[Vec<MixJob>],
    pass: &Pass,
    dir: &Path,
    m: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let mut spans = Spans::default();
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut fresh: Vec<(&JobSpec, &str)> = Vec::new();
    let mut id = 0;
    for (c, (seq, sent)) in mix.iter().zip(&pass.sent).enumerate() {
        for (k, (job, s)) in seq.iter().zip(sent).enumerate() {
            id += 1;
            let root = spans.record("service.job", None, id, s.start, s.end);
            let Ok(out) = &s.outcome else { continue };
            if out.cached {
                stages.entry("hit").or_default().push(ms(s.start, s.end));
                spans.record("service.hit", Some(root), id, s.start, s.end);
                continue;
            }
            fresh.push((&job.spec, &out.payload));
            let [Some(queued), Some(running), Some(done)] = s.marks else {
                notes.push(format!("client {c} job {k}: incomplete progress stream"));
                continue;
            };
            for (name, stage, a, b) in [
                ("admit", "service.admit", s.start, queued),
                ("queue_wait", "service.queue_wait", queued, running),
                ("run", "service.run", running, done),
                ("reply", "service.reply", done, s.end),
            ] {
                stages.entry(name).or_default().push(ms(a, b));
                spans.record(stage, Some(root), id, a, b);
            }
        }
    }
    for name in ["admit", "queue_wait", "run", "reply", "hit"] {
        let v = stages.get(name).map(Vec::as_slice).unwrap_or(&[]);
        m.insert(format!("service.{name}_ms_p50"), median(v));
        m.insert(format!("service.{name}_ms_p90"), quantile(v, 0.9));
    }
    let sm = &pass.metrics;
    let hits = sm.u64("service.cache_hits") as f64;
    let misses = sm.u64("service.cache_misses") as f64;
    for (name, v) in [
        ("service.cache_hits", hits),
        ("service.cache_misses", misses),
        ("service.hit_ratio", ratio(hits, hits + misses)),
        (
            "service.journal_appended",
            sm.u64("service.persist.journal.appended") as f64,
        ),
        (
            "service.queue_peak_depth",
            sm.u64("service.queue_peak_depth") as f64,
        ),
        ("service.rejects", rejects(sm) as f64),
        (
            "service.jobs_retried",
            sm.u64("service.jobs_retried") as f64,
        ),
    ] {
        m.insert(name.to_string(), v);
    }

    let base = id + 1;
    oracle_layer(&fresh, base, &mut spans, m);
    persistence_layer(mix, &fresh, dir, base, &mut spans, m)?;
    sim_layers(&fresh, base, &mut spans, m, notes);
    write_spans(opts, &spans, notes)
}

/// Times `Litmus::generate`/`generate_vm`, the raw repaired run and the
/// differential check for every fresh litmus job.
fn oracle_layer(
    fresh: &[(&JobSpec, &str)],
    base: usize,
    spans: &mut Spans,
    m: &mut BTreeMap<String, f64>,
) {
    let (mut gen_us, mut run_ms, mut check_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut divergent = 0u64;
    for (i, (spec, _)) in fresh.iter().enumerate() {
        let vm = spec.litmus_vm_seed();
        let Some(seed) = vm.or_else(|| spec.litmus_seed()) else {
            continue;
        };
        let id = base + i;
        let root = spans.open("oracle.job", None, id);
        let s = spans.open("oracle.generate", Some(root), id);
        let lit = if vm.is_some() {
            Litmus::generate_vm(seed)
        } else {
            Litmus::generate(seed)
        };
        gen_us.push(spans.close(s) as f64 / 1e3);
        let s = spans.open("oracle.run", Some(root), id);
        let raw = if vm.is_some() {
            run_transistency_seed_raw(seed, true)
        } else {
            run_seed_raw(seed, true)
        };
        std::hint::black_box(&raw);
        run_ms.push(spans.close(s) as f64 / 1e6);
        let s = spans.open("oracle.check", Some(root), id);
        let report = check_litmus(&lit, &CheckConfig::default());
        check_ms.push(spans.close(s) as f64 / 1e6);
        spans.close(root);
        divergent += u64::from(!report.clean());
    }
    m.insert("oracle.generate_us".into(), crate::stats::mean(&gen_us));
    m.insert("oracle.run_ms".into(), crate::stats::mean(&run_ms));
    m.insert("oracle.check_ms".into(), crate::stats::mean(&check_ms));
    m.insert("oracle.divergent".into(), divergent as f64);
}

/// Times standalone `Journal::append`/`sync` over the pass's accepted
/// records and `CacheSpill::store` over its fresh replies, in a fresh
/// directory on the service's filesystem.
fn persistence_layer(
    mix: &[Vec<MixJob>],
    fresh: &[(&JobSpec, &str)],
    dir: &Path,
    base: usize,
    spans: &mut Spans,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io("cannot clear standalone dir"))?;
    }
    std::fs::create_dir_all(dir).map_err(io("cannot create standalone dir"))?;
    let mut journal = Journal::open(dir.join("journal.log")).map_err(io("cannot open journal"))?;
    let (mut append_us, mut sync_us, mut store_us) = (Vec::new(), Vec::new(), Vec::new());
    let id = base + fresh.len();
    let mut job_id = 0;
    for (c, seq) in mix.iter().enumerate() {
        for job in seq {
            job_id += 1;
            let record = JournalRecord::Accepted {
                id: job_id,
                tenant: format!("client-{c}"),
                priority: 1,
                spec: job.spec.clone(),
            };
            let s = spans.open("service.journal_append", None, id);
            std::hint::black_box(journal.append(&record, None));
            append_us.push(spans.close(s) as f64 / 1e3);
            let s = spans.open("service.journal_sync", None, id);
            journal.sync().map_err(io("journal sync failed"))?;
            sync_us.push(spans.close(s) as f64 / 1e3);
        }
    }
    let mut spill = CacheSpill::open(dir.join("cache.log")).map_err(io("cannot open spill"))?;
    for (spec, payload) in fresh {
        let s = spans.open("service.cache_store", None, id);
        std::hint::black_box(spill.store(&spec.to_json(), payload, None));
        store_us.push(spans.close(s) as f64 / 1e3);
    }
    drop((journal, spill));
    std::fs::remove_dir_all(dir).map_err(io("cannot remove standalone dir"))?;
    m.insert(
        "service.journal_append_us".into(),
        crate::stats::mean(&append_us),
    );
    m.insert(
        "service.journal_sync_us".into(),
        crate::stats::mean(&sync_us),
    );
    m.insert(
        "service.cache_store_us".into(),
        crate::stats::mean(&store_us),
    );
    Ok(())
}

/// Runs every fresh suite job of the pass untraced through the executor
/// and again through the traced path, checks both against the service's
/// reply, and fills the simulation layers.
fn sim_layers(
    fresh: &[(&JobSpec, &str)],
    base: usize,
    spans: &mut Spans,
    m: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) {
    let timer_ns = traced::timer_overhead_ns();
    let mut untraced: Vec<(f64, RunResult, TracedJob)> = Vec::new();
    let mut service_mismatches = 0;
    for (i, (spec, payload)) in fresh.iter().enumerate() {
        if spec.is_litmus() {
            continue;
        }
        let id = base + fresh.len() + 1 + i;
        let t = Instant::now();
        let r = Executor::new(1).run_spec(spec);
        let job_s = t.elapsed().as_secs_f64();
        let Ok(run) = r.outcome else {
            notes.push(format!("FAILED standalone {}", spec.workload));
            continue;
        };
        let reply = json::parse(payload).ok();
        let field = |k: &str| reply.as_ref().and_then(|v| v.get(k)).and_then(Json::as_f64);
        if field("ops") != Some(run.ops as f64) || field("cycles") != Some(run.cycles as f64) {
            service_mismatches += 1;
            notes.push(format!(
                "SERVICE MISMATCH {}: reply ops/cycles {:?}/{:?}, executor {}/{}",
                spec.workload,
                field("ops"),
                field("cycles"),
                run.ops,
                run.cycles
            ));
        }
        let traced = traced::trace_job(spec, id, spans, timer_ns);
        untraced.push((job_s, run, traced));
    }
    let pairs: Vec<(f64, &RunResult, &TracedJob)> =
        untraced.iter().map(|(s, r, t)| (*s, r, t)).collect();
    layer_metrics(&pairs, timer_ns, m, notes);
    let runs: Vec<&RunResult> = untraced.iter().map(|(_, r, _)| r).collect();
    count_metrics(&runs, m);
    *m.entry("trace.mismatches".into()).or_default() += service_mismatches as f64;
}
