//! The traced job path: a copy of `tmi_bench::harness`'s build, run and
//! verify sequence made from public API only, with a span around each
//! layer call and a sampling timer around every thread program's
//! `next()`. The runtime hooks are deliberately not wrapped: a forwarding
//! wrapper would have to re-implement every hook's default, and leaving
//! one out changes the simulated schedule.
//!
//! A traced job must reproduce the untraced job exactly (halt, cycles,
//! ops, HITM events, verification); `tests/drift_guard.rs` checks that
//! this copy has not drifted from the harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tmi::{AppLayout, TmiConfig, TmiRuntime};
use tmi_alloc::{AllocConfig, AllocPolicy, SimAllocator};
use tmi_baselines::{
    LaserConfig, LaserRuntime, PlasticConfig, PlasticRuntime, SheriffConfig, SheriffRuntime,
};
use tmi_bench::{
    JobSpec, RunConfig, RunResult, RuntimeKind, APP_START, INTERNAL_LEN, INTERNAL_START,
};
use tmi_machine::VAddr;
use tmi_os::MapRequest;
use tmi_perf::PerfConfig;
use tmi_program::{Op, OpResult, ThreadProgram};
use tmi_sim::{Engine, EngineConfig, Halt, NullRuntime, RuntimeHooks};
use tmi_telemetry::json;
use tmi_telemetry::MetricSource;
use tmi_workloads::{SetupCtx, WorkloadParams};

/// One timed interval: a layer call made by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (equal to `start_ns`
    /// while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: usize,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; written out once, at the end of a run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.ns()
    }

    /// Records an already measured interval `[start, end]`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
            parent,
            job,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                    json::string(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.job
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// The cost in nanoseconds of one empty `Instant` interval on this host,
/// subtracted from every sampled `next()` timing.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Host-time counters for `ThreadProgram::next`, shared by every program
/// of one job.
#[derive(Debug, Default)]
pub struct NextCounters {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

/// Mean interval between timed `next()` calls. Intervals are drawn at
/// random in `1..2 * SAMPLE_MEAN` so a loop whose length divides the
/// interval is not always sampled at the same op.
const SAMPLE_MEAN: u32 = 32;

/// A thread program that times a random sample of its `next()` calls.
struct TimedProgram {
    inner: Box<dyn ThreadProgram>,
    counters: Arc<NextCounters>,
    calls: u64,
    countdown: u32,
    rng: u32,
}

impl TimedProgram {
    fn new(inner: Box<dyn ThreadProgram>, counters: Arc<NextCounters>, index: u32) -> Self {
        let mut p = TimedProgram {
            inner,
            counters,
            calls: 0,
            countdown: 0,
            rng: 0x9E37_79B9 ^ index.wrapping_mul(0x85EB_CA6B),
        };
        p.countdown = p.interval();
        p
    }

    fn interval(&mut self) -> u32 {
        // xorshift32
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        1 + self.rng % (2 * SAMPLE_MEAN - 1)
    }
}

impl ThreadProgram for TimedProgram {
    fn next(&mut self, last: OpResult) -> Op {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return self.inner.next(last);
        }
        self.countdown = self.interval();
        let t = Instant::now();
        let op = self.inner.next(last);
        let ns = t.elapsed().as_nanos() as u64;
        // Statistics only: read after the engine (and every program) has
        // been dropped.
        self.counters.sampled.fetch_add(1, Ordering::Relaxed);
        self.counters.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        op
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        self.counters.calls.fetch_add(self.calls, Ordering::Relaxed);
    }
}

/// Host nanoseconds per layer for one traced job.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `Workload::build`.
    pub build_ns: u64,
    /// Machine assembly around the build: `Engine::new`, the maps,
    /// `add_thread`, `drop_residency`.
    pub assemble_ns: u64,
    /// `Engine::run`, including the thread programs' `next()`.
    pub run_ns: u64,
    /// `next()` calls made during the run.
    pub next_calls: u64,
    /// `next()` calls timed.
    pub next_sampled: u64,
    /// Timed nanoseconds of the sampled calls, net of timer overhead.
    pub next_sampled_ns: f64,
    /// `Engine::metrics`.
    pub snapshot_ns: u64,
    /// `Workload::verify`.
    pub verify_ns: u64,
    /// The whole traced job.
    pub total_ns: u64,
}

impl LayerTimes {
    /// Estimated total host nanoseconds in `next()`.
    pub fn next_ns(&self) -> f64 {
        crate::stats::ratio(self.next_sampled_ns, self.next_sampled as f64) * self.next_calls as f64
    }
}

/// The simulated outcome and layer times of one traced job.
#[derive(Clone, Debug)]
pub struct TracedJob {
    /// How the run ended.
    pub halt: Halt,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic ops.
    pub ops: u64,
    /// `machine.hitm_events`.
    pub hitm_events: u64,
    /// Output verification.
    pub verified: Result<(), String>,
    /// Host time per layer.
    pub times: LayerTimes,
}

impl TracedJob {
    /// Where this traced job differs from the untraced `r`, if anywhere.
    pub fn mismatch(&self, r: &RunResult) -> Option<String> {
        let same = self.halt == r.halt
            && self.cycles == r.cycles
            && self.ops == r.ops
            && self.hitm_events == r.hitm_events
            && self.verified == r.verified;
        (!same).then(|| {
            format!(
                "traced (halt {:?}, cycles {}, ops {}, hitm {}, verified {:?}) != untraced \
                 (halt {:?}, cycles {}, ops {}, hitm {}, verified {:?})",
                self.halt,
                self.cycles,
                self.ops,
                self.hitm_events,
                self.verified,
                r.halt,
                r.cycles,
                r.ops,
                r.hitm_events,
                r.verified
            )
        })
    }
}

/// Runs `spec` through the traced path, recording its spans under `job`.
/// `timer_ns` is [`timer_overhead_ns`].
///
/// # Panics
///
/// Panics on an unknown workload or a failed mapping, as the harness does.
pub fn trace_job(spec: &JobSpec, job: usize, spans: &mut Spans, timer_ns: f64) -> TracedJob {
    let cfg = spec.cfg;
    let tmi = |preset: TmiConfig| {
        let c = TmiConfig {
            perf: PerfConfig::with_period(cfg.period),
            ..preset
        };
        move |l: AppLayout| TmiRuntime::new(c, l)
    };
    let sheriff = |c: SheriffConfig| move |l: AppLayout| SheriffRuntime::new(c, l);
    let t = Traced {
        spec,
        job,
        spans,
        timer_ns,
    };
    match cfg.runtime {
        RuntimeKind::Pthreads | RuntimeKind::TmiAlloc => t.run("runtime", |_| NullRuntime),
        RuntimeKind::TmiDetect => t.run("tmi", tmi(TmiConfig::detect_only())),
        RuntimeKind::TmiProtect => t.run("tmi", tmi(TmiConfig::protect())),
        RuntimeKind::TmiPtsbEverywhere => t.run("tmi", tmi(TmiConfig::ptsb_everywhere())),
        RuntimeKind::TmiNoCodeCentric => t.run(
            "tmi",
            tmi(TmiConfig {
                code_centric: false,
                ..TmiConfig::protect()
            }),
        ),
        RuntimeKind::SheriffDetect => t.run("sheriff", sheriff(SheriffConfig::detect())),
        RuntimeKind::SheriffProtect => t.run("sheriff", sheriff(SheriffConfig::protect())),
        RuntimeKind::Laser => {
            let c = LaserConfig {
                perf: PerfConfig::with_period(cfg.period),
                ..Default::default()
            };
            t.run("laser", |l| LaserRuntime::new(c, l))
        }
        RuntimeKind::Plastic => {
            let c = PlasticConfig {
                perf: PerfConfig::with_period(cfg.period),
                ..Default::default()
            };
            t.run("plastic", |l| PlasticRuntime::new(c, l))
        }
    }
}

fn alloc_config(cfg: &RunConfig, allocator_sensitive: bool) -> AllocConfig {
    let mut ac = AllocConfig::default();
    if allocator_sensitive && !cfg.fixed && !cfg.runtime.has_own_allocator() {
        ac.policy = AllocPolicy::Glibc;
        if cfg.misaligned {
            ac.misalign = 8;
        }
    }
    ac
}

struct Traced<'a> {
    spec: &'a JobSpec,
    job: usize,
    spans: &'a mut Spans,
    timer_ns: f64,
}

impl Traced<'_> {
    fn run<R: RuntimeHooks + MetricSource>(
        self,
        metric_prefix: &str,
        make_runtime: impl FnOnce(AppLayout) -> R,
    ) -> TracedJob {
        let Traced {
            spec,
            job,
            spans,
            timer_ns,
        } = self;
        let cfg = &spec.cfg;
        let mut times = LayerTimes::default();
        let root = spans.open("job", None, job);

        let assemble = spans.open("sim.assemble", Some(root), job);
        let mut workload = tmi_workloads::by_name(&spec.workload)
            .unwrap_or_else(|| panic!("unknown workload {}", spec.workload));
        let wspec = workload.spec();
        let app_len: u64 = if wspec.big_memory { 64 << 20 } else { 16 << 20 };
        let mut engine_cfg = EngineConfig::with_cores(cfg.threads.max(1));
        engine_cfg.tick_interval = cfg.tick_interval;
        engine_cfg.max_ops = cfg.max_ops;
        engine_cfg.max_cycles = 60_000_000_000;
        let layout_proto = AppLayout {
            app_obj: tmi_os::ObjId(0),
            app_start: VAddr::new(APP_START),
            app_len,
            internal_obj: tmi_os::ObjId(1),
            internal_start: VAddr::new(INTERNAL_START),
            internal_len: INTERNAL_LEN,
            huge_pages: cfg.huge_pages,
        };
        let mut engine = Engine::new(engine_cfg, make_runtime(layout_proto));
        let kernel = &mut engine.core_mut().kernel;
        let app_obj = kernel.create_object(app_len);
        let internal_obj = kernel.create_object(INTERNAL_LEN);
        let aspace = kernel.create_aspace();
        let mut req = MapRequest::object(VAddr::new(APP_START), app_len, app_obj, 0);
        if cfg.huge_pages {
            req = req.huge();
        }
        kernel.map(aspace, req).expect("map app object");
        kernel
            .map(
                aspace,
                MapRequest::object(VAddr::new(INTERNAL_START), INTERNAL_LEN, internal_obj, 0),
            )
            .expect("map internal");
        engine.create_root_process(aspace);
        let mut alloc = SimAllocator::new(
            VAddr::new(APP_START),
            app_len,
            alloc_config(cfg, wspec.allocator_sensitive),
        );
        let params = WorkloadParams {
            threads: cfg.threads,
            scale: cfg.scale,
            fixed: cfg.fixed,
            misaligned: cfg.misaligned,
        };
        let build = spans.open("workloads.build", Some(assemble), job);
        let programs = {
            let tmi_sim::EngineCore { kernel, code, .. } = engine.core_mut();
            let mut ctx = SetupCtx::new(kernel, code, &mut alloc, aspace);
            workload.build(&mut ctx, &params)
        };
        times.build_ns = spans.close(build);
        let counters = Arc::new(NextCounters::default());
        for (i, p) in programs.into_iter().enumerate() {
            engine.add_thread(Box::new(TimedProgram::new(
                p,
                Arc::clone(&counters),
                i as u32,
            )));
        }
        engine.core_mut().kernel.drop_residency(aspace);
        times.assemble_ns = spans.close(assemble) - times.build_ns;

        let run = spans.open("sim.run", Some(root), job);
        let report = engine.run();
        times.run_ns = spans.close(run);

        let snapshot = spans.open("telemetry.snapshot", Some(root), job);
        let metrics = engine.metrics(metric_prefix);
        times.snapshot_ns = spans.close(snapshot);

        let verify = spans.open("workloads.verify", Some(root), job);
        let verified = if report.halt == Halt::Completed {
            let tmi_sim::EngineCore { kernel, code, .. } = engine.core_mut();
            let mut alloc =
                SimAllocator::new(VAddr::new(APP_START), 1 << 20, AllocConfig::default());
            let mut ctx = SetupCtx::new(kernel, code, &mut alloc, aspace);
            workload.verify(&mut ctx)
        } else {
            Err(format!("run did not complete: {:?}", report.halt))
        };
        times.verify_ns = spans.close(verify);
        times.total_ns = spans.close(root);

        drop(engine);
        times.next_calls = counters.calls.load(Ordering::Relaxed);
        times.next_sampled = counters.sampled.load(Ordering::Relaxed);
        let sampled_ns = counters.sampled_ns.load(Ordering::Relaxed) as f64;
        times.next_sampled_ns = (sampled_ns - timer_ns * times.next_sampled as f64).max(0.0);
        TracedJob {
            halt: report.halt,
            cycles: report.cycles,
            ops: report.ops,
            hitm_events: metrics.u64("machine.hitm_events"),
            verified,
            times,
        }
    }
}
