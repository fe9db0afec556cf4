//! Host-time benchmark for the TMI simulator and its job service.
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * `detect_suite` — the whole 35-workload suite under pthreads and
//!   `tmi-detect`, 4 KiB and 2 MiB pages, 8 threads: many short cold-start
//!   jobs, the paper's always-on monitoring case.
//! * `repair_4t` — the nine repair workloads under five runtimes at 4
//!   threads, misaligned: long warm runs, the paper's repair experiment.
//! * `service_mix` — an in-process `tmi_service::Service` driven by a
//!   closed loop of two clients submitting litmus, small suite and
//!   repeated jobs.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run (`--trace 1`) times each layer from outside, through public
//! functions only, and reports [`PER_LAYER`].

pub mod compare;
pub mod env;
pub mod jobs;
pub mod report;
pub mod service_mix;
pub mod sim;
pub mod stats;
pub mod traced;

/// How many times a run sets up before measuring; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Which workload to run.
    pub workload: Workload,
    /// Shuffles the simulation lists and draws the service mix.
    pub seed: u64,
    /// Measurement time: whole passes over the job list repeat until at
    /// least this many seconds have been measured.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Directory for this run's service data and span file (created).
    pub dir: std::path::PathBuf,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Detection across the whole suite (Figs. 7 and 10).
    DetectSuite,
    /// Repair of the false-sharing workloads (Fig. 9, Table 3).
    Repair4t,
    /// The multi-tenant job service under a closed-loop job mix.
    ServiceMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::DetectSuite,
        Workload::Repair4t,
        Workload::ServiceMix,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectSuite => "detect_suite",
            Workload::Repair4t => "repair_4t",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// The inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_mops_per_s", "Mops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// a workload does not exercise reads 0 (see `README.md` for which
/// workload feeds which layer).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.build_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("sim.assemble_ms", "ms"),
    ("telemetry.snapshot_ms", "ms"),
    ("bench.exec_overhead_ms", "ms"),
    ("program.next_ns", "ns"),
    ("program.next_share", "ratio"),
    ("sim.run_ns_per_op", "ns"),
    ("sim.run_share", "ratio"),
    ("sim.ops", "count"),
    ("sim.cycles", "count"),
    ("machine.accesses", "count"),
    ("machine.local_hit_rate", "ratio"),
    ("machine.hitm_per_kacc", "1/kacc"),
    ("machine.dir.hit_rate", "ratio"),
    ("os.tlb.hit_rate", "ratio"),
    ("os.demand_faults", "count"),
    ("os.cow_breaks", "count"),
    ("os.tlb.shootdowns", "count"),
    ("perf.records_taken", "count"),
    ("core.commits", "count"),
    ("core.bytes_merged", "count"),
    ("core.conversions", "count"),
    ("baselines.commits", "count"),
    ("baselines.emulated_stores", "count"),
    ("oracle.generate_us", "us"),
    ("oracle.run_ms", "ms"),
    ("oracle.check_ms", "ms"),
    ("oracle.divergent", "count"),
    ("service.admit_ms_p50", "ms"),
    ("service.admit_ms_p90", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_p90", "ms"),
    ("service.reply_ms_p50", "ms"),
    ("service.reply_ms_p90", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("service.hit_ms_p90", "ms"),
    ("service.journal_append_us", "us"),
    ("service.journal_sync_us", "us"),
    ("service.cache_store_us", "us"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.journal_appended", "count"),
    ("service.queue_peak_depth", "count"),
    ("service.rejects", "count"),
    ("service.jobs_retried", "count"),
    ("trace.jobs", "count"),
    ("trace.mismatches", "count"),
    ("trace.timer_ns", "ns"),
    ("tracing.overhead_frac", "ratio"),
];

/// The per-layer metrics that are exact simulated counts: identical on
/// every run of one commit, and in a speed-only change identical across
/// commits. Compare mode lists every one that differs.
pub fn is_exact_count(name: &str) -> bool {
    let exact_prefixes = [
        "sim.ops",
        "sim.cycles",
        "machine.",
        "os.",
        "perf.",
        "core.",
        "baselines.",
        "oracle.divergent",
        "service.cache_hits",
        "service.cache_misses",
        "service.hit_ratio",
        "service.journal_appended",
        "service.rejects",
        "service.jobs_retried",
        "trace.jobs",
        "trace.mismatches",
    ];
    exact_prefixes.iter().any(|p| name.starts_with(p))
}
