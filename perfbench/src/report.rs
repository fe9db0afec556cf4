//! A run's result: the human-readable table, the one-line JSON result
//! that ends standard output, and the record compare mode reads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use tmi_telemetry::json;

use crate::env::Stamp;
use crate::stats::{median, quantile, ratio};
use crate::{Workload, END_TO_END, PER_LAYER};

/// What the timed passes of a run measured.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Host seconds of each pass over the job list.
    pub walls: Vec<f64>,
    /// Host milliseconds of each job, over all passes.
    pub latencies_ms: Vec<f64>,
    /// Seconds of each set-up of the run.
    pub setups: Vec<f64>,
    /// Simulated ops of one pass.
    pub ops: u64,
}

impl Timing {
    /// `wall_s`: the median pass.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    /// A line for the reader: pass and sample counts.
    pub fn note(&self, jobs: usize) -> String {
        let p90 = quantile(&self.latencies_ms, 0.9);
        format!(
            "{} pass(es) of {jobs} jobs; pass walls {:?} s; {} latency samples, \
             {} beyond p90; {} set-ups",
            self.walls.len(),
            self.walls,
            self.latencies_ms.len(),
            self.latencies_ms.iter().filter(|&&l| l > p90).count(),
            self.setups.len()
        )
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, attempted: u64, failed: u64) -> Result<BTreeMap<String, f64>, String> {
        let wall_s = self.wall_s();
        Ok([
            ("wall_s", wall_s),
            ("sim_mops_per_s", ratio(self.ops as f64 / 1e6, wall_s)),
            ("latency_p50_ms", median(&self.latencies_ms)),
            ("latency_p90_ms", quantile(&self.latencies_ms, 0.9)),
            ("setup_s", median(&self.setups)),
            ("peak_rss_mb", crate::env::peak_rss_mb()?),
            ("ok_frac", 1.0 - ratio(failed as f64, attempted as f64)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect())
    }
}

/// Everything one run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Jobs attempted in the timed part of the run.
    pub attempted: u64,
    /// Jobs that failed (see `README.md` for what counts).
    pub failed: u64,
    /// Whether every check on the program's outputs passed.
    pub correct: bool,
    /// Metric values by name; a metric of the run's set that is absent
    /// reads 0.
    pub metrics: BTreeMap<String, f64>,
    /// Lines for the reader: sample counts, failures, mismatches.
    pub notes: Vec<String>,
    /// Host and build facts.
    pub stamp: Stamp,
}

impl Report {
    /// The metric set this run reports: end-to-end untraced, per-layer
    /// traced.
    pub fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The final standard-output line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .catalog()
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::fmt_f64(self.value(name)),
                    json::string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The record compare mode reads: one JSON object per run.
    pub fn record_line(&self) -> String {
        let metrics: Vec<String> = self
            .catalog()
            .iter()
            .map(|&(name, _)| {
                format!(
                    "{}: {}",
                    json::string(name),
                    json::fmt_f64(self.value(name))
                )
            })
            .collect();
        let s = &self.stamp;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"git_rev\": {}, \"nproc\": {}, \
             \"rustc\": {}, \"fs_type\": {}, \"metrics\": {{{}}}}}",
            json::string(self.workload.name()),
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            json::string(&s.git_rev),
            s.nproc,
            json::string(&s.rustc),
            json::string(&s.fs_type),
            metrics.join(", ")
        )
    }

    /// Appends [`Report::record_line`] to `path`.
    pub fn append_record(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.record_line())?;
        f.sync_all()
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let s = &self.stamp;
        let mut out = format!(
            "perfbench {} seed {} trace {}: git {}, nproc {}, {}, data dir on {}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            s.git_rev,
            s.nproc,
            s.rustc,
            s.fs_type
        );
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out.push_str(&format!(
            "  jobs attempted {}, failed {} (fail_frac {}), correct {}\n",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64),
            self.correct
        ));
        for &(name, unit) in self.catalog() {
            out.push_str(&format!("  {name:<28} {:>16.6} {unit}\n", self.value(name)));
        }
        out
    }
}
