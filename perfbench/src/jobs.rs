//! The fixed job lists. A run's seed only shuffles the order of a
//! simulation list and draws the service mix; `JobSpec.seed` (the fault
//! plan) stays 0 everywhere.

use std::collections::HashSet;

use tmi_bench::{JobSpec, RunConfig, RuntimeKind};
use tmi_workloads::{REPAIR_SUITE, SUITE};

/// `detect_suite` scale: the `run_all --quick` scale.
pub const DETECT_SCALE: f64 = 0.05;
/// `repair_4t` scale.
pub const REPAIR_SCALE: f64 = 0.25;
/// Scale of the small suite jobs in the service mix.
pub const SERVICE_SCALE: f64 = 0.02;
/// Service clients (one thread and one tenant each).
pub const SERVICE_CLIENTS: usize = 2;
/// Fresh litmus jobs in a service pass (about 50% of it).
pub const SERVICE_LITMUS_JOBS: usize = 88;
/// Re-submissions in a service pass (about 30% of it), split evenly
/// between the clients.
pub const SERVICE_REPEATS: usize = 52;
/// Litmus program seeds the service mix draws from, `0..LITMUS_SEEDS`.
pub const LITMUS_SEEDS: u64 = 500;

/// A deterministic 64-bit generator (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Fisher–Yates shuffle of `items` driven by `seed`.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_0DE5);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

fn spec(workload: &str, cfg: RunConfig) -> JobSpec {
    JobSpec {
        cfg,
        ..JobSpec::new(workload)
    }
}

/// Every suite workload × {pthreads, tmi-detect} × {4 KiB, 2 MiB pages},
/// 8 threads, at `scale`.
pub fn detect_suite(scale: f64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in SUITE {
        for runtime in [RuntimeKind::Pthreads, RuntimeKind::TmiDetect] {
            for huge in [false, true] {
                let mut cfg = RunConfig::new(runtime).scale(scale);
                if huge {
                    cfg = cfg.huge_pages();
                }
                jobs.push(spec(name, cfg));
            }
        }
    }
    jobs
}

/// The repair workloads × {pthreads, pthreads fixed, tmi-protect, laser,
/// sheriff-protect}, 4 threads, misaligned, at `scale`.
pub fn repair_4t(scale: f64) -> Vec<JobSpec> {
    let variants = [
        (RuntimeKind::Pthreads, false),
        (RuntimeKind::Pthreads, true),
        (RuntimeKind::TmiProtect, false),
        (RuntimeKind::Laser, false),
        (RuntimeKind::SheriffProtect, false),
    ];
    let mut jobs = Vec::new();
    for name in REPAIR_SUITE {
        for (runtime, fixed) in variants {
            let mut cfg = RunConfig::repair(runtime).scale(scale).misaligned();
            if fixed {
                cfg = cfg.fixed();
            }
            jobs.push(spec(name, cfg));
        }
    }
    jobs
}

/// The warm-up job a workload's set-up runs: the same kind of job as the
/// list, at a scale the list does not use. The service's is a suite job,
/// not a litmus job, so that simulation rather than the fsync of the
/// journal record dominates its set-up time.
pub fn warmup(workload: crate::Workload) -> JobSpec {
    match workload {
        crate::Workload::DetectSuite => spec(
            "histogram",
            RunConfig::new(RuntimeKind::TmiDetect).scale(0.01),
        ),
        crate::Workload::Repair4t => spec(
            "histogram",
            RunConfig::repair(RuntimeKind::TmiProtect)
                .scale(0.05)
                .misaligned(),
        ),
        crate::Workload::ServiceMix => {
            let mut cfg = RunConfig::new(RuntimeKind::TmiDetect).scale(0.01);
            cfg.threads = 4;
            spec("histogram", cfg)
        }
    }
}

/// One job of a service client's sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct MixJob {
    /// What the client submits.
    pub spec: JobSpec,
    /// For a re-submission: the index, in the same client's sequence, of
    /// the job that first submitted this spec.
    pub repeat_of: Option<usize>,
}

/// A small suite job as the service mix submits it.
pub fn service_suite_job(name: &str, threads: usize) -> JobSpec {
    let mut cfg = RunConfig::new(RuntimeKind::TmiDetect).scale(SERVICE_SCALE);
    cfg.threads = threads;
    spec(name, cfg)
}

/// Draws each client's job sequence from `seed`. The fresh jobs are every
/// suite workload once as a small tmi-detect job (2–4 threads by suite
/// position; about 20% of the pass) and [`SERVICE_LITMUS_JOBS`] distinct
/// litmus and transistency-litmus seeds under tmi-protect, shuffled and
/// dealt to the clients in turn; each client then re-submits its own
/// earlier jobs [`SERVICE_REPEATS`]` / 2` times at seeded positions. The
/// suite share is fixed rather than drawn because suite jobs dominate the
/// pass's cost. Fresh specs are unique, so exactly the re-submissions hit
/// the service's result cache.
pub fn service_mix(seed: u64) -> Vec<Vec<MixJob>> {
    let mut rng = Rng::new(seed);
    let mut fresh: Vec<JobSpec> = SUITE
        .iter()
        .enumerate()
        .map(|(i, name)| service_suite_job(name, 2 + i % 3))
        .collect();
    let mut used = HashSet::new();
    while fresh.len() < SUITE.len() + SERVICE_LITMUS_JOBS {
        let program = rng.below(LITMUS_SEEDS);
        let vm = rng.below(2) == 1;
        if used.insert((program, vm)) {
            fresh.push(if vm {
                JobSpec::litmus_vm(program)
            } else {
                JobSpec::litmus(program)
            });
        }
    }
    let fresh = shuffled(fresh, rng.next_u64());
    let mut dealt: Vec<Vec<JobSpec>> = vec![Vec::new(); SERVICE_CLIENTS];
    for (i, spec) in fresh.into_iter().enumerate() {
        dealt[i % SERVICE_CLIENTS].push(spec);
    }
    dealt
        .into_iter()
        .map(|own| {
            // Slot kinds in seeded order; the first slot is always fresh.
            let repeats = SERVICE_REPEATS / SERVICE_CLIENTS;
            let mut is_repeat = vec![false; own.len()];
            is_repeat.extend(std::iter::repeat_n(true, repeats));
            let mut is_repeat = shuffled(is_repeat, rng.next_u64());
            if let Some(first_fresh) = is_repeat.iter().position(|r| !r) {
                is_repeat.swap(0, first_fresh);
            }
            let mut own = own.into_iter();
            let mut seq: Vec<MixJob> = Vec::new();
            let mut fresh_at: Vec<usize> = Vec::new();
            for repeat in is_repeat {
                if repeat {
                    let of = fresh_at[rng.below(fresh_at.len() as u64) as usize];
                    seq.push(MixJob {
                        spec: seq[of].spec.clone(),
                        repeat_of: Some(of),
                    });
                } else {
                    fresh_at.push(seq.len());
                    seq.push(MixJob {
                        spec: own.next().expect("one fresh job per fresh slot"),
                        repeat_of: None,
                    });
                }
            }
            seq
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_have_the_documented_sizes_and_are_distinct() {
        let detect = detect_suite(DETECT_SCALE);
        assert_eq!(detect.len(), 35 * 2 * 2);
        let repair = repair_4t(REPAIR_SCALE);
        assert_eq!(repair.len(), 9 * 5);
        for list in [&detect, &repair] {
            let keys: HashSet<String> = list.iter().map(JobSpec::to_json).collect();
            assert_eq!(keys.len(), list.len());
            assert!(list.iter().all(|s| s.seed == 0));
        }
    }

    #[test]
    fn seed_only_reorders_a_list() {
        let base = repair_4t(REPAIR_SCALE);
        let a = shuffled(base.clone(), 1);
        let b = shuffled(base.clone(), 2);
        assert_ne!(a, b);
        assert_eq!(a, shuffled(base.clone(), 1));
        let mut sorted: Vec<String> = a.iter().map(JobSpec::to_json).collect();
        sorted.sort();
        let mut expect: Vec<String> = base.iter().map(JobSpec::to_json).collect();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn service_mix_repeats_only_its_own_fresh_jobs() {
        let mix = service_mix(7);
        assert_eq!(mix, service_mix(7));
        assert_ne!(mix, service_mix(8));
        let mut fresh_keys = HashSet::new();
        let mut repeats = 0;
        for seq in &mix {
            for (i, job) in seq.iter().enumerate() {
                assert_eq!(job.spec.seed, 0);
                match job.repeat_of {
                    Some(of) => {
                        assert!(of < i && seq[of].repeat_of.is_none());
                        assert_eq!(seq[of].spec, job.spec);
                        repeats += 1;
                    }
                    None => assert!(fresh_keys.insert(job.spec.to_json())),
                }
            }
        }
        assert_eq!(repeats, SERVICE_REPEATS);
        assert_eq!(fresh_keys.len(), SUITE.len() + SERVICE_LITMUS_JOBS);
    }
}
