//! Drift guard: the benchmark's traced copy of the harness build path must
//! reproduce the harness exactly. Two tiny jobs per workload run both
//! untraced (through `tmi_bench::Executor`, or the service) and traced,
//! and every simulated result must agree.

use perfbench::jobs;
use perfbench::traced::{self, Spans};
use tmi_bench::{Executor, JobSpec, RuntimeKind};
use tmi_service::{Client, Service, ServiceConfig};
use tmi_telemetry::json::{self, Json};

fn pick(list: &[JobSpec], workload: &str, runtime: RuntimeKind, huge: bool) -> JobSpec {
    list.iter()
        .find(|s| s.workload == workload && s.cfg.runtime == runtime && s.cfg.huge_pages == huge)
        .unwrap_or_else(|| panic!("{workload} {runtime:?} not in the list"))
        .clone()
}

/// Runs each spec untraced and traced and asserts identical outcomes.
fn assert_traced_matches(specs: &[JobSpec]) {
    let timer_ns = traced::timer_overhead_ns();
    let mut spans = Spans::default();
    for (i, spec) in specs.iter().enumerate() {
        let r = Executor::new(1).run_spec(spec);
        assert!(
            r.ok(),
            "{} {:?} did not verify",
            spec.workload,
            spec.cfg.runtime
        );
        let run = r.outcome.as_ref().expect("ok job has a result");
        let t = traced::trace_job(spec, i, &mut spans, timer_ns);
        assert_eq!(t.mismatch(run), None, "{}", spec.workload);
        assert!(t.times.next_sampled > 0 && t.times.next_calls > t.times.next_sampled);
    }
    let names: Vec<&str> = spans.all().iter().map(|s| s.name).collect();
    for layer in [
        "job",
        "sim.assemble",
        "workloads.build",
        "sim.run",
        "telemetry.snapshot",
        "workloads.verify",
    ] {
        assert!(names.contains(&layer), "no {layer} span");
    }
}

#[test]
fn detect_suite_jobs_trace_identically() {
    let list = jobs::detect_suite(0.01);
    assert_traced_matches(&[
        pick(&list, "histogramfs", RuntimeKind::TmiDetect, true),
        pick(&list, "canneal", RuntimeKind::Pthreads, false),
    ]);
}

#[test]
fn repair_jobs_trace_identically() {
    let list = jobs::repair_4t(0.1);
    assert_traced_matches(&[
        pick(&list, "histogramfs", RuntimeKind::TmiProtect, false),
        pick(&list, "lreg", RuntimeKind::SheriffProtect, false),
    ]);
}

#[test]
fn service_jobs_match_the_harness_and_the_oracle() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("drift-guard-service");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = Service::start(ServiceConfig {
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr()).unwrap();

    let suite = jobs::service_suite_job("histogramfs", 3);
    let reply = client.run("guard", &suite, 1, false, |_| {}).unwrap();
    let v = json::parse(&reply.payload).unwrap();
    let field = |k: &str| v.get(k).and_then(Json::as_f64).unwrap() as u64;
    let mut spans = Spans::default();
    let t = traced::trace_job(&suite, 0, &mut spans, 0.0);
    assert_eq!((t.ops, t.cycles), (field("ops"), field("cycles")));
    assert_eq!(t.hitm_events, field("hitm_events"));
    assert_eq!(t.verified, Ok(()));

    let litmus = JobSpec::litmus_vm(3);
    let reply = client.run("guard", &litmus, 1, false, |_| {}).unwrap();
    let v = json::parse(&reply.payload).unwrap();
    assert_eq!(v.get("clean"), Some(&Json::Bool(true)));
    let report = tmi_oracle::check_litmus(
        &tmi_oracle::Litmus::generate_vm(3),
        &tmi_oracle::CheckConfig::default(),
    );
    assert!(report.clean());
    assert_eq!(
        v.get("steps").and_then(Json::as_f64),
        Some(report.steps as f64)
    );

    client.shutdown().unwrap();
    drop(client);
    service.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
