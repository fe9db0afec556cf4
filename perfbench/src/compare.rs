//! Compare mode: reads the run records of two commits (files written with
//! `--record`) and prints, per workload and end-to-end metric, each side's
//! median and quartiles, the paired win fraction, and a verdict; then
//! every exact per-layer count that differs between traced runs of the
//! same seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tmi_telemetry::json::{self, Json};

use crate::stats::quartiles;
use crate::{is_exact_count, Workload, END_TO_END};

/// One run record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Traced run.
    pub trace: bool,
    /// Failed jobs.
    pub failed: u64,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
}

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Parses a record file: one JSON object per line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let num = |k: &str| v.get(k).and_then(Json::as_f64);
            let metrics = v
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("line {}: no metrics", i + 1))?
                .iter()
                .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                .collect();
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: no workload", i + 1))?
                    .to_string(),
                seed: num("seed").unwrap_or(0.0) as u64,
                trace: matches!(v.get("trace"), Some(Json::Bool(true))),
                failed: num("failed").unwrap_or(0.0) as u64,
                metrics,
            })
        })
        .collect()
}

/// Reads the end-to-end rules from a `BENCHMARK.json` document.
pub fn parse_rules(text: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m.get("better").and_then(Json::as_str).unwrap_or("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((
                name.to_string(),
                Rule {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

fn values(runs: &[Record], metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
        .collect()
}

fn spread(q: (f64, f64, f64)) -> f64 {
    crate::stats::ratio(q.2 - q.0, q.1.abs())
}

/// The comparison report for `old` (parent) against `new` (change).
pub fn compare(old: &[Record], new: &[Record], rules: &BTreeMap<String, Rule>) -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        let pick = |set: &'_ [Record], trace: bool| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == w.name() && r.trace == trace)
                .cloned()
                .collect()
        };
        let (o, n) = (pick(old, false), pick(new, false));
        let (ot, nt) = (pick(old, true), pick(new, true));
        if o.is_empty() && n.is_empty() && ot.is_empty() && nt.is_empty() {
            continue;
        }
        let failed = |s: &[Record]| s.iter().map(|r| r.failed).sum::<u64>();
        let _ = writeln!(
            out,
            "== {}: {} old / {} new untraced runs, failed jobs {} old / {} new",
            w.name(),
            o.len(),
            n.len(),
            failed(&o),
            failed(&n)
        );
        if !o.is_empty() && !n.is_empty() {
            let _ = writeln!(
                out,
                "  {:<16} {:>32} {:>32} {:>8} {:>6}  verdict",
                "metric", "old q1 / median / q3", "new q1 / median / q3", "worse%", "wins"
            );
            for (name, _) in END_TO_END {
                let Some(rule) = rules.get(name) else {
                    continue;
                };
                let _ = writeln!(out, "{}", metric_row(name, *rule, &o, &n));
            }
        }
        for (a, b) in pair_by_seed(&ot, &nt) {
            for (name, &va) in &a.metrics {
                let vb = b.metrics.get(name).copied();
                if is_exact_count(name) && vb != Some(va) {
                    let _ = writeln!(
                        out,
                        "  count differs, seed {}: {name} {va} -> {}",
                        a.seed,
                        vb.map_or("absent".to_string(), |v| v.to_string())
                    );
                }
            }
        }
    }
    out
}

fn pair_by_seed<'a>(a: &'a [Record], b: &'a [Record]) -> Vec<(&'a Record, &'a Record)> {
    a.iter()
        .filter_map(|x| b.iter().find(|y| y.seed == x.seed).map(|y| (x, y)))
        .collect()
}

fn metric_row(name: &str, rule: Rule, old: &[Record], new: &[Record]) -> String {
    let (ov, nv) = (values(old, name), values(new, name));
    let plain = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
    let (oq, nq) = (quartiles(&plain(&ov)), quartiles(&plain(&nv)));
    // Positive = the change reads worse.
    let worse = |a: f64, b: f64| if rule.lower_is_better { b - a } else { a - b };
    let worse_frac = crate::stats::ratio(worse(oq.1, nq.1), oq.1.abs());
    let (mut wins, mut pairs) = (0, 0);
    for &(seed, a) in &ov {
        if let Some(&(_, b)) = nv.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            if worse(a, b) < 0.0 {
                wins += 1;
            }
        }
    }
    let all_better = ov
        .iter()
        .all(|&(_, a)| nv.iter().all(|&(_, b)| worse(a, b) < 0.0));
    let win_frac = crate::stats::ratio(wins as f64, pairs as f64);
    let verdict = if (spread(oq) > rule.bound || spread(nq) > rule.bound) && !all_better {
        "unresolved (spread exceeds bound)"
    } else if worse_frac > rule.bound {
        "REGRESSED"
    } else if win_frac >= 0.9 && worse(oq.1, nq.1) < 0.0 && (nq.1 - oq.1).abs() > oq.2 - oq.0 {
        "improved"
    } else {
        "no change beyond bound"
    };
    let q = |q: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", q.0, q.1, q.2);
    format!(
        "  {name:<16} {:>32} {:>32} {:>7.2}% {:>2}/{:<3}  {verdict}",
        q(oq),
        q(nq),
        worse_frac * 100.0,
        wins,
        pairs
    )
}

/// `compare OLD NEW [--bench BENCHMARK.json]`.
pub fn main(args: &[String]) -> Result<String, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench expects a path")?.clone(),
            _ => files.push(a.clone()),
        }
    }
    let [old, new] = files.as_slice() else {
        return Err(
            "usage: perfbench compare OLD_RECORDS NEW_RECORDS [--bench BENCHMARK.json]".into(),
        );
    };
    let read = |p: &str| {
        std::fs::read_to_string(Path::new(p)).map_err(|e| format!("cannot read {p}: {e}"))
    };
    let rules = parse_rules(&read(&bench)?)?;
    Ok(compare(
        &parse_records(&read(old)?)?,
        &parse_records(&read(new)?)?,
        &rules,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64, trace: bool, wall: f64, ops: f64) -> Record {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            if trace { "sim.ops" } else { "wall_s" }.to_string(),
            if trace { ops } else { wall },
        );
        Record {
            workload: "repair_4t".into(),
            seed,
            trace,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn verdicts_and_count_diffs() {
        let rules: BTreeMap<String, Rule> = [(
            "wall_s".to_string(),
            Rule {
                lower_is_better: true,
                bound: 0.1,
            },
        )]
        .into();
        let old: Vec<Record> = (0..10)
            .map(|s| rec(s, false, 10.0 + s as f64 * 0.01, 0.0))
            .collect();
        let faster: Vec<Record> = (0..10)
            .map(|s| rec(s, false, 8.0 + s as f64 * 0.01, 0.0))
            .collect();
        let slower: Vec<Record> = (0..10)
            .map(|s| rec(s, false, 12.0 + s as f64 * 0.01, 0.0))
            .collect();
        assert!(compare(&old, &faster, &rules).contains("improved"));
        assert!(compare(&old, &slower, &rules).contains("REGRESSED"));
        assert!(compare(&old, &old, &rules).contains("no change"));
        let noisy: Vec<Record> = (0..10)
            .map(|s| rec(s, false, 5.0 + s as f64 * 2.0, 0.0))
            .collect();
        assert!(compare(&old, &noisy, &rules).contains("unresolved"));

        let a = [rec(3, true, 0.0, 100.0)];
        let b = [rec(3, true, 0.0, 101.0)];
        let report = compare(&a, &b, &rules);
        assert!(
            report.contains("count differs, seed 3: sim.ops 100 -> 101"),
            "{report}"
        );
        assert!(!compare(&a, &a, &rules).contains("count differs"));
    }
}
