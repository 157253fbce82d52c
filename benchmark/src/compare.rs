//! `run.sh --compare A B`: judge two result sets (files of one JSON record
//! per run, as `--out` appends them) taken **with the same seed**.
//!
//! At a fixed seed the simulated metrics are exact, so the bounds here are
//! the tight ones of ISSUE 11, not the cross-seed bounds `BENCHMARK.json`
//! carries for the driver. Per workload and end-to-end metric it prints both
//! medians with quartiles, the ratio with its base, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's run-to-run spread (quartile distance ÷ median)
//!   is wider than the bound, so the medians cannot be told apart — unless
//!   every run of B reads better than every run of A;
//! * `ok` otherwise.
//!
//! `failed_share` regresses on any increase, and a `behaviour_digest` that
//! differs between runs of one seed (or no seed in common) counts too.

use crate::json::Json;
use std::collections::BTreeMap;

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// ISSUE 11's end-to-end metrics and same-seed regression bounds
/// (`failed_share`, the twelfth, is judged on any increase).
pub const SPECS: [MetricSpec; 11] = [
    spec("setup_s", "s", true, 0.10),
    spec("host_events_per_s", "1/s", false, 0.05),
    spec("host_us_per_commit", "us", true, 0.05),
    spec("host_peak_rss_mb", "MiB", true, 0.05),
    spec("sim_tps", "1/s", false, 0.005),
    spec("sim_rts_vs_tfa", "ratio", false, 0.005),
    spec("sim_msgs_per_commit", "count", true, 0.005),
    spec("sim_aborts_per_commit", "count", true, 0.005),
    spec("sim_nested_parent_abort_share", "ratio", true, 0.005),
    spec("sim_commit_latency_mean_ms", "ms", true, 0.005),
    spec("sim_commit_latency_p99_ms", "ms", true, 0.005),
];

/// One side's runs: workload → metric → values, plus digests and failures.
#[derive(Default)]
struct ResultSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (seed, digest) per run.
    digests: BTreeMap<String, Vec<(String, String)>>,
    /// workload → (failed, attempted) summed over runs.
    failures: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        // Traced runs carry per-layer metrics; the bounds are end-to-end.
        if rec.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: record without workload", i + 1))?
            .to_string();
        if let Some(Json::Obj(metrics)) = rec.get("metrics") {
            let per = set.values.entry(workload.clone()).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per.entry(name.clone()).or_default().push(v);
                }
            }
        }
        let text_of = |k: &str| match rec.get(k) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => n.to_string(),
            _ => String::new(),
        };
        set.digests
            .entry(workload.clone())
            .or_default()
            .push((text_of("seed"), text_of("behaviour_digest")));
        let num = |k: &str| rec.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let f = set.failures.entry(workload).or_default();
        f.0 += num("failed");
        f.1 += num("attempted");
    }
    Ok(set)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(|a, b| a.total_cmp(b));
    let n = x.len();
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        x[j - 1] + (pos - j as f64) * (x[j] - x[j - 1])
    };
    (at(1), at(2), at(3))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let spread = |q1: f64, m: f64, q3: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let worse_by = if am == 0.0 {
        0.0
    } else if lower_is_better {
        (bm - am) / am.abs()
    } else {
        (am - bm) / am.abs()
    };
    if spread(a1, am, a3) > bound || spread(b1, bm, b3) > bound {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let b_always_better = if lower_is_better {
            max(b) < min(a)
        } else {
            min(b) > max(a)
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; returns how many checks are not `ok`: (workload,
/// metric) pairs `regressed` or `unresolved`, `failed_share` increases, and
/// workloads whose digests differ at a common seed or share no seed.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let mut bad = 0;
    println!("A = {path_a}\nB = {path_b}\nratio = B median ÷ A median (base A)\n");
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            println!("{workload}: missing from B");
            bad += 1;
            continue;
        };
        println!("{workload}");
        for spec in &SPECS {
            let (Some(av), Some(bv)) = (a_metrics.get(spec.name), b_metrics.get(spec.name)) else {
                println!("  {:32} missing on one side", spec.name);
                bad += 1;
                continue;
            };
            let (a1, am, a3) = quartiles(av);
            let (b1, bm, b3) = quartiles(bv);
            let verdict = judge(av, bv, spec.lower_is_better, spec.bound);
            bad += usize::from(verdict != Verdict::Ok);
            println!(
                "  {:32} A {:>13.6} [{:.6} .. {:.6}] n={}  B {:>13.6} [{:.6} .. {:.6}] n={}  \
                 {}  ratio {:.4}  bound {}{:.1}%  {}",
                spec.name,
                am,
                a1,
                a3,
                av.len(),
                bm,
                b1,
                b3,
                bv.len(),
                spec.unit,
                if am != 0.0 { bm / am } else { 0.0 },
                if spec.lower_is_better { "+" } else { "-" },
                spec.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |f: Option<&(f64, f64)>| f.map_or(0.0, |(failed, n)| failed / n.max(1.0));
        let (fa, fb) = (
            share(a.failures.get(workload)),
            share(b.failures.get(workload)),
        );
        let failed_ok = fb <= fa;
        bad += usize::from(!failed_ok);
        println!(
            "  {:32} A {fa:.6}  B {fb:.6}  any increase  {}",
            "failed_share",
            if failed_ok { "ok" } else { "regressed" }
        );
        // Same seed ⇒ the simulated behaviour must be bit-identical.
        let (da, db) = (&a.digests[workload], b.digests.get(workload));
        let same_seeds: Vec<_> = db
            .into_iter()
            .flatten()
            .filter_map(|(seed, d)| {
                da.iter()
                    .find(|(s, _)| s == seed)
                    .map(|(_, d0)| (seed, d0 == d))
            })
            .collect();
        let identical = !same_seeds.is_empty() && same_seeds.iter().all(|(_, same)| *same);
        bad += usize::from(!identical);
        println!(
            "  {:32} {} over {} run(s) with a seed in common",
            "behaviour_digest",
            if identical {
                "identical"
            } else if same_seeds.is_empty() {
                "NOT COMPARABLE"
            } else {
                "DIFFERS"
            },
            same_seeds.len()
        );
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&steady, &steady, true, 0.05), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, true, 0.05), Verdict::Regressed);
        // The same move is a gain when higher is better.
        assert_eq!(judge(&steady, &slower, false, 0.05), Verdict::Ok);
        // A spread wider than the bound resolves nothing…
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&steady, &noisy, true, 0.05), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let better_but_noisy = [40.0, 60.0, 50.0, 45.0, 55.0];
        assert_eq!(judge(&steady, &better_but_noisy, true, 0.05), Verdict::Ok);
    }
}
