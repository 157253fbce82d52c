//! Command line of the benchmark; `run.sh` builds this and forwards its
//! arguments. See `README.md` for the modes.

use dstm_e2e_bench::compare::compare;
use dstm_e2e_bench::json::Json;
use dstm_e2e_bench::layers::layers;
use dstm_e2e_bench::measure::end_to_end;
use dstm_e2e_bench::workloads::{Size, Workload, DEFAULT_SEED, NAMES};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dstm-e2e-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>]
  dstm-e2e-bench --smoke
  dstm-e2e-bench --compare <A> <B>
  dstm-e2e-bench --list";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                a.seed = parse_seed(v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Reported by every untraced run and gated by `--compare`, but absent from
/// the result line: `BENCHMARK.json`'s `end_to_end` list is gated on the
/// spread across seeds, and a log2 bucket ceiling either never moves or
/// doubles.
const NOT_IN_RESULT_LINE: [&str; 1] = ["sim_commit_latency_p99_ms"];

/// What either kind of run reports.
struct Outcome {
    digest: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    /// Fields only this kind of run adds to its `--out` record.
    extra: Vec<(&'static str, Json)>,
}

fn traced_run(name: &str, w: &Workload) -> Result<Outcome, String> {
    let l = layers(w, None);
    let dir = "benchmark/out";
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{name}.trace.json");
    std::fs::write(&path, l.trace.render()).map_err(|e| format!("{path}: {e}"))?;
    println!("{name}: per-layer ledger from one traced pass (spans in {path})");
    for (n, unit, v) in &l.metrics {
        println!("  {n:44} {v:>18.4} {unit}");
    }
    Ok(Outcome {
        digest: l.digest,
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics,
        extra: Vec::new(),
    })
}

fn untraced_run(name: &str, w: &Workload, seconds: f64) -> Outcome {
    let e = end_to_end(w, seconds, None);
    println!(
        "{name}: {} cells per pass, 1 warm-up + {} timed passes (closed loop, serial){}",
        w.cells.len(),
        e.passes,
        if e.passes < w.passes {
            format!("  CAPPED by --seconds: {} wanted", w.passes)
        } else {
            String::new()
        }
    );
    for (n, unit, v) in &e.metrics {
        println!("  {n:32} {v:>18.6} {unit}");
    }
    println!(
        "  {:32} {:>18.6} ratio  ({} failed of {} attempted)",
        "failed_share",
        e.failed as f64 / e.attempted as f64,
        e.failed,
        e.attempted
    );
    println!(
        "  {:32} {:>18.4} ratio{}",
        "cpu_wall_ratio",
        e.cpu_wall_ratio,
        if e.cpu_wall_ratio < 0.95 {
            "  NOISY: the host took the CPU away during timed passes"
        } else {
            ""
        }
    );
    Outcome {
        digest: e.digest,
        attempted: e.attempted,
        failed: e.failed,
        metrics: e
            .metrics
            .iter()
            .map(|(n, u, v)| (n.to_string(), *u, *v))
            .collect(),
        extra: vec![
            ("passes", Json::Num(e.passes as f64)),
            ("cpu_wall_ratio", Json::Num(e.cpu_wall_ratio)),
        ],
    }
}

/// One workload, one process: the mode the driver (and `run.sh`) invokes.
fn run_workload(a: &Args) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().expect("checked by caller");
    let w = Workload::build(name, a.seed, Size::Full)
        .ok_or(format!("unknown workload {name:?}; one of {NAMES:?}"))?;
    let Outcome {
        digest,
        attempted,
        failed,
        metrics,
        mut extra,
    } = if a.trace {
        traced_run(name, &w)?
    } else {
        untraced_run(name, &w, a.seconds)
    };
    let rev = std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "  behaviour_digest {digest:#018x}  seed {:#x}  host_cores {}  git {rev}",
        a.seed,
        host_cores()
    );

    if let Some(path) = &a.out {
        let mut fields = vec![
            ("workload", Json::Str(name.to_string())),
            ("seed", Json::Str(format!("{:#x}", a.seed))),
            ("seconds", Json::Num(a.seconds)),
            ("trace", Json::Num(f64::from(u8::from(a.trace)))),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("behaviour_digest", Json::Str(format!("{digest:#018x}"))),
            ("host_cores", Json::Num(host_cores() as f64)),
            ("git_rev", Json::Str(rev)),
        ];
        fields.append(&mut extra);
        fields.push((
            "metrics",
            metrics_json(metrics.iter().map(|(n, u, v)| (n.as_str(), *u, *v))),
        ));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", Json::obj(fields).render()).map_err(|e| format!("{path}: {e}"))?;
    }

    // The driver reads the last line of stdout.
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                metrics_json(
                    metrics
                        .iter()
                        .filter(|(n, ..)| !NOT_IN_RESULT_LINE.contains(&n.as_str()))
                        .map(|(n, u, v)| (n.as_str(), *u, *v))
                ),
            ),
        ])
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload at smoke size, one pass each, plus the failure
/// accounting: a run forced to a 1-event budget must report failures.
fn smoke() -> Result<ExitCode, String> {
    let mut ok = true;
    for name in NAMES {
        let w = Workload::build(name, DEFAULT_SEED, Size::Smoke).expect("NAMES are workloads");
        let e = end_to_end(&w, f64::INFINITY, None);
        let l = layers(&w, None);
        let unattributed = l.metric("bench.unattributed_share").unwrap_or(1.0);
        let good = e.failed == 0 && l.failed == 0 && e.digest == l.digest;
        ok &= good;
        println!(
            "smoke {name:12} cells {:3} failed {}+{} digest {:#018x} traced digest {} \
             unattributed {:.3} {}",
            w.cells.len(),
            e.failed,
            l.failed,
            e.digest,
            if e.digest == l.digest {
                "identical"
            } else {
                "DIFFERS"
            },
            unattributed,
            if good { "ok" } else { "FAILED" }
        );
    }
    let w = Workload::build("fig4_low", DEFAULT_SEED, Size::Smoke).expect("a workload");
    let starved = end_to_end(&w, f64::INFINITY, Some(1));
    let counted = starved.failed == starved.attempted;
    ok &= counted;
    println!(
        "smoke failure accounting: 1-event budget → failed_share {:.3} {}",
        starved.failed as f64 / starved.attempted as f64,
        if counted { "ok" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for n in NAMES {
                println!("{n}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--smoke") => smoke(),
        Some("--compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err(USAGE.into());
            };
            let bad = compare(a, b)?;
            println!("\n{bad} check(s) regressed, unresolved or differing");
            Ok(if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => {
            let a = parse_args(&args)?;
            if a.workload.is_none() {
                return Err(USAGE.into());
            }
            run_workload(&a)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
