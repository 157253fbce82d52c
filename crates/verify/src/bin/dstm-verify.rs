//! `dstm-verify` — deterministic-simulation fuzzer and small-model
//! protocol checker.
//!
//! ```text
//! dstm-verify check  [--scheduler tfa|backoff|rts|all] [--nodes N]
//!                    [--objects K] [--no-cache] [--parent-scope]
//!                    [--max-states N] [--max-depth N]
//! dstm-verify fuzz   [--episodes N] [--seed S] [--benchmark NAME]
//!                    [--scheduler NAME] [--nodes N] [--txns N]
//!                    [--no-cache] [--no-telemetry] [--out FILE]
//! dstm-verify replay FILE
//! ```
//!
//! Exit status: 0 clean, 1 violation found (fuzz also writes the shrunk
//! reproducer to `--out`, default `verify-reproducer.txt`), 2 usage error —
//! an unknown flag, a stray argument, a missing or unparsable value, a count
//! no run can use (`check` needs 2 nodes and an object, `fuzz` and `replay`
//! 1..=`dstm_sim::MAX_ACTORS` nodes and a transaction): one `dstm-verify:`
//! line and the usage on stderr, and nothing is run. A flag
//! that is dropped instead selects a different model (`--parent-scop` the
//! child-scope one) whose clean run exits 0.

use std::process::ExitCode;

use dstm_verify::{
    check_model_with, fuzz, parse_reproducer, reproducer_text, run_episode, CheckReport,
    EpisodeSpec, FuzzConfig, ModelCfg,
};
use rts_core::SchedulerKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("missing subcommand");
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "--help" | "-h" | "help" => {
            eprint!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}

const USAGE: &str = "\
usage:
  dstm-verify check  [--scheduler tfa|backoff|rts|all] [--nodes N] [--objects K]
                     [--no-cache] [--parent-scope] [--max-states N] [--max-depth N]
  dstm-verify fuzz   [--episodes N] [--seed S] [--benchmark NAME] [--scheduler NAME]
                     [--nodes N] [--txns N] [--no-cache] [--no-telemetry] [--out FILE]
  dstm-verify replay FILE
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("dstm-verify: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The value that must follow `flag`: the next argument, unless that is a
/// flag itself.
fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    match it.as_slice().first() {
        Some(v) if !v.starts_with("--") => {
            it.next();
            Ok(v)
        }
        _ => Err(format!("{flag} needs a value")),
    }
}

/// The value that must follow `flag`, through `parse`.
fn parsed<T>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let v = value(flag, it)?;
    parse(v).ok_or_else(|| format!("bad value for {flag}: `{v}`"))
}

fn number<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// What an argument no `match` arm of its subcommand names is refused with.
fn unknown(arg: &str) -> String {
    if arg.starts_with("--") {
        format!("unknown flag `{arg}`")
    } else {
        format!("unexpected argument `{arg}`")
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(Vec<SchedulerKind>, ModelCfg), String> {
        let mut cfg = ModelCfg::default();
        // Default and `all`: the paper's three schedulers.
        let all = vec![
            SchedulerKind::Tfa,
            SchedulerKind::TfaBackoff,
            SchedulerKind::Rts,
        ];
        let mut schedulers = all.clone();
        let (mut max_states, mut max_depth) = (None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scheduler" => {
                    schedulers = parsed(flag, &mut it, |v| match v {
                        "all" => Some(all.clone()),
                        one => SchedulerKind::from_name(one).map(|s| vec![s]),
                    })?;
                }
                "--nodes" => cfg.nodes = parsed(flag, &mut it, number)?,
                "--objects" => cfg.objects = parsed(flag, &mut it, number)?,
                "--max-states" => max_states = Some(parsed(flag, &mut it, number)?),
                "--max-depth" => max_depth = Some(parsed(flag, &mut it, number)?),
                "--no-cache" => cfg.cache = false,
                "--parent-scope" => cfg.parent_scope = true,
                other => return Err(unknown(other)),
            }
        }
        // Parent scope is unbounded by construction; default to caps that
        // finish in CI time rather than the exhaustive-sweep ones.
        let (states_cap, depth_cap) = if cfg.parent_scope {
            (20_000, 150)
        } else {
            (cfg.max_states, cfg.max_depth)
        };
        cfg.max_states = max_states.unwrap_or(states_cap);
        cfg.max_depth = max_depth.unwrap_or(depth_cap);
        cfg.validate().map_err(|e| format!("--{e}"))?;
        Ok((schedulers, cfg))
    })();
    let (schedulers, base) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };

    let mut failed = false;
    for s in schedulers {
        let cfg = ModelCfg {
            scheduler: s,
            ..base
        };
        println!(
            "checking {} on {} nodes x {} objects (cache {}, {} scope) ...",
            s.name(),
            cfg.nodes,
            cfg.objects,
            if cfg.cache { "on" } else { "off" },
            if cfg.parent_scope { "parent" } else { "child" }
        );
        let report = check_model_with(&cfg, |states, frontier| {
            eprintln!("  ... {states} states expanded, frontier {frontier}");
        });
        print_check_report(s, &report);
        failed |= !report.ok();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_check_report(s: SchedulerKind, r: &CheckReport) {
    println!(
        "{}: {} states, {} transitions, {} terminals, {} deduped, depth {} — {}",
        s.name(),
        r.explored,
        r.transitions,
        r.terminals,
        r.deduped,
        r.max_depth_seen,
        if r.complete {
            "state space exhausted"
        } else {
            "BOUNDED (hit a cap; coverage incomplete)"
        }
    );
    println!(
        "{}: conflict coverage: max {} aborts / {} enqueues in any explored state",
        s.name(),
        r.max_aborts_seen,
        r.max_enqueued_seen
    );
    if r.ok() {
        println!("{}: no invariant violations", s.name());
    } else {
        for v in &r.violations {
            println!("{}: VIOLATION: {v}", s.name());
        }
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(EpisodeSpec, FuzzConfig, String), String> {
        let mut spec = EpisodeSpec::default();
        let mut cfg = FuzzConfig::default();
        let mut out = "verify-reproducer.txt".to_string();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--benchmark" => {
                    spec.benchmark = parsed(flag, &mut it, dstm_benchmarks::Benchmark::from_name)?;
                }
                "--scheduler" => spec.scheduler = parsed(flag, &mut it, SchedulerKind::from_name)?,
                "--nodes" => spec.nodes = parsed(flag, &mut it, number)?,
                "--txns" => spec.txns = parsed(flag, &mut it, number)?,
                "--episodes" => cfg.episodes = parsed(flag, &mut it, number)?,
                "--seed" => cfg.base_seed = parsed(flag, &mut it, number)?,
                "--out" => out = value(flag, &mut it)?.to_string(),
                "--no-cache" => spec.cache = false,
                "--no-telemetry" => spec.telemetry = false,
                other => return Err(unknown(other)),
            }
        }
        spec.validate().map_err(|e| format!("--{e}"))?;
        Ok((spec, cfg, out))
    })();
    let (spec, cfg, out) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };

    println!(
        "fuzzing {} episodes: {} / {} / {} nodes x {} txns (seed {:#x})",
        cfg.episodes,
        spec.benchmark.label(),
        spec.scheduler.name(),
        spec.nodes,
        spec.txns,
        cfg.base_seed
    );
    let report = fuzz(&spec, &cfg, |i, outcome| {
        if (i + 1) % 50 == 0 {
            eprintln!(
                "  ... episode {} ok (digest {:#018x})",
                i + 1,
                outcome.digest
            );
        }
    });
    match report.failure {
        None => {
            println!("{} episodes, no violations", report.episodes_run);
            ExitCode::SUCCESS
        }
        Some(f) => {
            println!(
                "episode {} FAILED; shrunk {} -> {} perturbations in {} reruns",
                report.episodes_run,
                f.original.perturbations.len(),
                f.shrunk.perturbations.len(),
                f.shrink_reruns
            );
            for v in &f.violations {
                println!("VIOLATION: {v}");
            }
            let blob = reproducer_text(&spec, &f.shrunk);
            match std::fs::write(&out, &blob) {
                Ok(()) => println!("reproducer written to {out} (dstm-verify replay {out})"),
                Err(e) => eprintln!("could not write reproducer {out}: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let path = match args {
        [path] if !path.starts_with("--") => path,
        [] => return usage("replay needs a reproducer file"),
        [_, extra, ..] => return usage(&unknown(extra)),
        [flag] => return usage(&unknown(flag)),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage(&format!("cannot read {path}: {e}")),
    };
    let (spec, schedule) = match parse_reproducer(&text) {
        Ok(p) => p,
        Err(e) => return usage(&format!("bad reproducer {path}: {e}")),
    };
    println!(
        "replaying {} / {} / {} nodes x {} txns, seed {:#x}, {} perturbations",
        spec.benchmark.label(),
        spec.scheduler.name(),
        spec.nodes,
        spec.txns,
        schedule.seed,
        schedule.perturbations.len()
    );
    let outcome = run_episode(&spec, &schedule);
    println!(
        "digest {:#018x}, {} commits, {} pushes / {} pops",
        outcome.digest, outcome.commits, outcome.pushes, outcome.pops
    );
    if outcome.ok() {
        println!("no violations");
        ExitCode::SUCCESS
    } else {
        for v in &outcome.violations {
            println!("VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
