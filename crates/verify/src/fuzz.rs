//! The DST fuzz loop: generate perturbation schedules, run episodes,
//! shrink failures to a minimal on-disk reproducer.
//!
//! Episode `i` derives its seed and its perturbations from one master
//! seed, so a whole campaign is replayable from `(spec, base_seed)` alone.
//! Perturbation step indices are drawn inside the step space the baseline
//! run actually covers (measured by a dry run per seed), so schedules
//! land on real pushes/pops instead of dead tail indices.
//!
//! Shrinking is ddmin-lite over the perturbation list: try dropping
//! contiguous chunks (halving the chunk size down to single entries), then
//! try halving each survivor's magnitude (`extra_ns`, tie `rank`), keeping
//! any candidate that still fails. The loop re-runs the full episode per
//! candidate and is budget-bounded, so a pathological failure still
//! terminates with *some* smaller reproducer.

use crate::episode::{run_episode, run_episode_mutated, EpisodeOutcome, EpisodeSpec};
use dstm_benchmarks::Benchmark;
use dstm_sim::{Perturb, Schedule, SimRng};
use rts_core::SchedulerKind;

/// Fuzz campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    pub episodes: u64,
    pub base_seed: u64,
    /// Upper bound on perturbations per generated schedule.
    pub max_perturbations: usize,
    /// Episode re-runs the shrinker may spend per failure.
    pub shrink_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            episodes: 200,
            base_seed: 0xF0CC_ED51,
            max_perturbations: 24,
            shrink_budget: 400,
        }
    }
}

/// A failed episode, after shrinking.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The schedule as generated.
    pub original: Schedule,
    /// The smallest still-failing schedule the shrinker found.
    pub shrunk: Schedule,
    /// Oracle failures of the *shrunk* schedule.
    pub violations: Vec<String>,
    /// Episode re-runs the shrinker spent.
    pub shrink_reruns: u64,
}

/// Campaign outcome: episodes run, and the first failure (shrunk) if any.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub episodes_run: u64,
    pub failure: Option<FuzzFailure>,
}

/// Generate episode `i`'s schedule for a campaign: seed from the master
/// seed, perturbation steps drawn within the baseline run's measured
/// push/pop space.
pub fn generate_schedule(cfg: &FuzzConfig, baseline: &EpisodeOutcome, i: u64) -> Schedule {
    let seed = dstm_sim::mix64(cfg.base_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = SimRng::new(seed);
    let n = 1 + (rng.next() as usize) % cfg.max_perturbations.max(1);
    let mut perturbations = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.next().is_multiple_of(2) {
            perturbations.push(Perturb::Delay {
                push_step: rng.next() % baseline.pushes.max(1),
                // Up to one full round trip of the paper's slowest link.
                extra_ns: rng.next() % 100_000_000,
            });
        } else {
            perturbations.push(Perturb::TieSwap {
                pop_step: rng.next() % baseline.pops.max(1),
                rank: 1 + rng.next() % 3,
            });
        }
    }
    Schedule {
        seed,
        perturbations,
    }
}

/// Run a fuzz campaign. Stops at the first failing episode, shrinks it,
/// and returns the report; `progress` is called once per episode.
pub fn fuzz(
    spec: &EpisodeSpec,
    cfg: &FuzzConfig,
    mut progress: impl FnMut(u64, &EpisodeOutcome),
) -> FuzzReport {
    fuzz_mutated(spec, cfg, &|_, _| {}, &mut progress)
}

/// [`fuzz`] with the episode-level trace-mutation hook exposed (see
/// [`run_episode_mutated`]); the hook also applies during shrinking, so a
/// seeded bug shrinks exactly like a real one.
pub fn fuzz_mutated(
    spec: &EpisodeSpec,
    cfg: &FuzzConfig,
    mutate: &dyn Fn(&Schedule, &mut hyflow_dstm::TraceLog),
    progress: &mut dyn FnMut(u64, &EpisodeOutcome),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.episodes {
        // Dry run with no perturbations to measure this seed's step space.
        let seed = dstm_sim::mix64(cfg.base_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let baseline = run_episode(
            spec,
            &Schedule {
                seed,
                perturbations: Vec::new(),
            },
        );
        let schedule = generate_schedule(cfg, &baseline, i);
        let outcome = run_episode_mutated(spec, &schedule, mutate);
        report.episodes_run += 1;
        progress(i, &outcome);
        if !outcome.ok() {
            let fails = |s: &Schedule| -> bool { !run_episode_mutated(spec, s, mutate).ok() };
            let (shrunk, shrink_reruns) = shrink_schedule(&schedule, &fails, cfg.shrink_budget);
            let violations = run_episode_mutated(spec, &shrunk, mutate).violations;
            report.failure = Some(FuzzFailure {
                original: schedule,
                shrunk,
                violations,
                shrink_reruns,
            });
            return report;
        }
    }
    report
}

/// ddmin-lite: minimize `failing`'s perturbation list (then its
/// magnitudes) while `still_fails` holds, spending at most `budget`
/// episode re-runs. Returns the smallest still-failing schedule found and
/// the re-runs spent.
pub fn shrink_schedule(
    failing: &Schedule,
    still_fails: &dyn Fn(&Schedule) -> bool,
    budget: u64,
) -> (Schedule, u64) {
    let mut best = failing.clone();
    let mut spent = 0u64;
    let try_candidate = |cand: &Schedule, spent: &mut u64| -> bool {
        if *spent >= budget {
            return false;
        }
        *spent += 1;
        still_fails(cand)
    };

    // Phase 1: drop contiguous chunks, chunk size halving to 1.
    let mut chunk = best.perturbations.len().max(1).div_ceil(2);
    while chunk >= 1 && spent < budget {
        let mut reduced = false;
        let mut start = 0;
        while start < best.perturbations.len() && spent < budget {
            let end = (start + chunk).min(best.perturbations.len());
            let mut cand = best.clone();
            cand.perturbations.drain(start..end);
            if try_candidate(&cand, &mut spent) {
                best = cand;
                reduced = true;
                // Same `start` now names the next chunk; don't advance.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        if !reduced {
            chunk /= 2;
        }
    }

    // Phase 2: halve magnitudes of the survivors toward their minimum.
    let mut changed = true;
    while changed && spent < budget {
        changed = false;
        for i in 0..best.perturbations.len() {
            loop {
                let smaller = match best.perturbations[i] {
                    Perturb::Delay {
                        push_step,
                        extra_ns,
                    } if extra_ns > 1 => Some(Perturb::Delay {
                        push_step,
                        extra_ns: extra_ns / 2,
                    }),
                    Perturb::TieSwap { pop_step, rank } if rank > 1 => Some(Perturb::TieSwap {
                        pop_step,
                        rank: rank / 2,
                    }),
                    _ => None,
                };
                let Some(smaller) = smaller else { break };
                let mut cand = best.clone();
                cand.perturbations[i] = smaller;
                if try_candidate(&cand, &mut spent) {
                    best = cand;
                    changed = true;
                } else {
                    break;
                }
                if spent >= budget {
                    break;
                }
            }
        }
    }

    (best, spent)
}

// ---------------------------------------------------------------------------
// Reproducer files
// ---------------------------------------------------------------------------

/// Render a failure as a self-contained reproducer blob: the episode spec
/// followed by the [`Schedule::to_text`] lines. `dstm-verify replay`
/// parses this back with [`parse_reproducer`].
pub fn reproducer_text(spec: &EpisodeSpec, schedule: &Schedule) -> String {
    let mut out = String::from("# dstm-verify reproducer\n");
    out.push_str(&format!(
        "benchmark {}\n",
        spec.benchmark
            .label()
            .to_ascii_lowercase()
            .replace(' ', "-")
    ));
    out.push_str(&format!("scheduler {}\n", spec.scheduler.name()));
    out.push_str(&format!("nodes {}\n", spec.nodes));
    out.push_str(&format!("txns {}\n", spec.txns));
    out.push_str(&format!(
        "cache {}\n",
        if spec.cache { "on" } else { "off" }
    ));
    out.push_str(&format!(
        "telemetry {}\n",
        if spec.telemetry { "on" } else { "off" }
    ));
    out.push_str(&schedule.to_text());
    out
}

/// Parse [`reproducer_text`] output back into a spec + schedule. A spec
/// that fails [`EpisodeSpec::validate`] is an error, like the flags of
/// `dstm-verify fuzz` that would produce it.
pub fn parse_reproducer(text: &str) -> Result<(EpisodeSpec, Schedule), String> {
    let mut spec = EpisodeSpec::default();
    let mut schedule_lines = String::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let word = it.next().unwrap_or_default();
        let arg = it.next().unwrap_or_default();
        let bad = |what: &str| format!("line {}: bad {what}: `{arg}`", ln + 1);
        match word {
            "benchmark" => {
                spec.benchmark = Benchmark::from_name(arg).ok_or_else(|| bad("benchmark"))?;
            }
            "scheduler" => {
                spec.scheduler = SchedulerKind::from_name(arg).ok_or_else(|| bad("scheduler"))?;
            }
            "nodes" => spec.nodes = arg.parse().map_err(|_| bad("node count"))?,
            "txns" => spec.txns = arg.parse().map_err(|_| bad("txn count"))?,
            "cache" => spec.cache = on_off(arg).ok_or_else(|| bad("cache flag"))?,
            "telemetry" => spec.telemetry = on_off(arg).ok_or_else(|| bad("telemetry flag"))?,
            // Everything else is the schedule's business (including its
            // own unknown-directive error).
            _ => {
                schedule_lines.push_str(raw);
                schedule_lines.push('\n');
            }
        }
    }
    spec.validate()?;
    let schedule = Schedule::from_text(&schedule_lines)?;
    Ok((spec, schedule))
}

fn on_off(s: &str) -> Option<bool> {
    match s {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}
