//! # dstm-bench — regenerates every table and figure of the evaluation
//!
//! One `harness = false` target, driven by [`ARTIFACTS`]: one entry per
//! `paper_results/*.txt` file. `cargo bench -p dstm-bench` regenerates them
//! all, printing each and writing it under `paper_results/`;
//! `cargo bench -p dstm-bench -- <name>...` regenerates the named ones. Set
//! `DSTM_SCALE=quick` or `DSTM_SCALE=smoke` to run reduced sweeps. Host
//! speed is measured by `benchmark/` alone.
//!
//! This is the only crate that reads the environment: `DSTM_SCALE` and
//! `DSTM_WORKERS` through [`settings`], `DSTM_RESULTS_DIR` through
//! [`results_dir`].

use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::throughput::{self, ThroughputFigure};
use dstm_harness::experiments::{analysis, backoff, nesting, scenarios};
use dstm_harness::experiments::{speedup, table1, threshold, Scale};
use rts_core::SchedulerKind;
use std::path::{Path, PathBuf};

/// What the regeneration takes from the environment.
#[derive(Debug)]
pub struct Settings {
    /// `DSTM_SCALE`: `smoke`, `quick` or `full` (the paper's 10–80 node
    /// sweep, the default).
    pub scale: Scale,
    /// `DSTM_WORKERS`: worker-thread budget for the sweeps, at least 1;
    /// `None` uses the parallelism the OS reports (the `run_cells` default).
    pub workers: Option<usize>,
}

/// The [`Settings`] the environment gives, or the message refusing a value
/// that does not parse.
pub fn settings() -> Result<Settings, String> {
    let var = |name| std::env::var(name).ok();
    parse_settings(var("DSTM_SCALE").as_deref(), var("DSTM_WORKERS").as_deref())
}

/// The values of `DSTM_SCALE` and `DSTM_WORKERS` (`None` when unset) as
/// [`Settings`]. An empty value counts as unset; anything else either
/// parses or is refused with a message naming the variable and the value.
pub fn parse_settings(scale: Option<&str>, workers: Option<&str>) -> Result<Settings, String> {
    Ok(Settings {
        scale: setting("DSTM_SCALE", scale, scale_named)?.unwrap_or_default(),
        workers: setting("DSTM_WORKERS", workers, |v| {
            v.parse().ok().filter(|&n| n > 0)
        })?,
    })
}

/// The sweep size `DSTM_SCALE` names.
fn scale_named(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::smoke()),
        "quick" => Some(Scale::quick()),
        "full" => Some(Scale::default()),
        _ => None,
    }
}

fn setting<T>(
    name: &str,
    value: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match value {
        None | Some("") => Ok(None),
        Some(v) => parse(v)
            .map(Some)
            .ok_or_else(|| format!("{name}: cannot use {v:?}")),
    }
}

/// Where regenerated artifacts are written: `paper_results/` at the
/// workspace root (override with `DSTM_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    results_dir_named(std::env::var("DSTM_RESULTS_DIR").ok().as_deref())
}

/// The directory a `DSTM_RESULTS_DIR` value names. An empty value counts
/// as unset, as it does for the other two variables.
fn results_dir_named(value: Option<&str>) -> PathBuf {
    match value {
        None | Some("") => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../paper_results"),
        Some(dir) => PathBuf::from(dir),
    }
}

impl Settings {
    /// Write `contents` to `dir/<name>.txt` (creating `dir`) under a
    /// one-line provenance header recording the worker-pool width that
    /// produced it. Simulated results are identical at any `workers`
    /// setting — only wall clocks move. Returns the path written, or a
    /// message naming the path that could not be.
    pub fn emit(&self, dir: &Path, name: &str, contents: &str) -> Result<PathBuf, String> {
        let path = dir.join(format!("{name}.txt"));
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        let header = format!(
            "# workers={workers} (host-parallelism knob; simulated results are independent of it)\n"
        );
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, header + contents))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// One file of `paper_results/`: its name and how to produce its text.
pub struct Artifact {
    pub name: &'static str,
    /// What the file's `[S.mmm s]` wall-clock line, if any, counts.
    clock: Clock,
    /// The file's text, up to that line.
    render: Render,
}

type Render = fn(&Settings, &mut Grids) -> String;

/// What an artifact's wall-clock line counts, to the millisecond.
#[derive(Clone, Copy, PartialEq)]
enum Clock {
    /// The file has no wall-clock line.
    None,
    /// The seconds its regeneration took.
    Own,
    /// The seconds its regeneration took plus those of simulating the Fig.
    /// 4/5 grids it summarizes, whether they were simulated for it or for
    /// an artifact before it.
    WithGrids,
}

/// An artifact whose file ends with its wall-clock line.
const fn timed(name: &'static str, render: Render) -> Artifact {
    Artifact {
        name,
        clock: Clock::Own,
        render,
    }
}

/// An artifact that summarizes the Fig. 4/5 grids; its wall-clock line
/// counts their simulation.
const fn summary_of_grids(name: &'static str, render: Render) -> Artifact {
    Artifact {
        name,
        clock: Clock::WithGrids,
        render,
    }
}

/// An artifact whose file has no wall-clock line.
const fn untimed(name: &'static str, render: Render) -> Artifact {
    Artifact {
        name,
        clock: Clock::None,
        render,
    }
}

/// The Fig. 4 and Fig. 5 grids, each simulated at most once per invocation,
/// since Fig. 6 summarizes both.
#[derive(Default)]
struct Grids {
    low: Option<Grid>,
    high: Option<Grid>,
}

/// One simulated grid and the seconds simulating it took.
struct Grid {
    figure: ThroughputFigure,
    secs: f64,
}

impl Grids {
    /// Seconds spent simulating the grids held so far.
    fn secs(&self) -> f64 {
        [&self.low, &self.high]
            .into_iter()
            .flatten()
            .map(|g| g.secs)
            .sum()
    }
}

fn grid<'a>(slot: &'a mut Option<Grid>, s: &Settings, reads: f64) -> &'a ThroughputFigure {
    &slot
        .get_or_insert_with(|| {
            let t0 = std::time::Instant::now();
            let figure = throughput::run(&s.scale, reads, s.workers);
            Grid {
                figure,
                secs: t0.elapsed().as_secs_f64(),
            }
        })
        .figure
}

fn throughput_text(title: &str, fig: &ThroughputFigure) -> String {
    let incomplete = fig.raw.iter().filter(|r| !r.completed).count();
    let cells = fig.raw.len();
    format!(
        "{title}\n\n{}cells: {cells} ({incomplete} incomplete)\n",
        fig.render()
    )
}

const BANK_VACATION_DHT: [Benchmark; 3] = [Benchmark::Bank, Benchmark::Vacation, Benchmark::Dht];

/// The evaluation's regenerated artifacts, in the order a full run writes
/// them; the only list of them in code. Besides Table I and Figs. 2–6: the
/// §III-D makespan analysis (Lemmas 3.2–3.3, Theorem 3.4), the CL-threshold
/// peak of §IV-A, the deadline-slack and base-backoff ablation (DESIGN AB2),
/// and closed vs flat nesting (§I).
pub const ARTIFACTS: [Artifact; 10] = [
    timed("table1_abort_rate", |s, _| {
        let t = table1::run(&s.scale, s.workers);
        let mut out = format!(
            "Table I — Abort rate of nested transactions (nested aborts caused by a parent abort / all nested aborts)\n\
             {} nodes, {} txns/node, 1-50 ms delays\n\n{}\n\
             Mean reduction of the rate under RTS vs TFA: {:.0}% (paper reports ≈60%)\n\n\
             Paper's Table I for comparison (Low RTS/TFA, High RTS/TFA):\n",
            s.scale.table1_nodes,
            s.scale.txns_per_node,
            t.render(),
            100.0 * t.mean_reduction()
        );
        for (b, (lr, lt, hr, ht)) in Benchmark::ALL.iter().zip(table1::PAPER_TABLE1) {
            let label = b.label();
            out += &format!("  {label:<12} {lr:>5.1}% {lt:>5.1}%   {hr:>5.1}% {ht:>5.1}%\n");
        }
        out + "\n"
    }),
    untimed("fig2_tfa_scenario", |_, _| {
        let r = scenarios::run_collision(SchedulerKind::Tfa, 6, 0);
        let title = "Figure 2 — TFA scenario: six writers, one object, no scheduler";
        scenarios::render(title, &r)
            + "\nExpected anatomy: scheduler(lock-busy) aborts > 0 AND validation aborts > 0;\n\
               all six transactions eventually commit and the counter serializes to 6.\n"
    }),
    untimed("fig3_rts_scenario", |_, _| {
        let writers = scenarios::run_collision(SchedulerKind::Rts, 6, 0);
        let readers = scenarios::run_collision(SchedulerKind::Rts, 1, 3);
        let a = "Figure 3(a) — RTS scenario: six writers, one object";
        let b = "Figure 3(b) — RTS scenario: one writer + three readers (read fan-out)";
        scenarios::render(a, &writers)
            + "\n"
            + &scenarios::render(b, &readers)
            + "\nExpected: enqueued > 0 and queue_served > 0 under RTS (parents parked,\n\
               object handed down the queue); readers served concurrently in (b).\n"
    }),
    timed("fig4_throughput_low", |s, g| {
        let title = "Figure 4 — Transactional throughput on LOW contention (90% reads)";
        throughput_text(title, grid(&mut g.low, s, 0.9))
    }),
    timed("fig5_throughput_high", |s, g| {
        let title = "Figure 5 — Transactional throughput on HIGH contention (10% reads)";
        throughput_text(title, grid(&mut g.high, s, 0.1))
    }),
    summary_of_grids("fig6_speedup", |s, g| {
        let low = grid(&mut g.low, s, 0.9);
        let summary = speedup::from_throughput(low, grid(&mut g.high, s, 0.1));
        format!(
            "Figure 6 — Summary of Throughput Speedup (RTS / competitor)\n\n{}\n\
             speedup range: {:.2}x – {:.2}x (paper: up to 1.53x low / 1.88x high)\n",
            summary.render(),
            summary.min_speedup(),
            summary.max_speedup()
        )
    }),
    timed("analysis_makespan", |s, _| {
        analysis::render(&analysis::run(&s.scale.node_counts)) + "\n"
    }),
    timed("ablation_cl_threshold", |s, _| {
        let benchmarks = [Benchmark::Bank, Benchmark::Dht, Benchmark::Vacation];
        let sweeps = threshold::run(
            &s.scale,
            &benchmarks,
            &[2, 4, 8, 16, 32, 64, 128],
            s.workers,
        );
        threshold::render(&sweeps) + "\n"
    }),
    timed("ablation_backoff", |s, _| {
        backoff::render(&backoff::run(&s.scale, s.workers)) + "\n"
    }),
    timed("ablation_nesting", |s, _| {
        nesting::render(&nesting::run(&s.scale, &BANK_VACATION_DHT, s.workers)) + "\n"
    }),
];

/// The artifacts `args` names, in table order; all of them when it names
/// none. `--bench`, which cargo appends, is accepted; any other flag or name
/// is refused with a message listing the known names.
fn select(args: &[String]) -> Result<Vec<&'static Artifact>, String> {
    let names: Vec<&String> = args.iter().filter(|a| *a != "--bench").collect();
    if let Some(bad) = names
        .iter()
        .find(|n| ARTIFACTS.iter().all(|a| a.name != **n))
    {
        let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        return Err(format!(
            "{bad:?} is not an artifact; known: {}",
            known.join(" ")
        ));
    }
    let wanted = |a: &&Artifact| names.is_empty() || names.iter().any(|n| *n == a.name);
    Ok(ARTIFACTS.iter().filter(wanted).collect())
}

/// Regenerate what `args` selects: print each artifact and write it under
/// [`results_dir`]. Settings and names are checked before anything runs;
/// an artifact that cannot be written stops the run.
pub fn regenerate(args: &[String]) -> Result<(), String> {
    let settings = settings()?;
    let selected = select(args)?;
    let (dir, mut grids) = (results_dir(), Grids::default());
    for artifact in selected {
        let (out, _) = render(artifact, &settings, &mut grids);
        println!("{out}");
        let path = settings.emit(&dir, artifact.name, &out)?;
        println!("[written to {}]", path.display());
    }
    Ok(())
}

/// `artifact`'s text, ending with its wall-clock line if it has one, and
/// the seconds that line reports.
fn render(artifact: &Artifact, settings: &Settings, grids: &mut Grids) -> (String, Option<f64>) {
    let simulated_before = grids.secs();
    let t0 = std::time::Instant::now();
    let mut out = (artifact.render)(settings, grids);
    let secs = match artifact.clock {
        Clock::None => return (out, None),
        Clock::Own => t0.elapsed().as_secs_f64(),
        // A grid simulated during this render is in the elapsed time
        // already; one simulated for an earlier artifact is added.
        Clock::WithGrids => t0.elapsed().as_secs_f64() + simulated_before,
    };
    out += &format!("[{secs:.3} s]\n");
    (out, Some(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scale_name_and_worker_count_is_accepted() {
        for (name, table1_nodes) in [("smoke", 8), ("quick", 20), ("full", 80)] {
            let s = parse_settings(Some(name), None).expect(name);
            assert_eq!(s.scale.table1_nodes, table1_nodes, "{name}");
        }
        for n in [1, 4, 64] {
            let s = parse_settings(None, Some(&n.to_string())).expect("a count");
            assert_eq!(s.workers, Some(n));
        }
    }

    #[test]
    fn unset_and_empty_mean_the_defaults() {
        for unset in [None, Some("")] {
            let s = parse_settings(unset, unset).expect("defaults");
            assert_eq!(s.scale.table1_nodes, Scale::default().table1_nodes);
            assert_eq!(s.workers, None);
        }
    }

    #[test]
    fn garbage_is_refused_naming_the_variable_and_the_value() {
        let e = parse_settings(Some("quik"), None).unwrap_err();
        assert!(e.contains("DSTM_SCALE") && e.contains("quik"), "{e}");
        let e = parse_settings(None, Some("four")).unwrap_err();
        assert!(e.contains("DSTM_WORKERS") && e.contains("four"), "{e}");
        assert!(parse_settings(None, Some("-1")).is_err());
        // The pool would run one worker while the header recorded 0.
        let e = parse_settings(None, Some("0")).unwrap_err();
        assert!(e.contains("DSTM_WORKERS") && e.contains("\"0\""), "{e}");
        assert!(
            parse_settings(Some("Quick"), None).is_err(),
            "names are exact"
        );
        // `large` named a 160–10k-node preset that no table used.
        assert!(parse_settings(Some("large"), None).is_err());
    }

    #[test]
    fn an_empty_results_dir_means_paper_results() {
        let default = results_dir_named(None);
        assert!(default.ends_with("paper_results"), "{}", default.display());
        assert_eq!(results_dir_named(Some("")), default);
        assert_eq!(results_dir_named(Some("regen")), PathBuf::from("regen"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn names(selected: &[&Artifact]) -> Vec<&'static str> {
        selected.iter().map(|a| a.name).collect()
    }

    #[test]
    fn no_name_selects_every_artifact_and_names_select_in_table_order() {
        let all = names(&ARTIFACTS.iter().collect::<Vec<_>>());
        assert_eq!(names(&select(&args(&[])).unwrap()), all);
        assert_eq!(names(&select(&args(&["--bench"])).unwrap()), all);
        let picked = select(&args(&["fig6_speedup", "--bench", "fig2_tfa_scenario"])).unwrap();
        assert_eq!(names(&picked), ["fig2_tfa_scenario", "fig6_speedup"]);
    }

    #[test]
    fn an_unknown_name_or_flag_is_refused_listing_the_known_names() {
        for bad in ["fig7", "--scale", "-q", "FIG2_TFA_SCENARIO"] {
            let Err(e) = select(&args(&["fig2_tfa_scenario", bad])) else {
                panic!("{bad} was accepted");
            };
            assert!(
                e.starts_with(&format!("\"{bad}\" is not an artifact")),
                "{e}"
            );
            assert!(ARTIFACTS.iter().all(|a| e.contains(a.name)), "{e}");
        }
    }

    fn named(name: &str) -> &'static Artifact {
        ARTIFACTS
            .iter()
            .find(|a| a.name == name)
            .expect("an artifact")
    }

    /// Fig. 6's wall-clock line counts the simulation of both grids it
    /// summarizes, whether Figs. 4 and 5 simulated them earlier in the
    /// invocation (it read `[0.000 s]` then) or it simulated them itself.
    #[test]
    fn figure_6_counts_the_grids_it_summarizes() {
        let settings = parse_settings(Some("smoke"), Some("1")).unwrap();
        let fig6_secs = |grids: &mut Grids| {
            let (text, secs) = render(named("fig6_speedup"), &settings, grids);
            let secs = secs.expect("Fig. 6 is timed");
            assert!(text.ends_with(&format!("[{secs:.3} s]\n")), "{text}");
            secs
        };

        // A full run, in table order: Figs. 4 and 5 come first.
        let (mut grids, mut checked) = (Grids::default(), false);
        for artifact in select(&[]).unwrap() {
            if artifact.name == "fig6_speedup" {
                let both = grids.secs();
                assert!(grids.low.is_some() && grids.high.is_some() && both > 0.0);
                assert!(fig6_secs(&mut grids) >= both);
                assert_eq!(grids.secs(), both, "Fig. 6 reused the grids");
                checked = true;
            } else {
                render(artifact, &settings, &mut grids);
            }
        }
        assert!(checked);

        let mut alone = Grids::default();
        let secs = fig6_secs(&mut alone);
        assert!(alone.low.is_some() && alone.high.is_some());
        assert!(secs >= alone.secs());
    }

    #[test]
    fn the_table_and_the_committed_results_name_the_same_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../paper_results");
        let mut committed: Vec<String> = std::fs::read_dir(&dir)
            .expect("paper_results/")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .into_string()
                    .unwrap()
            })
            .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
            .collect();
        committed.sort();
        let mut table: Vec<String> = ARTIFACTS.iter().map(|a| a.name.to_string()).collect();
        table.sort();
        table.dedup();
        assert_eq!(table.len(), ARTIFACTS.len(), "a name appears twice");
        assert_eq!(table, committed);
    }

    #[test]
    fn an_artifact_that_cannot_be_written_is_an_error_naming_its_path() {
        let dir = std::env::temp_dir().join(format!("dstm-bench-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let file = dir.join("a-file");
        std::fs::write(&file, "").expect("scratch file");
        let settings = parse_settings(None, Some("1")).unwrap();
        let e = settings
            .emit(&file.join("sub"), "fig2_tfa_scenario", "x\n")
            .unwrap_err();
        let wanted = file.join("sub").join("fig2_tfa_scenario.txt");
        assert!(
            e.starts_with(&format!("cannot write {}", wanted.display())),
            "{e}"
        );
        let path = settings
            .emit(&dir, "fig2_tfa_scenario", "x\n")
            .expect("a directory");
        let written = std::fs::read_to_string(&path).expect("written");
        assert_eq!(written.lines().collect::<Vec<_>>()[1..], ["x"]);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
