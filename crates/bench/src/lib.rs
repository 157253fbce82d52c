//! # dstm-bench — regeneration targets for every table and figure
//!
//! Each `cargo bench -p dstm-bench --bench <target>` regenerates one
//! artifact of the paper's evaluation (printing the table/series and writing
//! it under `paper_results/`). Set `DSTM_SCALE=quick` or `DSTM_SCALE=smoke`
//! to run reduced sweeps. Host speed is measured by `benchmark/` alone.
//!
//! This is the only crate that reads the environment: `DSTM_SCALE` and
//! `DSTM_WORKERS` through [`settings`], `DSTM_RESULTS_DIR` through
//! [`results_dir`].

use dstm_harness::experiments::Scale;
use std::io::Write as _;
use std::path::PathBuf;

/// What a regeneration target takes from the environment.
#[derive(Debug)]
pub struct Settings {
    /// `DSTM_SCALE`: `smoke`, `quick`, `full` (the paper's 10–80 node
    /// sweep, the default) or `large` (160–10k nodes, hashed topology).
    pub scale: Scale,
    /// `DSTM_WORKERS`: worker-thread budget for the sweeps; `None` uses the
    /// parallelism the OS reports (the `run_cells` default).
    pub workers: Option<usize>,
}

/// The target's [`Settings`]. Call it first: a value that does not parse
/// ends the program with one `error:` line and exit status 2, before
/// anything runs or is written.
pub fn settings() -> Settings {
    let var = |name| std::env::var(name).ok();
    match parse_settings(var("DSTM_SCALE").as_deref(), var("DSTM_WORKERS").as_deref()) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The values of `DSTM_SCALE` and `DSTM_WORKERS` (`None` when unset) as
/// [`Settings`]. An empty value counts as unset; anything else either
/// parses or is refused with a message naming the variable and the value.
pub fn parse_settings(scale: Option<&str>, workers: Option<&str>) -> Result<Settings, String> {
    Ok(Settings {
        scale: setting("DSTM_SCALE", scale, Scale::from_name)?.unwrap_or_default(),
        workers: setting("DSTM_WORKERS", workers, |v| v.parse().ok())?,
    })
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
    let path = match std::env::var("DSTM_RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("paper_results"),
    };
    let _ = std::fs::create_dir_all(&path);
    path
}

impl Settings {
    /// Print a regenerated artifact and persist it for EXPERIMENTS.md.
    ///
    /// Every file gets a one-line provenance header recording the
    /// worker-pool width that produced it, so numbers in `paper_results/`
    /// are attributable to a host configuration. Simulated results are
    /// identical at any `workers` setting — only wall clocks move.
    pub fn emit(&self, name: &str, contents: &str) {
        println!("{contents}");
        let path = results_dir().join(format!("{name}.txt"));
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        let header = format!(
            "# workers={workers} (host-parallelism knob; simulated results are independent of it)\n"
        );
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let _ = f.write_all(header.as_bytes());
                let _ = f.write_all(contents.as_bytes());
                println!("[written to {}]", path.display());
            }
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scale_name_and_worker_count_is_accepted() {
        for (name, table1_nodes) in [("smoke", 8), ("quick", 20), ("full", 80), ("large", 160)] {
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
        assert!(
            parse_settings(Some("Quick"), None).is_err(),
            "names are exact"
        );
    }
}
