//! Self-tests of the benchmark (`cargo test --manifest-path
//! benchmark/Cargo.toml`): the wrappers are pass-through, the ledger
//! reconciles, cache-only handlers stay silent with the cache off, the
//! environment cannot change a workload, `BENCHMARK.json` states the pass
//! counts, and `--smoke` exercises every code path including the failure
//! accounting.

use dstm_benchmarks::Benchmark;
use dstm_e2e_bench::json::Json;
use dstm_e2e_bench::layers::layers;
use dstm_e2e_bench::workloads::{Size, Workload, DEFAULT_SEED, NAMES};
use dstm_harness::experiments::SCHEDULERS;
use dstm_harness::Cell;
use std::process::Command;

/// A 4-node cell of every benchmark × scheduler.
fn tiny_grid() -> Workload {
    let mut cells = Vec::new();
    for b in Benchmark::ALL {
        for s in SCHEDULERS {
            let mut cell = Cell::new(b, s, 4, 0.5)
                .with_txns(4)
                .with_shards(1)
                .with_cache(false)
                .with_seed(DEFAULT_SEED);
            cell.params.objects_per_node = 4;
            cells.push(cell);
        }
    }
    Workload {
        name: "fig4_low",
        cells,
        passes: 1,
        observe: false,
    }
}

#[test]
fn timed_wrappers_are_pass_through_and_the_ledger_reconciles() {
    let l = layers(&tiny_grid(), None);
    assert_eq!(l.failed, 0, "a tiny cell failed a check");
    assert_eq!(
        l.traced_digest, l.digest,
        "TimedQueue/TimedProgram (or build_traced) changed the simulated behaviour"
    );

    // Layer self times + the benchmark's own shares + the unattributed
    // remainder make up the traced pass's wall within 2 %.
    let accounted: f64 = l.self_times.iter().map(|(_, ns)| ns).sum::<f64>() + l.unattributed_ns;
    let off = (accounted - l.wall_ns).abs() / l.wall_ns;
    assert!(
        off <= 0.02,
        "ledger sums to {accounted:.0} ns of a {:.0} ns pass ({:.2} % off)",
        l.wall_ns,
        off * 100.0
    );
    let share = l.metric("bench.unattributed_share").unwrap();
    assert!((0.0..1.0).contains(&share), "unattributed share {share}");
}

#[test]
fn cache_only_handlers_are_silent_with_the_cache_off() {
    let count = |w: &str, tag: &str| {
        let w = Workload::build(w, DEFAULT_SEED, Size::Smoke).unwrap();
        let l = layers(&w, None);
        assert_eq!(l.failed, 0);
        l.metric(&format!("hyflow.node.msg.{tag}.count")).unwrap()
    };
    for tag in ["VersionReq", "VersionAck", "Batch"] {
        assert_eq!(count("fig4_low", tag), 0.0, "{tag} on a cache-off workload");
    }
    assert!(
        count("cache_40", "VersionReq") > 0.0,
        "cache_40 never revalidated"
    );
}

/// `BENCHMARK.json` may hold no pass-count key, so each workload's `why`
/// states its fixed N; this keeps the two from drifting apart.
#[test]
fn benchmark_json_states_each_workloads_pass_count() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = json.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), NAMES.len());
    for (entry, name) in listed.iter().zip(NAMES) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
        let why = entry.get("why").and_then(Json::as_str).unwrap();
        let n = Workload::build(name, DEFAULT_SEED, Size::Full)
            .unwrap()
            .passes;
        assert!(why.contains(&format!("{n} timed passes")), "{name}: {why}");
    }
}

fn smoke(env: &[(&str, &str)]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_dstm-e2e-bench"))
        .arg("--smoke")
        .envs(env.iter().copied())
        .output()
        .expect("the benchmark binary runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "--smoke failed:\n{text}");
    // `smoke <workload> … digest <hex> …`
    text.lines()
        .filter_map(|l| l.split("digest ").nth(1))
        .map(|rest| rest.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_passes_and_the_environment_cannot_change_a_workload() {
    let plain = smoke(&[]);
    assert_eq!(plain.len(), 5, "one digest per workload");
    let perturbed = smoke(&[
        ("DSTM_SHARDS", "4"),
        ("DSTM_CACHE", "1"),
        ("DSTM_PARTITION", "locality"),
        ("DSTM_SCALE", "full"),
        ("DSTM_WORKERS", "7"),
    ]);
    assert_eq!(plain, perturbed, "an environment variable moved a digest");
}
