//! §III-D makespan analysis — bounds vs simulation.
//!
//! Regenerates the analysis as a table: for each `N`, the Lemma 3.2 bound
//! for scheduler B (abort-and-retry), the Lemma 3.3 bound for RTS (object
//! handed down the queue), the relative competitive ratio of the bounds
//! (Theorem 3.4: `< 1` for `N ≥ 3`), and the *measured* makespans of the
//! worst-case workload — `N` transactions on `N` nodes all updating one
//! shared object — under TFA and RTS.

use crate::table::TextTable;
use dstm_net::Topology;
use dstm_sim::{ActorId, SimDuration, SimRng};
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{BoxedProgram, DstmConfig, Payload, SystemBuilder, WorkloadSource};
use rts_core::analysis::{makespan_b_bound, makespan_rts_bound, rcr_bound, theorem_3_4_holds};
use rts_core::{ObjectId, SchedulerKind, TxKind};

/// One row: analysis + measurement at node count `n`.
#[derive(Clone, Debug)]
pub struct AnalysisRow {
    pub n: usize,
    pub bound_b_ms: f64,
    pub bound_rts_ms: f64,
    pub rcr_bound: f64,
    pub theorem_holds: bool,
    pub sim_tfa_ms: f64,
    pub sim_rts_ms: f64,
    pub rcr_sim: f64,
}

/// Local execution time per transaction in the worst-case workload.
const GAMMA: SimDuration = SimDuration::from_millis(2);

fn worst_case_makespan(topo: &Topology, oid: ObjectId, scheduler: SchedulerKind) -> f64 {
    let n = topo.n();
    let cfg = DstmConfig {
        scheduler,
        concurrency_per_node: 1,
        ..DstmConfig::default()
    };
    let programs: Vec<Vec<BoxedProgram>> = (0..n)
        .map(|i| {
            if i == 0 {
                // The object's home runs nothing; it only serves.
                Vec::new()
            } else {
                vec![Box::new(ScriptProgram::new(
                    TxKind(1),
                    vec![
                        ScriptOp::Write(oid),
                        ScriptOp::AddScalar(oid, 1),
                        ScriptOp::Compute(GAMMA),
                    ],
                )) as BoxedProgram]
            }
        })
        .collect();
    let mut system = SystemBuilder::new(topo.clone(), cfg)
        .seed(13)
        .build(WorkloadSource {
            objects: vec![(oid, Payload::Scalar(0))],
            programs,
        });
    let metrics = system.run(20_000_000);
    assert!(system.all_done(), "worst-case workload stalled at n={n}");
    assert_eq!(metrics.merged.commits as usize, n - 1, "lost commits");
    metrics.elapsed.as_nanos() as f64 / 1e6
}

/// Run the analysis experiment over the given node counts.
pub fn run(node_counts: &[usize]) -> Vec<AnalysisRow> {
    let mut rows = Vec::new();
    for &n in node_counts {
        let mut rng = SimRng::new(42);
        let topo = Topology::metric_plane(n, 40.0, 1, &mut rng);
        let home = ActorId(0);
        let gammas = vec![GAMMA; n];
        let order = topo.nearest_neighbour_tour(home);
        let oid = super::scenarios::oid_homed_at(0, n);
        let sim_tfa_ms = worst_case_makespan(&topo, oid, SchedulerKind::Tfa);
        let sim_rts_ms = worst_case_makespan(&topo, oid, SchedulerKind::Rts);
        rows.push(AnalysisRow {
            n,
            bound_b_ms: makespan_b_bound(&topo, home, &gammas) as f64 / 1e6,
            bound_rts_ms: makespan_rts_bound(&topo, home, &order, &gammas) as f64 / 1e6,
            rcr_bound: rcr_bound(&topo, home, &gammas),
            theorem_holds: theorem_3_4_holds(&topo, home, &gammas),
            sim_tfa_ms,
            sim_rts_ms,
            rcr_sim: if sim_tfa_ms > 0.0 {
                sim_rts_ms / sim_tfa_ms
            } else {
                0.0
            },
        });
    }
    rows
}

pub fn render(rows: &[AnalysisRow]) -> String {
    let mut t = TextTable::new(vec![
        "N",
        "bound B (ms)",
        "bound RTS (ms)",
        "RCR bound",
        "Thm 3.4",
        "sim TFA (ms)",
        "sim RTS (ms)",
        "RCR sim",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            format!("{:.1}", r.bound_b_ms),
            format!("{:.1}", r.bound_rts_ms),
            format!("{:.3}", r.rcr_bound),
            if r.theorem_holds { "holds" } else { "VIOLATED" }.to_string(),
            format!("{:.1}", r.sim_tfa_ms),
            format!("{:.1}", r.sim_rts_ms),
            format!("{:.3}", r.rcr_sim),
        ]);
    }
    format!(
        "Makespan analysis (Lemmas 3.2–3.3, Theorem 3.4) vs worst-case simulation\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_rows_and_theorem() {
        let rows = run(&[4, 8]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.theorem_holds, "theorem violated at n={}", r.n);
            assert!(r.bound_rts_ms < r.bound_b_ms);
            assert!(r.sim_tfa_ms > 0.0 && r.sim_rts_ms > 0.0);
            // The bounds are worst-case: the simulation must come in under
            // the *B* bound under either scheduler.
            assert!(
                r.sim_tfa_ms <= r.bound_b_ms * 1.5,
                "TFA sim far above bound"
            );
        }
        assert!(render(&rows).contains("Thm 3.4"));
    }
}
