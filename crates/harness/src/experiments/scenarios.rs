//! Scripted reproductions of the paper's illustrative figures.
//!
//! * **Fig. 2** — the TFA abort anatomy: six write transactions race for
//!   one object; the first committer's validation makes earlier requesters
//!   fail their own validation (abort kind 1) and makes concurrent
//!   requesters hit the locked object (abort kind 2).
//! * **Fig. 3** — the RTS scheduling scenario: under the same collision
//!   pattern, conflicting parents are enqueued (kept live) and receive the
//!   object on release; read requesters are served simultaneously.

use dstm_net::Topology;
use dstm_sim::SimDuration;
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{
    BoxedProgram, DstmConfig, Payload, RunMetrics, SystemBuilder, TraceLog, WorkloadSource,
};
use rts_core::{ObjectId, SchedulerKind, TxKind};

/// Find an object id homed at `node` for an `n`-node system.
pub fn oid_homed_at(node: u32, n: usize) -> ObjectId {
    (1..)
        .map(ObjectId)
        .find(|o| o.home(n) == node)
        .expect("some id hashes to every node")
}

/// Outcome of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub metrics: RunMetrics,
    pub final_value: i64,
    pub all_done: bool,
}

/// Run the Fig. 2/3 collision pattern under `scheduler`:
/// `writers` write transactions (and `readers` read transactions) on one
/// object homed at node 0, with staggered starts so that later requests
/// land inside the first committer's validation window.
pub fn run_collision(scheduler: SchedulerKind, writers: usize, readers: usize) -> ScenarioResult {
    run_collision_inner(scheduler, writers, readers, false).0
}

/// [`run_collision`] with protocol tracing on; the returned [`TraceLog`]
/// carries every lifecycle span and scheduler decision of the scenario,
/// terminated by a `RunSummary` record for offline counter cross-checks.
pub fn run_collision_traced(
    scheduler: SchedulerKind,
    writers: usize,
    readers: usize,
) -> (ScenarioResult, TraceLog) {
    let (result, trace) = run_collision_inner(scheduler, writers, readers, true);
    (result, trace.expect("tracing was requested"))
}

fn run_collision_inner(
    scheduler: SchedulerKind,
    writers: usize,
    readers: usize,
    trace: bool,
) -> (ScenarioResult, Option<TraceLog>) {
    let n = 1 + writers + readers;
    let topo = Topology::complete(n, 10);
    let oid = oid_homed_at(0, n);
    let cfg = DstmConfig {
        scheduler,
        concurrency_per_node: 1,
        trace_protocol: trace,
        ..DstmConfig::default()
    };

    // Each writer first commits a nested child on a private side object
    // (committed work that a parent abort would destroy), then accesses the
    // contended object at PARENT level — the Fig. 2/3 situation where the
    // scheduler decides the fate of a parent holding committed children.
    let mut side_oids = Vec::new();
    {
        let mut candidate = oid.0 + 1;
        while side_oids.len() < writers {
            side_oids.push(ObjectId(candidate));
            candidate += 1;
        }
    }

    let mut programs: Vec<Vec<BoxedProgram>> = vec![Vec::new(); n];
    // Node 0 holds the object and runs nothing.
    for w in 0..writers {
        // First writer starts immediately; the rest start staggered so they
        // request o1 while the first is validating.
        let start_ms = if w == 0 { 0 } else { 35 + 5 * w as u64 };
        let prog = ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::Compute(SimDuration::from_millis(start_ms)),
                ScriptOp::OpenNested(TxKind(2)),
                ScriptOp::Write(side_oids[w]),
                ScriptOp::AddScalar(side_oids[w], 1),
                ScriptOp::CloseNested,
                ScriptOp::Write(oid),
                ScriptOp::AddScalar(oid, 1),
                ScriptOp::Compute(SimDuration::from_millis(5)),
            ],
        );
        programs[1 + w].push(Box::new(prog));
    }
    for r in 0..readers {
        let prog = ScriptProgram::new(
            TxKind(3),
            vec![
                ScriptOp::Compute(SimDuration::from_millis(38 + 3 * r as u64)),
                ScriptOp::OpenNested(TxKind(4)),
                ScriptOp::Read(oid),
                ScriptOp::CloseNested,
            ],
        );
        programs[1 + writers + r].push(Box::new(prog));
    }

    let mut objects = vec![(oid, Payload::Scalar(0))];
    for s in &side_oids {
        objects.push((*s, Payload::Scalar(0)));
    }
    let mut system = SystemBuilder::new(topo, cfg)
        .seed(7)
        .build(WorkloadSource { objects, programs });
    let metrics = system.run(5_000_000);
    let all_done = system.all_done();
    let state = system.object_state();
    let final_value = state[&oid].0.as_scalar();
    let trace_log = if trace {
        let mut t = system.take_trace();
        t.push_summary(system.now(), &metrics.merged);
        Some(t)
    } else {
        None
    };
    (
        ScenarioResult {
            metrics,
            final_value,
            all_done,
        },
        trace_log,
    )
}

/// Render a scenario result as a small report.
pub fn render(title: &str, r: &ScenarioResult) -> String {
    let m = &r.metrics.merged;
    format!(
        "{title}\n\
         commits                {}\n\
         final object value     {}\n\
         aborts: scheduler      {}\n\
         aborts: commit-valid.  {}\n\
         aborts: forward-valid. {}\n\
         aborts: queue-timeout  {}\n\
         enqueued / served      {} / {}\n\
         nested aborts own/par  {} / {}\n",
        m.commits,
        r.final_value,
        m.aborts_scheduler,
        m.aborts_commit_validation,
        m.aborts_forward_validation,
        m.aborts_queue_timeout,
        m.enqueued,
        m.queue_served,
        m.nested_aborts_own,
        m.nested_aborts_parent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_tfa_shows_both_abort_kinds() {
        let r = run_collision(SchedulerKind::Tfa, 6, 0);
        assert!(r.all_done, "scenario stalled");
        assert_eq!(r.metrics.merged.commits, 6);
        assert_eq!(r.final_value, 6, "increments must serialize");
        // TFA never enqueues.
        assert_eq!(r.metrics.merged.enqueued, 0);
        // Both abort kinds of Fig. 2 occur.
        assert!(
            r.metrics.merged.aborts_scheduler > 0,
            "no lock-busy aborts: {:?}",
            r.metrics.merged
        );
        assert!(
            r.metrics.merged.aborts_commit_validation + r.metrics.merged.aborts_forward_validation
                > 0,
            "no validation aborts: {:?}",
            r.metrics.merged
        );
    }

    #[test]
    fn fig3_rts_enqueues_and_serves() {
        let r = run_collision(SchedulerKind::Rts, 6, 0);
        assert!(r.all_done, "scenario stalled");
        assert_eq!(r.metrics.merged.commits, 6);
        assert_eq!(r.final_value, 6);
        assert!(r.metrics.merged.enqueued > 0, "RTS never enqueued");
        assert!(r.metrics.merged.queue_served > 0, "queue never served");
    }

    #[test]
    fn fig3_readers_fan_out() {
        let r = run_collision(SchedulerKind::Rts, 1, 3);
        assert!(r.all_done);
        assert_eq!(r.metrics.merged.commits, 4);
        assert_eq!(r.final_value, 1);
    }

    #[test]
    fn rts_replaces_lock_busy_aborts_with_queueing() {
        // The defining mechanical difference of §III: requests that hit a
        // validating object abort under TFA but are parked under RTS. (A
        // single-object pileup cannot show RTS's throughput win — every
        // commit invalidates every outstanding copy regardless of scheduler
        // — so we assert the mechanism, not the totals; Figs. 4–6 measure
        // the totals on the real workloads.)
        let tfa = run_collision(SchedulerKind::Tfa, 6, 0);
        let rts = run_collision(SchedulerKind::Rts, 6, 0);
        assert!(tfa.metrics.merged.aborts_scheduler > 0);
        assert_eq!(tfa.metrics.merged.enqueued, 0);
        assert!(
            rts.metrics.merged.aborts_scheduler < tfa.metrics.merged.aborts_scheduler,
            "RTS should park (not abort) lock-busy requesters: RTS {} vs TFA {}",
            rts.metrics.merged.aborts_scheduler,
            tfa.metrics.merged.aborts_scheduler
        );
        assert!(rts.metrics.merged.enqueued > 0);
    }
}
