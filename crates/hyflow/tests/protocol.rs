//! Protocol-level integration tests: drive whole mini-systems through the
//! ownership-migration, queue-service, and nesting paths and assert on the
//! protocol-visible outcomes.

use dstm_net::Topology;
use dstm_sim::SimDuration;
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{
    BoxedProgram, ConflictScope, DstmConfig, NestingMode, Payload, System, SystemBuilder,
    WorkloadSource,
};
use rts_core::{ObjectId, SchedulerKind, TxKind};

fn oid_homed_at(node: u32, n: usize) -> ObjectId {
    (1..)
        .map(ObjectId)
        .find(|o| o.home(n) == node)
        .expect("ids cover all homes")
}

fn writer(oid: ObjectId, delta: i64, start_ms: u64) -> BoxedProgram {
    Box::new(ScriptProgram::new(
        TxKind(1),
        vec![
            ScriptOp::Compute(SimDuration::from_millis(start_ms)),
            ScriptOp::Write(oid),
            ScriptOp::AddScalar(oid, delta),
        ],
    ))
}

fn build(
    n: usize,
    cfg: DstmConfig,
    objects: Vec<(ObjectId, Payload)>,
    programs: Vec<Vec<BoxedProgram>>,
) -> System {
    let topo = Topology::complete(n, 10);
    SystemBuilder::new(topo, cfg)
        .seed(5)
        .build(WorkloadSource { objects, programs })
}

#[test]
fn ownership_chain_spans_many_moves() {
    // One object, five nodes, each commits a write in turn: ownership walks
    // across the system and late requests still find the object through
    // the tombstone chain.
    let n = 5;
    let oid = oid_homed_at(0, n);
    let cfg = DstmConfig {
        scheduler: SchedulerKind::Tfa,
        concurrency_per_node: 1,
        ..DstmConfig::default()
    };
    let programs: Vec<Vec<BoxedProgram>> = (0..n)
        .map(|i| {
            if i == 0 {
                vec![]
            } else {
                // Strongly staggered starts: each writer runs alone.
                vec![writer(oid, 1, 200 * i as u64)]
            }
        })
        .collect();
    let mut sys = build(n, cfg, vec![(oid, Payload::Scalar(0))], programs);
    let m = sys.run(10_000_000);
    assert!(sys.all_done());
    assert_eq!(m.merged.commits, 4);
    // With fully staggered single writers there is no contention at all.
    assert_eq!(
        m.merged.total_aborts(),
        0,
        "staggered writers must not conflict"
    );
    let state = sys.object_state();
    assert_eq!(state[&oid].0.as_scalar(), 4);
    // Ownership ended away from the home node (the last committer's node).
    let owner_node = sys
        .world()
        .actors()
        .iter()
        .position(|node| node.owned_object(oid).is_some())
        .expect("someone owns it");
    assert_ne!(owner_node, 0, "ownership should have migrated off the home");
    // Each of the 4 writes moved the object to a new node.
    assert_eq!(m.merged.objects_received, 4);
}

#[test]
fn flat_nesting_has_no_nested_commits() {
    let n = 2;
    let oid = oid_homed_at(0, n);
    let prog = || -> BoxedProgram {
        Box::new(ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::OpenNested(TxKind(2)),
                ScriptOp::Write(oid),
                ScriptOp::AddScalar(oid, 1),
                ScriptOp::CloseNested,
            ],
        ))
    };
    for (mode, expect_nested) in [(NestingMode::Closed, true), (NestingMode::Flat, false)] {
        let cfg = DstmConfig {
            scheduler: SchedulerKind::Tfa,
            nesting: mode,
            ..DstmConfig::default()
        };
        let mut sys = build(
            n,
            cfg,
            vec![(oid, Payload::Scalar(0))],
            vec![vec![prog()], vec![prog()]],
        );
        let m = sys.run(10_000_000);
        assert!(sys.all_done(), "{mode:?} stalled");
        assert_eq!(m.merged.commits, 2, "{mode:?}");
        assert_eq!(
            m.merged.nested_commits > 0,
            expect_nested,
            "{mode:?} nested-commit accounting"
        );
        // Semantics identical either way: two increments.
        assert_eq!(sys.object_state()[&oid].0.as_scalar(), 2, "{mode:?}");
    }
}

#[test]
fn flat_nesting_never_records_child_retries() {
    // Under flat nesting every conflict is parent-level by construction.
    let n = 4;
    let oid = oid_homed_at(0, n);
    let prog = || -> BoxedProgram {
        Box::new(ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::OpenNested(TxKind(2)),
                ScriptOp::Write(oid),
                ScriptOp::AddScalar(oid, 1),
                ScriptOp::CloseNested,
                ScriptOp::Compute(SimDuration::from_millis(5)),
            ],
        ))
    };
    let cfg = DstmConfig {
        scheduler: SchedulerKind::Tfa,
        nesting: NestingMode::Flat,
        concurrency_per_node: 1,
        ..DstmConfig::default()
    };
    let programs: Vec<Vec<BoxedProgram>> = (0..n)
        .map(|i| if i == 0 { vec![] } else { vec![prog(), prog()] })
        .collect();
    let mut sys = build(n, cfg, vec![(oid, Payload::Scalar(0))], programs);
    let m = sys.run(20_000_000);
    assert!(sys.all_done());
    assert_eq!(m.merged.commits, 6);
    assert_eq!(m.merged.child_conflict_retries, 0);
    assert_eq!(m.merged.nested_aborts_own, 0);
    assert_eq!(sys.object_state()[&oid].0.as_scalar(), 6);
}

#[test]
fn parent_conflict_scope_escalates_child_conflicts() {
    // Same contended workload, both scopes: with `Parent`, lock-busy
    // conflicts on child requests abort whole parents instead of children.
    let n = 4;
    let oid = oid_homed_at(0, n);
    let prog = || -> BoxedProgram {
        Box::new(ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::OpenNested(TxKind(2)),
                ScriptOp::Write(oid),
                ScriptOp::AddScalar(oid, 1),
                ScriptOp::CloseNested,
                ScriptOp::Compute(SimDuration::from_millis(2)),
            ],
        ))
    };
    let run = |scope: ConflictScope| {
        let cfg = DstmConfig {
            scheduler: SchedulerKind::Tfa,
            conflict_scope: scope,
            concurrency_per_node: 2,
            ..DstmConfig::default()
        };
        let programs: Vec<Vec<BoxedProgram>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![prog(), prog()] })
            .collect();
        let mut sys = build(n, cfg, vec![(oid, Payload::Scalar(0))], programs);
        let m = sys.run(50_000_000);
        assert!(sys.all_done(), "{scope:?} stalled");
        assert_eq!(sys.object_state()[&oid].0.as_scalar(), 6, "{scope:?}");
        m
    };
    let child = run(ConflictScope::Child);
    let parent = run(ConflictScope::Parent);
    // Child scope keeps conflicts at child granularity...
    assert!(child.merged.child_conflict_retries > 0);
    // ...Parent scope never records child retries.
    assert_eq!(parent.merged.child_conflict_retries, 0);
}

#[test]
fn rts_queue_survives_ownership_transfer() {
    // Several staggered writers collide on one hot object under RTS; the
    // requester queue must follow the object as ownership moves, and every
    // transaction must still commit exactly once.
    let n = 6;
    let oid = oid_homed_at(0, n);
    let cfg = DstmConfig {
        scheduler: SchedulerKind::Rts,
        cl_threshold: 1_000_000,
        concurrency_per_node: 1,
        ..DstmConfig::default()
    };
    let programs: Vec<Vec<BoxedProgram>> = (0..n)
        .map(|i| {
            if i == 0 {
                vec![]
            } else {
                vec![writer(oid, 1, 30 + 4 * i as u64)]
            }
        })
        .collect();
    let mut sys = build(n, cfg, vec![(oid, Payload::Scalar(0))], programs);
    let m = sys.run(50_000_000);
    assert!(sys.all_done());
    assert_eq!(m.merged.commits, 5);
    assert_eq!(sys.object_state()[&oid].0.as_scalar(), 5);
}
