//! A checkpoint is a clone.
//!
//! The executor used to keep a `clone_box` of the program per nesting level
//! and restore it on abort; it now keeps the program's `checkpoint` and
//! calls `rewind`. For every in-tree program the two must be
//! indistinguishable: stepped against an in-memory store, with both taken at
//! every level boundary (attempt start, and behind each `OpenNested`) and
//! rollbacks fired at random later points — inside a child, after it closed,
//! after a sibling opened, whole-transaction restarts — the copy restored by
//! clone and the copy restored by rewind emit the same `StepOutput` stream
//! all the way to `Finish`.
//!
//! Plus the size of a checkpoint, and the fallback: a wrapper that forwards
//! only the five methods the trait had before checkpoints (as
//! `benchmark/src/timed.rs` does) runs nested aborts and retries on the
//! real protocol stack to the same outcome as the program it wraps.

// The example README points at, compiled in as a module so its program is
// checked like the others; its `main` and constants go unused here.
#[allow(dead_code)]
#[path = "../examples/custom_workload.rs"]
mod custom_workload;

use closed_nesting_dstm::benchmarks::params::MAX_NESTED_OPS;
use closed_nesting_dstm::benchmarks::{bst, dht, list, rbtree};
use closed_nesting_dstm::hyflow::program::{ScriptOp, ScriptProgram};
use closed_nesting_dstm::prelude::*;
use std::collections::HashMap;

/// What the stand-in executor feeds the next step.
enum Input {
    Begin,
    Ack,
    Value(Payload),
}

impl Input {
    fn as_step(&self) -> StepInput<'_> {
        match self {
            Input::Begin => StepInput::Begin,
            Input::Ack => StepInput::Ack,
            Input::Value(p) => StepInput::Value(p),
        }
    }
}

/// One nesting level of the stand-in executor: the level's writes, and the
/// program at entry — once as a clone, once as a checkpoint.
struct Level {
    writes: HashMap<ObjectId, Payload>,
    clone: BoxedProgram,
    at: ProgramCheckpoint,
}

fn level_of(by_clone: &BoxedProgram, by_rewind: &BoxedProgram) -> Level {
    Level {
        writes: HashMap::new(),
        clone: by_clone.clone_box(),
        at: by_rewind
            .checkpoint()
            .unwrap_or_else(|| panic!("{} offers no checkpoint", by_rewind.label())),
    }
}

/// Run `program` to `Finish` twice in lockstep, rolling both copies back to
/// a random open level up to `rollbacks` times — one by clone, one by
/// rewind. Returns `(steps, rollbacks made at a nested level)`.
fn run_both(
    program: &BoxedProgram,
    store: &HashMap<ObjectId, Payload>,
    rng: &mut SimRng,
    mut rollbacks: u32,
) -> (u64, u32) {
    let mut by_clone = program.clone_box();
    let mut by_rewind = program.clone_box();
    let mut levels = vec![level_of(&by_clone, &by_rewind)];
    let mut input = Input::Begin;
    let (mut steps, mut nested_rollbacks) = (0u64, 0u32);
    loop {
        if rollbacks > 0 && rng.chance(0.1) {
            rollbacks -= 1;
            let level = rng.below(levels.len() as u64) as usize;
            levels.truncate(level + 1);
            levels[level].writes.clear();
            by_clone = levels[level].clone.clone_box();
            by_rewind.rewind(&levels[level].at);
            // A level replays from the acknowledgement of its `OpenNested`,
            // the transaction itself from `Begin`.
            input = if level == 0 { Input::Begin } else { Input::Ack };
            nested_rollbacks += u32::from(level > 0);
        }
        let out = by_clone.step(input.as_step());
        let rewound = by_rewind.step(input.as_step());
        assert_eq!(
            out,
            rewound,
            "{} diverged after {steps} steps",
            program.label()
        );
        steps += 1;
        assert!(steps < 100_000, "{} does not finish", program.label());
        input = match out {
            StepOutput::Acquire(oid, _) => {
                let held = levels.iter().rev().find_map(|l| l.writes.get(&oid));
                let payload = held.or_else(|| store.get(&oid));
                Input::Value(payload.expect("acquired object exists").clone())
            }
            StepOutput::WriteLocal(oid, payload) => {
                levels
                    .last_mut()
                    .expect("level 0")
                    .writes
                    .insert(oid, payload);
                Input::Ack
            }
            StepOutput::Compute(_) => Input::Ack,
            StepOutput::OpenNested(_) => {
                levels.push(level_of(&by_clone, &by_rewind));
                Input::Ack
            }
            StepOutput::CloseNested => {
                let child = levels.pop().expect("a child is open");
                levels
                    .last_mut()
                    .expect("its parent")
                    .writes
                    .extend(child.writes);
                Input::Ack
            }
            StepOutput::Finish => return (steps, nested_rollbacks),
        };
    }
}

fn params() -> WorkloadParams {
    WorkloadParams {
        nodes: 3,
        txns_per_node: 8,
        read_ratio: 0.3,
        ..WorkloadParams::default()
    }
}

/// Every program in `programs`, several rollback schedules each.
fn check_all(programs: &[BoxedProgram], store: &HashMap<ObjectId, Payload>, what: &str) {
    let mut rng = SimRng::new(0xC0FFEE);
    let (mut steps, mut nested) = (0, 0);
    for program in programs {
        for _ in 0..20 {
            let (s, n) = run_both(program, store, &mut rng, 8);
            steps += s;
            nested += n;
        }
    }
    println!(
        "{what}: {} programs, {steps} steps, {nested} nested rollbacks",
        programs.len()
    );
    assert!(nested > 0, "{what}: no rollback landed inside a child");
}

#[test]
fn every_benchmark_program_rewinds_like_its_clone() {
    // As generated: Bank and Vacation scripts; List, BST, RB Tree and DHT
    // operation loops, each ending in its summary-object trailer.
    for benchmark in Benchmark::ALL {
        let workload = benchmark.generate(&params());
        let store: HashMap<_, _> = workload.objects.into_iter().collect();
        let programs: Vec<BoxedProgram> = workload.programs.into_iter().flatten().collect();
        check_all(&programs, &store, benchmark.label());
    }
}

/// Hand-picked operation lists that reach the paths a random draw may
/// miss (inserts and removes of present and absent keys, successor splices,
/// rebalancing), each with a writer's trailer on a generated summary object.
#[test]
fn hand_picked_data_structure_operations_rewind_like_their_clone() {
    let p = params();
    let (summary, delta) = (ObjectId(3_000_000), Some(1));
    let pool = (p.txns_per_node * MAX_NESTED_OPS) as u64;
    let stores: Vec<HashMap<ObjectId, Payload>> = [
        Benchmark::LinkedList,
        Benchmark::Bst,
        Benchmark::RbTree,
        Benchmark::Dht,
    ]
    .iter()
    .map(|b| b.generate(&p).objects.into_iter().collect())
    .collect();
    let kind = TxKind(1);

    use list::ListOp;
    let ops = vec![
        ListOp::Insert(7),
        ListOp::Contains(7),
        ListOp::Remove(4),
        ListOp::Insert(1),
        ListOp::Remove(99),
    ];
    let program: BoxedProgram =
        Box::new(list::ListProgram::new(kind, ops, 1, pool, summary, delta));
    check_all(&[program], &stores[0], "hand-picked list");

    use bst::BstOp;
    let ops = vec![
        BstOp::Insert(7),
        BstOp::Remove(8),
        BstOp::Contains(7),
        BstOp::Remove(24),
        BstOp::Insert(33),
    ];
    let program: BoxedProgram = Box::new(bst::BstProgram::new(kind, ops, 1, pool, summary, delta));
    check_all(&[program], &stores[1], "hand-picked bst");

    use rbtree::RbOp;
    let ops = vec![
        RbOp::Insert(7),
        RbOp::Insert(9),
        RbOp::Contains(7),
        RbOp::Insert(11),
        RbOp::Insert(13),
    ];
    let program: BoxedProgram =
        Box::new(rbtree::RbProgram::new(kind, ops, 1, pool, summary, delta));
    check_all(&[program], &stores[2], "hand-picked rb-tree");

    use dht::DhtOp;
    let ops = vec![DhtOp::Put(5, 1), DhtOp::Get(5), DhtOp::Put(29, 2)];
    let buckets = p.total_objects() as u64;
    let program: BoxedProgram = Box::new(dht::DhtProgram::new(kind, ops, buckets, summary, delta));
    check_all(&[program], &stores[3], "hand-picked dht");
}

/// The generated scripts read a scalar right before every `AddScalar`; the
/// DSL does not require it. This one reads in the parent and adds in the
/// child, then clobbers the register before the child can be rolled back.
#[test]
fn a_script_carries_its_register_across_a_level_boundary() {
    let (a, b, c) = (ObjectId(1), ObjectId(2), ObjectId(3));
    let store: HashMap<_, _> = [(a, 5), (b, 0), (c, 9)]
        .into_iter()
        .map(|(oid, v)| (oid, Payload::Scalar(v)))
        .collect();
    let script = ScriptProgram::new(
        TxKind(1),
        vec![
            ScriptOp::Write(b),
            ScriptOp::Read(a),
            ScriptOp::OpenNested(TxKind(2)),
            ScriptOp::AddScalar(b, 1),
            ScriptOp::Read(c),
            ScriptOp::Compute(SimDuration::from_micros(1)),
            ScriptOp::Compute(SimDuration::from_micros(1)),
            ScriptOp::CloseNested,
        ],
    );
    check_all(&[Box::new(script)], &store, "register script");
}

#[test]
fn the_examples_program_rewinds_like_its_clone() {
    let store: HashMap<_, _> = (0..12)
        .map(|i| (custom_workload::player_oid(i), Payload::Scalar(40)))
        .chain([(custom_workload::TOP_SCORE, Payload::Scalar(50))])
        .collect();
    let programs: Vec<BoxedProgram> = [(3, 30), (4, 45), (5, 60)]
        .into_iter()
        .map(|(player, score)| -> BoxedProgram {
            Box::new(custom_workload::ReportScore::new(player, score))
        })
        .collect();
    check_all(&programs, &store, "report-score");
}

#[test]
fn a_checkpoint_is_four_words() {
    assert!(std::mem::size_of::<ProgramCheckpoint>() <= 32);
}

// ---------------------------------------------------------------------------
// The fallback: a program without checkpoints
// ---------------------------------------------------------------------------

/// Forwards the five methods `TxProgram` had before checkpoints existed and
/// leaves the two new ones defaulted — `benchmark/src/timed.rs` in small.
struct Forwarding(BoxedProgram);

impl TxProgram for Forwarding {
    fn kind(&self) -> TxKind {
        self.0.kind()
    }
    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        self.0.step(input)
    }
    fn clone_box(&self) -> BoxedProgram {
        Box::new(Forwarding(self.0.clone_box()))
    }
    fn label(&self) -> &'static str {
        self.0.label()
    }
}

/// Four nodes hammering three counters from inside nested children, then
/// incrementing a fourth at top level: child aborts, parent aborts and
/// restarts all occur.
fn contended_cell(wrap: fn(BoxedProgram) -> BoxedProgram) -> (RunMetrics, Vec<(ObjectId, i64)>) {
    let nodes = 4;
    let objects: Vec<(ObjectId, Payload)> =
        (1..=4).map(|i| (ObjectId(i), Payload::Scalar(0))).collect();
    let program = |a: u64, b: u64| -> BoxedProgram {
        let mut ops = Vec::new();
        for oid in [ObjectId(a), ObjectId(b)] {
            ops.extend([
                ScriptOp::OpenNested(TxKind(2)),
                ScriptOp::Write(oid),
                ScriptOp::AddScalar(oid, 1),
                ScriptOp::Compute(SimDuration::from_micros(300)),
                ScriptOp::CloseNested,
            ]);
        }
        ops.extend([
            ScriptOp::Write(ObjectId(4)),
            ScriptOp::AddScalar(ObjectId(4), 1),
        ]);
        wrap(Box::new(ScriptProgram::new(TxKind(1), ops)))
    };
    let programs: Vec<Vec<BoxedProgram>> = (0..nodes)
        .map(|n| {
            (0..6)
                .map(|k| program(1 + (n + k) % 3, 1 + (n + k + 1) % 3))
                .collect()
        })
        .collect();
    let mut rng = SimRng::new(11);
    let topo = Topology::uniform_random(nodes as usize, 1, 20, &mut rng);
    let cfg = DstmConfig {
        concurrency_per_node: 3,
        conflict_scope: ConflictScope::Child,
        ..DstmConfig::default().with_scheduler(SchedulerKind::Rts)
    };
    let mut system = SystemBuilder::new(topo, cfg)
        .seed(11)
        .build(WorkloadSource { objects, programs });
    let metrics = system.run_default();
    assert!(system.all_done());
    let mut state: Vec<(ObjectId, i64)> = system
        .object_state()
        .into_iter()
        .map(|(oid, (payload, _version))| (oid, payload.as_scalar()))
        .collect();
    state.sort();
    (metrics, state)
}

#[test]
fn a_program_without_checkpoints_runs_nested_retries_to_the_same_outcome() {
    let (plain, plain_state) = contended_cell(|p| p);
    let (wrapped, wrapped_state) = contended_cell(|p| Box::new(Forwarding(p)));
    // The cell exercises what it is meant to.
    assert!(plain.merged.nested_aborts_own > 0, "no child abort");
    assert!(plain.merged.total_aborts() > 0, "no parent abort");
    assert_eq!(plain_state[3], (ObjectId(4), 24), "one trailer per commit");

    assert_eq!(wrapped_state, plain_state);
    let counters = |m: &RunMetrics| {
        (
            m.merged.commits,
            m.merged.total_aborts(),
            m.merged.nested_commits,
            m.merged.nested_aborts_own,
            m.merged.nested_aborts_parent,
            m.messages,
            m.ended_at,
        )
    };
    assert_eq!(counters(&wrapped), counters(&plain));
}
