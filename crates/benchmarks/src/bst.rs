//! Binary Search Tree (BST) microbenchmark (§IV-A).
//!
//! Unbalanced search tree over distributed `TreeNode` objects. Operations:
//! `contains` (read), `insert` (new node from the per-node pool), and
//! `remove` (full BST deletion, including the two-children successor
//! splice). Each operation is a closed-nested child; all structural writes
//! touch nodes already fetched during the descent, so the write phase is a
//! local plan drained through instant acquires.

use crate::params::WorkloadParams;
use crate::{op_checkpoint, op_position};
use dstm_sim::SimDuration;
use hyflow_dstm::program::{
    AccessMode, ProgramCheckpoint, StepInput, StepOutput, TxProgram, WithTrailer,
};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_BST_READER: TxKind = TxKind(40);
pub const KIND_BST_WRITER: TxKind = TxKind(41);
pub const KIND_CONTAINS: TxKind = TxKind(42);
pub const KIND_INSERT: TxKind = TxKind(43);
pub const KIND_REMOVE: TxKind = TxKind(44);

pub const ROOT: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;
const COUNTER_BASE: u64 = 1_000_000;
const POOL_BASE: u64 = 2_000_000;
/// Parent-level summary/statistics objects, touched after the nested ops
/// (Fig. 1's trailing top-level access; see DESIGN.md).
const SUMMARY_BASE: u64 = 3_000_000;

/// One BST operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BstOp {
    Contains(i64),
    Insert(i64),
    Remove(i64),
}

impl BstOp {
    fn child_kind(self) -> TxKind {
        match self {
            BstOp::Contains(_) => KIND_CONTAINS,
            BstOp::Insert(_) => KIND_INSERT,
            BstOp::Remove(_) => KIND_REMOVE,
        }
    }

    fn value(self) -> i64 {
        match self {
            BstOp::Contains(v) | BstOp::Insert(v) | BstOp::Remove(v) => v,
        }
    }
}

/// A node as seen during descent.
#[derive(Clone, Copy, Debug)]
struct Seen {
    oid: ObjectId,
    value: i64,
    left: Option<ObjectId>,
    right: Option<ObjectId>,
}

impl Seen {
    fn payload_with(&self, value: i64, left: Option<ObjectId>, right: Option<ObjectId>) -> Payload {
        let _ = self;
        Payload::TreeNode {
            value,
            left,
            right,
            red: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Descending toward the operation's key.
    Find,
    /// Descending the right subtree of the removal target toward its
    /// in-order successor.
    FindSucc,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum St {
    NextOp,
    OpenAck,
    RootValue,
    Descend,
    CounterGot,
    CounterWritten,
    PoolGot,
    /// New leaf written: link it from its parent (or the root pointer).
    NewLinked,
    /// Draining the structural write plan: the acquired payload arrived.
    PlanGot,
    CloseOp,
    Closed,
    Gap,
}

/// The BST transaction program.
///
/// The descent path, removal target and write plan live inside one
/// operation: `OpenAck` resets them before anything reads them, and every
/// level boundary lies at `NextOp` (attempt start) or `OpenAck` (behind an
/// `OpenNested`). The checkpoint is the operation index and which of the two.
#[derive(Clone, Debug)]
pub struct BstProgram {
    kind: TxKind,
    /// Immutable and shared, so a `clone_box` copies a pointer.
    ops: Arc<[BstOp]>,
    counter: ObjectId,
    pool_base: u64,
    pool_size: u64,
    compute: SimDuration,
    op_idx: usize,
    st: St,
    phase: Phase,
    cur: Option<ObjectId>,
    path: Vec<Seen>,
    /// Removal target (found during `Find`).
    target: Option<Seen>,
    /// Link holder to the successor during `FindSucc`: (node, via-left?).
    succ_parent: Option<(Seen, bool)>,
    new_node: Option<ObjectId>,
    /// Structural writes to apply: (object, payload).
    plan: Vec<(ObjectId, Payload)>,
}

impl BstProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[BstOp]>>,
        invoking_node: usize,
        pool_size: u64,
        compute: SimDuration,
    ) -> Self {
        BstProgram {
            kind,
            ops: ops.into(),
            counter: ObjectId(COUNTER_BASE + invoking_node as u64),
            pool_base: POOL_BASE + invoking_node as u64 * pool_size,
            pool_size,
            compute,
            op_idx: 0,
            st: St::NextOp,
            phase: Phase::Find,
            cur: None,
            path: Vec::new(),
            target: None,
            succ_parent: None,
            new_node: None,
            plan: Vec::new(),
        }
    }

    fn op(&self) -> BstOp {
        self.ops[self.op_idx]
    }

    fn close(&mut self) -> StepOutput {
        self.st = St::Closed;
        StepOutput::CloseNested
    }

    /// Emit the next plan write (acquire first; all plan objects are already
    /// held, so the acquire is satisfied locally).
    fn drain_plan(&mut self) -> StepOutput {
        match self.plan.first() {
            Some((oid, _)) => {
                let oid = *oid;
                self.st = St::PlanGot;
                StepOutput::Acquire(oid, AccessMode::Write)
            }
            None => self.close(),
        }
    }

    /// The object holding the link to the current descent position: the last
    /// path node, or the root pointer.
    fn parent_link_payload(&self, child: Option<ObjectId>) -> (ObjectId, Payload) {
        match self.path.last() {
            None => (ROOT, Payload::Ptr(child)),
            Some(p) => {
                let target_value = match self.phase {
                    Phase::Find => self.op().value(),
                    Phase::FindSucc => unreachable!("insert happens in Find phase"),
                };
                if target_value < p.value {
                    (p.oid, p.payload_with(p.value, child, p.right))
                } else {
                    (p.oid, p.payload_with(p.value, p.left, child))
                }
            }
        }
    }

    fn start_alloc(&mut self) -> StepOutput {
        self.st = St::CounterGot;
        StepOutput::Acquire(self.counter, AccessMode::Write)
    }

    /// Got a node during descent; route by phase.
    fn on_node(&mut self, seen: Seen) -> StepOutput {
        match self.phase {
            Phase::Find => self.on_find(seen),
            Phase::FindSucc => self.on_find_succ(seen),
        }
    }

    fn on_find(&mut self, seen: Seen) -> StepOutput {
        let v = self.op().value();
        if v == seen.value {
            return match self.op() {
                BstOp::Contains(_) => self.close(),
                BstOp::Insert(_) => self.close(), // duplicate
                BstOp::Remove(_) => self.start_remove(seen),
            };
        }
        let next = if v < seen.value {
            seen.left
        } else {
            seen.right
        };
        self.path.push(seen);
        match next {
            Some(oid) => {
                self.cur = Some(oid);
                self.st = St::Descend;
                StepOutput::Acquire(oid, AccessMode::Read)
            }
            None => match self.op() {
                BstOp::Insert(_) => self.start_alloc(),
                _ => self.close(), // contains/remove: absent
            },
        }
    }

    fn start_remove(&mut self, t: Seen) -> StepOutput {
        match (t.left, t.right) {
            (None, None) => {
                let (oid, payload) = self.parent_link_payload(None);
                self.plan.push((oid, payload));
                self.drain_plan()
            }
            (Some(c), None) | (None, Some(c)) => {
                let (oid, payload) = self.parent_link_payload(Some(c));
                self.plan.push((oid, payload));
                self.drain_plan()
            }
            (Some(_), Some(r)) => {
                // Two children: find the in-order successor in the right
                // subtree, splice it out, move its value into the target.
                self.target = Some(t);
                self.succ_parent = None; // direct right child case
                self.phase = Phase::FindSucc;
                self.cur = Some(r);
                self.st = St::Descend;
                StepOutput::Acquire(r, AccessMode::Read)
            }
        }
    }

    fn on_find_succ(&mut self, seen: Seen) -> StepOutput {
        if let Some(l) = seen.left {
            self.succ_parent = Some((seen, true));
            self.cur = Some(l);
            self.st = St::Descend;
            return StepOutput::Acquire(l, AccessMode::Read);
        }
        // `seen` is the successor.
        let t = self.target.expect("target recorded");
        match self.succ_parent {
            None => {
                // Successor is the target's direct right child.
                self.plan
                    .push((t.oid, t.payload_with(seen.value, t.left, seen.right)));
            }
            Some((sp, _via_left)) => {
                self.plan
                    .push((t.oid, t.payload_with(seen.value, t.left, t.right)));
                self.plan
                    .push((sp.oid, sp.payload_with(sp.value, seen.right, sp.right)));
            }
        }
        self.drain_plan()
    }
}

impl TxProgram for BstProgram {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        "bst"
    }

    fn clone_box(&self) -> BoxedProgram {
        Box::new(self.clone())
    }

    fn checkpoint(&self) -> Option<ProgramCheckpoint> {
        debug_assert!(matches!(self.st, St::NextOp | St::OpenAck));
        Some(op_checkpoint(self.op_idx, self.st == St::OpenAck))
    }

    fn rewind(&mut self, to: &ProgramCheckpoint) {
        let (op_idx, opened) = op_position(to);
        self.op_idx = op_idx;
        self.st = if opened { St::OpenAck } else { St::NextOp };
    }

    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        match self.st.clone() {
            St::NextOp => {
                if self.op_idx >= self.ops.len() {
                    return StepOutput::Finish;
                }
                self.st = St::OpenAck;
                StepOutput::OpenNested(self.op().child_kind())
            }
            St::OpenAck => {
                self.phase = Phase::Find;
                self.path.clear();
                self.plan.clear();
                self.target = None;
                self.succ_parent = None;
                self.new_node = None;
                self.st = St::RootValue;
                StepOutput::Acquire(ROOT, AccessMode::Read)
            }
            St::RootValue => {
                let StepInput::Value(Payload::Ptr(root)) = input else {
                    panic!("expected root pointer, got {input:?}");
                };
                match *root {
                    Some(oid) => {
                        self.cur = Some(oid);
                        self.st = St::Descend;
                        StepOutput::Acquire(oid, AccessMode::Read)
                    }
                    None => match self.op() {
                        BstOp::Insert(_) => self.start_alloc(),
                        _ => self.close(),
                    },
                }
            }
            St::Descend => {
                let StepInput::Value(Payload::TreeNode {
                    value, left, right, ..
                }) = input
                else {
                    panic!("expected tree node, got {input:?}");
                };
                let seen = Seen {
                    oid: self.cur.expect("descending a real node"),
                    value: *value,
                    left: *left,
                    right: *right,
                };
                self.on_node(seen)
            }
            St::CounterGot => {
                let StepInput::Value(Payload::Scalar(c)) = input else {
                    panic!("expected counter, got {input:?}");
                };
                let c = *c;
                if (c as u64) >= self.pool_size {
                    return self.close(); // pool exhausted: no-op
                }
                self.new_node = Some(ObjectId(self.pool_base + c as u64));
                self.st = St::CounterWritten;
                StepOutput::WriteLocal(self.counter, Payload::Scalar(c + 1))
            }
            St::CounterWritten => {
                self.st = St::PoolGot;
                StepOutput::Acquire(self.new_node.expect("allocated"), AccessMode::Write)
            }
            St::PoolGot => {
                self.st = St::NewLinked;
                StepOutput::WriteLocal(
                    self.new_node.expect("allocated"),
                    Payload::TreeNode {
                        value: self.op().value(),
                        left: None,
                        right: None,
                        red: false,
                    },
                )
            }
            St::NewLinked => {
                let (oid, payload) = self.parent_link_payload(self.new_node);
                self.plan.push((oid, payload));
                self.drain_plan()
            }
            St::PlanGot => {
                let (oid, payload) = self.plan.remove(0);
                self.st = St::CloseOp;
                let _ = input; // the old payload is superseded by the plan
                StepOutput::WriteLocal(oid, payload)
            }
            St::CloseOp => self.drain_plan(),
            St::Closed => {
                self.st = St::Gap;
                StepOutput::Compute(self.compute)
            }
            St::Gap => {
                self.op_idx += 1;
                self.st = St::NextOp;
                self.step(StepInput::Ack)
            }
        }
    }
}

/// Build a perfectly balanced BST over `values[lo..hi)`; returns the root.
fn build_balanced(
    values: &[i64],
    lo: usize,
    hi: usize,
    next_oid: &mut u64,
    out: &mut Vec<(ObjectId, Payload)>,
) -> Option<ObjectId> {
    if lo >= hi {
        return None;
    }
    let mid = (lo + hi) / 2;
    let oid = ObjectId(*next_oid);
    *next_oid += 1;
    // Reserve the id before recursing so ids are unique.
    let left = build_balanced(values, lo, mid, next_oid, out);
    let right = build_balanced(values, mid + 1, hi, next_oid, out);
    out.push((
        oid,
        Payload::TreeNode {
            value: values[mid],
            left,
            right,
            red: false,
        },
    ));
    Some(oid)
}

/// Build the BST workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let size = p.total_objects().min(256);
    let values: Vec<i64> = (1..=size as i64).map(|i| 2 * i).collect();
    let pool_size = (p.txns_per_node * p.max_nested_ops) as u64;

    let mut objects: Vec<(ObjectId, Payload)> = Vec::new();
    let mut next_oid = NODE_BASE;
    let root = build_balanced(&values, 0, values.len(), &mut next_oid, &mut objects);
    objects.push((ROOT, Payload::Ptr(root)));
    for node in 0..p.nodes {
        objects.push((ObjectId(COUNTER_BASE + node as u64), Payload::Scalar(0)));
        for k in 0..pool_size {
            objects.push((
                ObjectId(POOL_BASE + node as u64 * pool_size + k),
                Payload::TreeNode {
                    value: 0,
                    left: None,
                    right: None,
                    red: false,
                },
            ));
        }
    }

    let value_space = 2 * size as u64 + 2;
    let summary_count = (p.nodes as u64 / 2).max(2);
    for i in 0..summary_count {
        objects.push((ObjectId(SUMMARY_BASE + i), Payload::Scalar(0)));
    }

    let mut programs: Vec<Vec<BoxedProgram>> = Vec::with_capacity(p.nodes);
    for node in 0..p.nodes {
        let mut rng = p.node_rng(node);
        let mut queue: Vec<BoxedProgram> = Vec::with_capacity(p.txns_per_node);
        for _ in 0..p.txns_per_node {
            let nested = p.sample_nested_ops(&mut rng);
            let read_only = p.sample_read_only(&mut rng);
            let kind = if read_only {
                KIND_BST_READER
            } else {
                KIND_BST_WRITER
            };
            // Collected straight into the shared list: one allocation.
            let ops: Arc<[BstOp]> = (0..nested)
                .map(|_| {
                    let v = 1 + rng.below(value_space) as i64;
                    if read_only {
                        BstOp::Contains(v)
                    } else if rng.chance(0.5) {
                        BstOp::Insert(v)
                    } else {
                        BstOp::Remove(v)
                    }
                })
                .collect();
            let summary = ObjectId(SUMMARY_BASE + rng.below(summary_count));
            let delta = if read_only { None } else { Some(1) };
            queue.push(Box::new(WithTrailer::new(
                BstProgram::new(kind, ops, node, pool_size, p.compute),
                summary,
                delta,
            )));
        }
        programs.push(queue);
    }
    WorkloadSource { objects, programs }
}

/// In-order traversal of the committed tree; panics on cycles. Used for
/// invariant checks (sortedness == BST property).
pub fn collect_inorder(state: &std::collections::HashMap<ObjectId, (Payload, u64)>) -> Vec<i64> {
    fn walk(
        state: &std::collections::HashMap<ObjectId, (Payload, u64)>,
        node: Option<ObjectId>,
        out: &mut Vec<i64>,
        budget: &mut usize,
    ) {
        let Some(oid) = node else { return };
        assert!(*budget > 0, "cycle suspected in tree");
        *budget -= 1;
        let (payload, _) = state
            .get(&oid)
            .unwrap_or_else(|| panic!("dangling tree link to {oid:?}"));
        let Payload::TreeNode {
            value, left, right, ..
        } = payload
        else {
            panic!("non-tree-node in tree: {payload:?}");
        };
        walk(state, *left, out, budget);
        out.push(*value);
        walk(state, *right, out, budget);
    }
    let (rootp, _) = &state[&ROOT];
    let mut out = Vec::new();
    let mut budget = state.len();
    walk(state, rootp.as_ptr(), &mut out, &mut budget);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn drive(prog: &mut BstProgram, store: &mut HashMap<ObjectId, Payload>) {
        let mut value: Option<Payload> = None;
        let mut begin = true;
        loop {
            let out = {
                let input = if begin {
                    StepInput::Begin
                } else if let Some(v) = &value {
                    StepInput::Value(v)
                } else {
                    StepInput::Ack
                };
                prog.step(input)
            };
            begin = false;
            match out {
                StepOutput::Acquire(oid, _) => {
                    value = Some(
                        store
                            .get(&oid)
                            .cloned()
                            .unwrap_or_else(|| panic!("acquired unknown object {oid:?}")),
                    );
                }
                StepOutput::WriteLocal(oid, p) => {
                    store.insert(oid, p);
                    value = None;
                }
                StepOutput::Finish => break,
                _ => value = None,
            }
        }
    }

    fn store_from(p: &WorkloadParams) -> HashMap<ObjectId, Payload> {
        generate(p).objects.into_iter().collect()
    }

    fn inorder(store: &HashMap<ObjectId, Payload>) -> Vec<i64> {
        let state: HashMap<ObjectId, (Payload, u64)> =
            store.iter().map(|(k, v)| (*k, (v.clone(), 0))).collect();
        collect_inorder(&state)
    }

    fn params() -> WorkloadParams {
        WorkloadParams {
            nodes: 2,
            objects_per_node: 8,
            txns_per_node: 4,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn initial_tree_is_sorted() {
        let store = store_from(&params());
        let v = inorder(&store);
        assert_eq!(v.len(), 16);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn insert_new_value() {
        let p = params();
        let mut store = store_from(&p);
        let mut prog = BstProgram::new(
            KIND_BST_WRITER,
            vec![BstOp::Insert(5)],
            0,
            16,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        let v = inorder(&store);
        assert!(v.contains(&5));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_leaf_and_internal() {
        let p = params();
        let mut store = store_from(&p);
        let before = inorder(&store);
        // Remove a value with (very likely) two children: the median.
        let target = before[before.len() / 2];
        let mut prog = BstProgram::new(
            KIND_BST_WRITER,
            vec![BstOp::Remove(target)],
            0,
            16,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        let after = inorder(&store);
        assert_eq!(after.len(), before.len() - 1);
        assert!(!after.contains(&target));
        assert!(after.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_every_value_in_random_order() {
        let p = params();
        let mut store = store_from(&p);
        let mut values = inorder(&store);
        // Deterministic shuffle.
        let mut rng = dstm_sim::SimRng::new(5);
        rng.shuffle(&mut values);
        for v in values {
            let mut prog = BstProgram::new(
                KIND_BST_WRITER,
                vec![BstOp::Remove(v)],
                0,
                64,
                SimDuration::from_micros(1),
            );
            drive(&mut prog, &mut store);
            let now = inorder(&store);
            assert!(!now.contains(&v), "value {v} not removed");
            assert!(now.windows(2).all(|w| w[0] < w[1]), "BST property broken");
        }
        assert!(inorder(&store).is_empty());
    }

    #[test]
    fn contains_does_not_mutate() {
        let p = params();
        let mut store = store_from(&p);
        let before = inorder(&store);
        let mut prog = BstProgram::new(
            KIND_BST_READER,
            vec![BstOp::Contains(3), BstOp::Contains(4)],
            0,
            16,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        assert_eq!(inorder(&store), before);
    }

    #[test]
    fn insert_duplicate_is_noop() {
        let p = params();
        let mut store = store_from(&p);
        let before = inorder(&store);
        let existing = before[0];
        let mut prog = BstProgram::new(
            KIND_BST_WRITER,
            vec![BstOp::Insert(existing)],
            0,
            16,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        assert_eq!(inorder(&store), before);
    }

    #[test]
    fn mixed_op_sequence_preserves_invariants() {
        let p = params();
        let mut store = store_from(&p);
        let mut prog = BstProgram::new(
            KIND_BST_WRITER,
            vec![
                BstOp::Insert(1),
                BstOp::Remove(2),
                BstOp::Insert(99),
                BstOp::Contains(1),
                BstOp::Remove(99),
            ],
            0,
            16,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        let v = inorder(&store);
        assert!(v.contains(&1));
        assert!(!v.contains(&99));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}
