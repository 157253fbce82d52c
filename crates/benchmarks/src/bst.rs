//! Binary Search Tree (BST) microbenchmark (§IV-A).
//!
//! Unbalanced search tree over distributed `TreeNode` objects. Operations:
//! `contains` (read), `insert` (new node from the per-node pool), and
//! `remove` (full BST deletion, including the two-children successor
//! splice). Each operation is a closed-nested child; all structural writes
//! touch nodes already fetched during the descent, so the write phase is a
//! local plan drained through instant acquires.

use crate::op_loop::{generate_programs, pool_objects, Alloc, OpLoop, OpMachine, Pool, WritePlan};
use crate::params::{WorkloadParams, MAX_NESTED_OPS};
use hyflow_dstm::program::{AccessMode, StepInput, StepOutput};
use hyflow_dstm::{Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_BST_READER: TxKind = TxKind(40);
pub const KIND_BST_WRITER: TxKind = TxKind(41);
pub const KIND_CONTAINS: TxKind = TxKind(42);
pub const KIND_INSERT: TxKind = TxKind(43);
pub const KIND_REMOVE: TxKind = TxKind(44);

pub const ROOT: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;

/// One BST operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BstOp {
    Contains(i64),
    Insert(i64),
    Remove(i64),
}

impl BstOp {
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

/// A (black) tree node's payload.
fn tree_node(value: i64, left: Option<ObjectId>, right: Option<ObjectId>) -> Payload {
    Payload::TreeNode {
        value,
        left,
        right,
        red: false,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    RootValue,
    /// Descending toward the operation's key.
    Find,
    /// Descending the right subtree of the removal target toward its
    /// in-order successor.
    FindSucc,
    /// Allocating the inserted node from the pool.
    Alloc,
    /// Draining the structural write plan.
    Plan,
}

/// One BST operation: the descent, the successor search of a two-children
/// removal, and the structural writes as a plan.
#[derive(Clone, Debug)]
pub struct BstWalk {
    pool: Pool,
    st: St,
    cur: Option<ObjectId>,
    path: Vec<Seen>,
    /// Removal target (found during `Find`).
    target: Option<Seen>,
    /// The successor's parent during `FindSucc`, once the successor is not
    /// the target's right child.
    succ_parent: Option<Seen>,
    plan: WritePlan,
}

/// The BST transaction program.
pub type BstProgram = OpLoop<BstWalk>;

impl BstProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[BstOp]>>,
        invoking_node: usize,
        pool_size: u64,
        summary: ObjectId,
        delta: Option<i64>,
    ) -> Self {
        let walk = BstWalk::new(invoking_node, pool_size);
        OpLoop::with_machine(kind, ops, summary, delta, walk)
    }
}

impl BstWalk {
    fn new(invoking_node: usize, pool_size: u64) -> Self {
        BstWalk {
            pool: Pool::new(invoking_node, pool_size),
            st: St::RootValue,
            cur: None,
            path: Vec::new(),
            target: None,
            succ_parent: None,
            plan: WritePlan::default(),
        }
    }

    /// Fetch `oid` as the next node of the descent in `st`.
    fn descend(&mut self, st: St, oid: ObjectId) -> StepOutput {
        self.cur = Some(oid);
        self.st = st;
        StepOutput::Acquire(oid, AccessMode::Read)
    }

    /// Plan the write that points the link to the current descent position
    /// — the last path node's, or the root pointer — at `child`.
    fn link(&mut self, op: BstOp, child: Option<ObjectId>) {
        let (oid, payload) = match self.path.last() {
            None => (ROOT, Payload::Ptr(child)),
            Some(p) if op.value() < p.value => (p.oid, tree_node(p.value, child, p.right)),
            Some(p) => (p.oid, tree_node(p.value, p.left, child)),
        };
        self.plan.push(oid, payload);
        self.st = St::Plan;
    }

    fn start_alloc(&mut self) -> StepOutput {
        self.st = St::Alloc;
        self.pool.start()
    }

    fn on_find(&mut self, op: BstOp, seen: Seen) -> StepOutput {
        let v = op.value();
        if v == seen.value {
            // Found: a contains or a duplicate insert writes nothing.
            return match op {
                BstOp::Remove(_) => self.start_remove(op, seen),
                _ => StepOutput::CloseNested,
            };
        }
        let next = if v < seen.value {
            seen.left
        } else {
            seen.right
        };
        self.path.push(seen);
        match (next, op) {
            (Some(oid), _) => self.descend(St::Find, oid),
            (None, BstOp::Insert(_)) => self.start_alloc(),
            (None, _) => StepOutput::CloseNested, // contains/remove: absent
        }
    }

    fn start_remove(&mut self, op: BstOp, t: Seen) -> StepOutput {
        match (t.left, t.right) {
            // No child or one: link the parent to it.
            (child, None) | (None, child) => {
                self.link(op, child);
                self.plan.drain()
            }
            (Some(_), Some(r)) => {
                // Two children: find the in-order successor in the right
                // subtree, splice it out, move its value into the target.
                self.target = Some(t);
                self.succ_parent = None; // direct right child case
                self.descend(St::FindSucc, r)
            }
        }
    }

    fn on_find_succ(&mut self, seen: Seen) -> StepOutput {
        if let Some(l) = seen.left {
            self.succ_parent = Some(seen);
            return self.descend(St::FindSucc, l);
        }
        // `seen` is the successor.
        let t = self.target.expect("target recorded");
        match self.succ_parent {
            // Successor is the target's direct right child.
            None => self
                .plan
                .push(t.oid, tree_node(seen.value, t.left, seen.right)),
            Some(sp) => {
                self.plan
                    .push(t.oid, tree_node(seen.value, t.left, t.right));
                self.plan
                    .push(sp.oid, tree_node(sp.value, seen.right, sp.right));
            }
        }
        self.st = St::Plan;
        self.plan.drain()
    }
}

impl OpMachine for BstWalk {
    type Op = BstOp;

    const LABEL: &'static str = "bst";

    fn child_kind(op: BstOp) -> TxKind {
        match op {
            BstOp::Contains(_) => KIND_CONTAINS,
            BstOp::Insert(_) => KIND_INSERT,
            BstOp::Remove(_) => KIND_REMOVE,
        }
    }

    fn start(&mut self, _: BstOp) -> StepOutput {
        self.path.clear();
        self.plan.clear();
        self.target = None;
        self.succ_parent = None;
        self.st = St::RootValue;
        StepOutput::Acquire(ROOT, AccessMode::Read)
    }

    fn step(&mut self, op: BstOp, input: StepInput<'_>) -> StepOutput {
        match self.st {
            St::RootValue => {
                let StepInput::Value(Payload::Ptr(root)) = input else {
                    panic!("expected root pointer, got {input:?}");
                };
                match (*root, op) {
                    (Some(oid), _) => self.descend(St::Find, oid),
                    (None, BstOp::Insert(_)) => self.start_alloc(),
                    (None, _) => StepOutput::CloseNested,
                }
            }
            St::Find | St::FindSucc => {
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
                if self.st == St::Find {
                    self.on_find(op, seen)
                } else {
                    self.on_find_succ(seen)
                }
            }
            St::Alloc => match self.pool.step(input) {
                Alloc::Step(out) => out,
                Alloc::Spent => StepOutput::CloseNested,
                Alloc::Got(node) => {
                    // The new leaf's write, then the plan links it in.
                    self.link(op, Some(node));
                    StepOutput::WriteLocal(node, tree_node(op.value(), None, None))
                }
            },
            St::Plan => self.plan.drain(),
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
    out.push((oid, tree_node(values[mid], left, right)));
    Some(oid)
}

/// Build the BST workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let size = p.total_objects().min(256);
    let values: Vec<i64> = (1..=size as i64).map(|i| 2 * i).collect();
    let pool_size = (p.txns_per_node * MAX_NESTED_OPS) as u64;

    let mut objects: Vec<(ObjectId, Payload)> = Vec::new();
    let mut next_oid = NODE_BASE;
    let root = build_balanced(&values, 0, values.len(), &mut next_oid, &mut objects);
    objects.push((ROOT, Payload::Ptr(root)));
    pool_objects(p.nodes, pool_size, &tree_node(0, None, None), &mut objects);

    let value_space = 2 * size as u64 + 2;
    let programs = generate_programs(
        p,
        &mut objects,
        [KIND_BST_READER, KIND_BST_WRITER],
        |rng, read_only| {
            let v = 1 + rng.below(value_space) as i64;
            if read_only {
                BstOp::Contains(v)
            } else if rng.chance(0.5) {
                BstOp::Insert(v)
            } else {
                BstOp::Remove(v)
            }
        },
        |node| BstWalk::new(node, pool_size),
    );
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
    use hyflow_dstm::TxProgram;

    /// The trailer's summary object, added to a store by `drive`.
    const SUMMARY: ObjectId = ObjectId(3_000_000);
    use std::collections::HashMap;

    fn drive(prog: &mut BstProgram, store: &mut HashMap<ObjectId, Payload>) {
        store.entry(SUMMARY).or_insert(Payload::Scalar(0));
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
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
                SUMMARY,
                Some(1),
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
            SUMMARY,
            None,
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
        );
        drive(&mut prog, &mut store);
        let v = inorder(&store);
        assert!(v.contains(&1));
        assert!(!v.contains(&99));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}
