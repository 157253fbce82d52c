//! Red/Black Tree (RB-Tree) microbenchmark (§IV-A).
//!
//! A balanced search tree over distributed `TreeNode` objects with full
//! insert rebalancing (recoloring + rotations). The program keeps a **local
//! model** of every node fetched during the descent; the CLRS insert-fixup
//! runs against that model, suspending only when it needs an *uncle* node
//! that the descent did not visit (one extra fetch per recoloring step).
//! When the fixup converges, the model is diffed against the as-fetched
//! baseline and the changed nodes (plus possibly the root pointer) become
//! transactional writes — all on already-held objects except the fetched
//! uncles.
//!
//! Rebalancing writes touch nodes high in the tree, which is what gives the
//! RB-Tree more write-write contention than the plain BST at the same op
//! mix.

use crate::op_loop::{generate_programs, pool_objects, Alloc, OpLoop, OpMachine, Pool, WritePlan};
use crate::params::{WorkloadParams, MAX_NESTED_OPS};
use hyflow_dstm::program::{AccessMode, StepInput, StepOutput};
use hyflow_dstm::{Payload, WorkloadSource};
use rts_core::{FxHashMap, ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_RB_READER: TxKind = TxKind(50);
pub const KIND_RB_WRITER: TxKind = TxKind(51);
pub const KIND_CONTAINS: TxKind = TxKind(52);
pub const KIND_INSERT: TxKind = TxKind(53);

pub const ROOT: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;

/// One RB operation (inserts and lookups, per the STAMP-style RB workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RbOp {
    Contains(i64),
    Insert(i64),
}

impl RbOp {
    fn value(self) -> i64 {
        match self {
            RbOp::Contains(v) | RbOp::Insert(v) => v,
        }
    }
}

/// Local view of a tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tn {
    value: i64,
    left: Option<ObjectId>,
    right: Option<ObjectId>,
    red: bool,
}

impl Tn {
    fn payload(&self) -> Payload {
        Payload::TreeNode {
            value: self.value,
            left: self.left,
            right: self.right,
            red: self.red,
        }
    }

    fn from_payload(p: &Payload) -> Tn {
        let Payload::TreeNode {
            value,
            left,
            right,
            red,
        } = p
        else {
            panic!("expected tree node, got {p:?}");
        };
        Tn {
            value: *value,
            left: *left,
            right: *right,
            red: *red,
        }
    }
}

/// Outcome of one fixup pass over the local model.
enum Fixup {
    /// Need this uncle (child of `parent_hint`) fetched into the model.
    NeedUncle {
        uncle: ObjectId,
        parent_hint: ObjectId,
    },
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    RootValue,
    Descend,
    /// Allocating the inserted node from the pool.
    Alloc,
    /// Suspended fixup: waiting for an uncle node's payload.
    UncleGot,
    /// Draining the write plan.
    Plan,
}

/// One RB-Tree operation: the descent, and for an insert the new red node
/// spliced into the local model, the fixup and the diff as a write plan.
/// The model (three maps), the fixup cursor and the plan live inside one
/// operation and are cleared when the next starts, so a retry keeps none
/// of them.
#[derive(Clone, Debug)]
pub struct RbWalk {
    pool: Pool,
    st: St,
    cur: Option<ObjectId>,
    // Local model of the subtree seen so far.
    nodes: FxHashMap<ObjectId, Tn>,
    baseline: FxHashMap<ObjectId, Tn>,
    parent: FxHashMap<ObjectId, ObjectId>,
    root: Option<ObjectId>,
    baseline_root: Option<ObjectId>,
    /// Node the fixup is currently repairing.
    fix: Option<ObjectId>,
    /// Parent of the uncle being fetched (to index it into the model).
    pending_uncle: Option<(ObjectId, ObjectId)>,
    plan: WritePlan,
}

/// The RB-Tree transaction program.
pub type RbProgram = OpLoop<RbWalk>;

impl RbProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[RbOp]>>,
        invoking_node: usize,
        pool_size: u64,
        summary: ObjectId,
        delta: Option<i64>,
    ) -> Self {
        let walk = RbWalk::new(invoking_node, pool_size);
        OpLoop::with_machine(kind, ops, summary, delta, walk)
    }
}

impl RbWalk {
    fn new(invoking_node: usize, pool_size: u64) -> Self {
        RbWalk {
            pool: Pool::new(invoking_node, pool_size),
            st: St::RootValue,
            cur: None,
            nodes: FxHashMap::default(),
            baseline: FxHashMap::default(),
            parent: FxHashMap::default(),
            root: None,
            baseline_root: None,
            fix: None,
            pending_uncle: None,
            plan: WritePlan::default(),
        }
    }

    // -- model manipulation -------------------------------------------------

    fn set_child(&mut self, node: ObjectId, left: bool, child: Option<ObjectId>) {
        let n = self.nodes.get_mut(&node).expect("node in model");
        if left {
            n.left = child;
        } else {
            n.right = child;
        }
        if let Some(c) = child {
            self.parent.insert(c, node);
        }
    }

    fn is_left_child(&self, parent: ObjectId, child: ObjectId) -> bool {
        self.nodes[&parent].left == Some(child)
    }

    /// Replace `old`'s position under its parent (or the root) with `new`.
    fn replace_in_parent(&mut self, old: ObjectId, new: ObjectId) {
        match self.parent.get(&old).copied() {
            Some(p) => {
                let left = self.is_left_child(p, old);
                self.set_child(p, left, Some(new));
            }
            None => {
                self.root = Some(new);
                self.parent.remove(&new);
            }
        }
    }

    /// Left-rotate around `x` (x.right becomes x's parent).
    fn rotate_left(&mut self, x: ObjectId) {
        let y = self.nodes[&x].right.expect("rotate_left needs right child");
        let y_left = self.nodes[&y].left;
        self.replace_in_parent(x, y);
        self.set_child(y, true, Some(x));
        let xn = self.nodes.get_mut(&x).expect("x in model");
        xn.right = y_left;
        if let Some(c) = y_left {
            self.parent.insert(c, x);
        }
    }

    /// Right-rotate around `x` (x.left becomes x's parent).
    fn rotate_right(&mut self, x: ObjectId) {
        let y = self.nodes[&x].left.expect("rotate_right needs left child");
        let y_right = self.nodes[&y].right;
        self.replace_in_parent(x, y);
        self.set_child(y, false, Some(x));
        let xn = self.nodes.get_mut(&x).expect("x in model");
        xn.left = y_right;
        if let Some(c) = y_right {
            self.parent.insert(c, x);
        }
    }

    /// One pass of the CLRS insert-fixup over the model, starting at
    /// `self.fix`. Suspends when an unfetched uncle is needed.
    fn fixup(&mut self) -> Fixup {
        loop {
            let z = self.fix.expect("fixup target set");
            let Some(p) = self.parent.get(&z).copied() else {
                // z is the root: blacken and finish.
                self.nodes.get_mut(&z).expect("root in model").red = false;
                return Fixup::Done;
            };
            if !self.nodes[&p].red {
                return Fixup::Done;
            }
            // p is red, hence not the root, hence has a parent.
            let g = self
                .parent
                .get(&p)
                .copied()
                .expect("red node cannot be the root");
            let p_left = self.is_left_child(g, p);
            let uncle = if p_left {
                self.nodes[&g].right
            } else {
                self.nodes[&g].left
            };
            if let Some(u) = uncle {
                if !self.nodes.contains_key(&u) {
                    return Fixup::NeedUncle {
                        uncle: u,
                        parent_hint: g,
                    };
                }
                if self.nodes[&u].red {
                    // Case 1: recolor and continue from the grandparent.
                    self.nodes.get_mut(&p).expect("p").red = false;
                    self.nodes.get_mut(&u).expect("u").red = false;
                    self.nodes.get_mut(&g).expect("g").red = true;
                    self.fix = Some(g);
                    continue;
                }
            }
            // Cases 2/3: uncle black (or nil): rotate.
            let z_inner = if p_left {
                !self.is_left_child(p, z)
            } else {
                self.is_left_child(p, z)
            };
            let p_final = if z_inner {
                // Case 2: rotate p to turn the inner child outward.
                if p_left {
                    self.rotate_left(p);
                } else {
                    self.rotate_right(p);
                }
                z
            } else {
                p
            };
            self.nodes.get_mut(&p_final).expect("pivot").red = false;
            self.nodes.get_mut(&g).expect("g").red = true;
            if p_left {
                self.rotate_right(g);
            } else {
                self.rotate_left(g);
            }
            return Fixup::Done;
        }
    }

    /// Fixup finished: diff the model against the baseline into the plan.
    fn emit_plan(&mut self) -> StepOutput {
        for (oid, tn) in &self.nodes {
            if self.baseline.get(oid) != Some(tn) {
                self.plan.push(*oid, tn.payload());
            }
        }
        // Object order, not the map's: the writes reach the simulation.
        self.plan.sort();
        if self.root != self.baseline_root {
            self.plan.push(ROOT, Payload::Ptr(self.root));
        }
        self.st = St::Plan;
        self.plan.drain()
    }

    fn resume_fixup(&mut self) -> StepOutput {
        match self.fixup() {
            Fixup::Done => self.emit_plan(),
            Fixup::NeedUncle { uncle, parent_hint } => {
                self.pending_uncle = Some((uncle, parent_hint));
                self.st = St::UncleGot;
                StepOutput::Acquire(uncle, AccessMode::Read)
            }
        }
    }

    fn record(&mut self, oid: ObjectId, tn: Tn, parent: Option<ObjectId>) {
        self.nodes.insert(oid, tn);
        self.baseline.insert(oid, tn);
        if let Some(p) = parent {
            self.parent.insert(oid, p);
        }
    }

    fn start_alloc(&mut self) -> StepOutput {
        self.st = St::Alloc;
        self.pool.start()
    }
}

impl OpMachine for RbWalk {
    type Op = RbOp;

    const LABEL: &'static str = "rb-tree";

    fn child_kind(op: RbOp) -> TxKind {
        match op {
            RbOp::Contains(_) => KIND_CONTAINS,
            RbOp::Insert(_) => KIND_INSERT,
        }
    }

    fn start(&mut self, _: RbOp) -> StepOutput {
        self.nodes.clear();
        self.baseline.clear();
        self.parent.clear();
        self.plan.clear();
        self.fix = None;
        self.pending_uncle = None;
        self.st = St::RootValue;
        StepOutput::Acquire(ROOT, AccessMode::Read)
    }

    fn step(&mut self, op: RbOp, input: StepInput<'_>) -> StepOutput {
        match self.st {
            St::RootValue => {
                let StepInput::Value(Payload::Ptr(root)) = input else {
                    panic!("expected root pointer, got {input:?}");
                };
                self.root = *root;
                self.baseline_root = *root;
                match (*root, op) {
                    (Some(oid), _) => {
                        self.cur = Some(oid);
                        self.st = St::Descend;
                        StepOutput::Acquire(oid, AccessMode::Read)
                    }
                    (None, RbOp::Insert(_)) => self.start_alloc(),
                    (None, RbOp::Contains(_)) => StepOutput::CloseNested,
                }
            }
            St::Descend => {
                let StepInput::Value(p) = input else {
                    panic!("expected node payload, got {input:?}");
                };
                let tn = Tn::from_payload(p);
                let oid = self.cur.expect("descending a real node");
                // The parent recorded on the way down (none for the first node).
                let parent = self.parent.get(&oid).copied();
                self.record(oid, tn, parent);
                let v = op.value();
                if v == tn.value {
                    return StepOutput::CloseNested; // found (contains) / duplicate (insert)
                }
                let next = if v < tn.value { tn.left } else { tn.right };
                match (next, op) {
                    (Some(c), _) => {
                        self.parent.insert(c, oid);
                        self.cur = Some(c);
                        StepOutput::Acquire(c, AccessMode::Read)
                    }
                    (None, RbOp::Insert(_)) => self.start_alloc(),
                    (None, RbOp::Contains(_)) => StepOutput::CloseNested,
                }
            }
            St::Alloc => match self.pool.step(input) {
                Alloc::Step(out) => out,
                Alloc::Spent => StepOutput::CloseNested,
                Alloc::Got(new) => {
                    // Splice the new red node into the model, then rebalance.
                    let v = op.value();
                    let tn = Tn {
                        value: v,
                        left: None,
                        right: None,
                        red: true,
                    };
                    self.nodes.insert(new, tn);
                    // Note: intentionally absent from `baseline`, so the diff
                    // always emits the new node's write.
                    match self.cur {
                        Some(leaf) if self.root.is_some() => {
                            let left = v < self.nodes[&leaf].value;
                            self.set_child(leaf, left, Some(new));
                        }
                        _ => {
                            self.root = Some(new);
                        }
                    }
                    self.fix = Some(new);
                    self.resume_fixup()
                }
            },
            St::UncleGot => {
                let StepInput::Value(p) = input else {
                    panic!("expected uncle payload, got {input:?}");
                };
                let (uncle, parent_hint) = self.pending_uncle.take().expect("uncle pending");
                let tn = Tn::from_payload(p);
                self.record(uncle, tn, Some(parent_hint));
                self.resume_fixup()
            }
            St::Plan => self.plan.drain(),
        }
    }
}

/// Build a balanced RB tree: perfectly balanced BST, deepest level red.
fn build_balanced(
    values: &[i64],
    lo: usize,
    hi: usize,
    depth: usize,
    max_depth: usize,
    next_oid: &mut u64,
    out: &mut Vec<(ObjectId, Payload)>,
) -> Option<ObjectId> {
    if lo >= hi {
        return None;
    }
    let mid = (lo + hi) / 2;
    let oid = ObjectId(*next_oid);
    *next_oid += 1;
    let left = build_balanced(values, lo, mid, depth + 1, max_depth, next_oid, out);
    let right = build_balanced(values, mid + 1, hi, depth + 1, max_depth, next_oid, out);
    out.push((
        oid,
        Payload::TreeNode {
            value: values[mid],
            left,
            right,
            red: depth == max_depth && depth > 0,
        },
    ));
    Some(oid)
}

/// Build the RB-Tree workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let size = p.total_objects().min(256);
    let values: Vec<i64> = (1..=size as i64).map(|i| 2 * i).collect();
    let pool_size = (p.txns_per_node * MAX_NESTED_OPS) as u64;
    let max_depth = (usize::BITS - (size.max(1)).leading_zeros()) as usize - 1;

    let mut objects: Vec<(ObjectId, Payload)> = Vec::new();
    let mut next_oid = NODE_BASE;
    let root = build_balanced(
        &values,
        0,
        values.len(),
        0,
        max_depth,
        &mut next_oid,
        &mut objects,
    );
    objects.push((ROOT, Payload::Ptr(root)));
    let spare = Payload::TreeNode {
        value: 0,
        left: None,
        right: None,
        red: false,
    };
    pool_objects(p.nodes, pool_size, &spare, &mut objects);

    let value_space = 2 * size as u64 + 2;
    let programs = generate_programs(
        p,
        &mut objects,
        [KIND_RB_READER, KIND_RB_WRITER],
        |rng, read_only| {
            let v = 1 + rng.below(value_space) as i64;
            if read_only {
                RbOp::Contains(v)
            } else {
                RbOp::Insert(v)
            }
        },
        |node| RbWalk::new(node, pool_size),
    );
    WorkloadSource { objects, programs }
}

/// Validate red-black invariants over a committed state: BST order, root
/// black, no red-red edge, equal black height on all root→nil paths.
pub fn check_rb(state: &std::collections::HashMap<ObjectId, (Payload, u64)>) -> Result<(), String> {
    fn walk(
        state: &std::collections::HashMap<ObjectId, (Payload, u64)>,
        node: Option<ObjectId>,
        lo: Option<i64>,
        hi: Option<i64>,
        budget: &mut usize,
    ) -> Result<usize, String> {
        let Some(oid) = node else { return Ok(1) };
        if *budget == 0 {
            return Err("cycle suspected".into());
        }
        *budget -= 1;
        let (payload, _) = state
            .get(&oid)
            .ok_or_else(|| format!("dangling link to {oid:?}"))?;
        let Payload::TreeNode {
            value,
            left,
            right,
            red,
        } = payload
        else {
            return Err(format!("non-tree payload at {oid:?}"));
        };
        if lo.is_some_and(|l| *value <= l) || hi.is_some_and(|h| *value >= h) {
            return Err(format!("BST order violated at {oid:?}"));
        }
        if *red {
            for c in [left, right].into_iter().flatten() {
                if let Some((Payload::TreeNode { red: cr, .. }, _)) = state.get(c) {
                    if *cr {
                        return Err(format!("red-red edge at {oid:?} -> {c:?}"));
                    }
                }
            }
        }
        let bl = walk(state, *left, lo, Some(*value), budget)?;
        let br = walk(state, *right, Some(*value), hi, budget)?;
        if bl != br {
            return Err(format!("black height mismatch at {oid:?}: {bl} vs {br}"));
        }
        Ok(bl + usize::from(!*red))
    }

    let (rootp, _) = state.get(&ROOT).ok_or("missing root pointer")?;
    let root = rootp.as_ptr();
    if let Some(r) = root {
        if let Some((Payload::TreeNode { red, .. }, _)) = state.get(&r) {
            if *red {
                return Err("root is red".into());
            }
        }
    }
    let mut budget = state.len();
    walk(state, root, None, None, &mut budget).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op_loop::{COUNTER_BASE, POOL_BASE};
    use hyflow_dstm::TxProgram;

    /// The trailer's summary object, added to a store by `drive`.
    const SUMMARY: ObjectId = ObjectId(3_000_000);
    use std::collections::HashMap;

    fn drive(prog: &mut RbProgram, store: &mut HashMap<ObjectId, Payload>) {
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

    fn as_state(store: &HashMap<ObjectId, Payload>) -> HashMap<ObjectId, (Payload, u64)> {
        store.iter().map(|(k, v)| (*k, (v.clone(), 0))).collect()
    }

    fn params() -> WorkloadParams {
        WorkloadParams {
            nodes: 2,
            objects_per_node: 8,
            txns_per_node: 10,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn initial_tree_is_valid_rb() {
        for opn in [1usize, 3, 5, 8, 13] {
            let p = WorkloadParams {
                objects_per_node: opn,
                ..params()
            };
            let w = generate(&p);
            let state: HashMap<ObjectId, (Payload, u64)> = w
                .objects
                .iter()
                .map(|(k, v)| (*k, (v.clone(), 0)))
                .collect();
            check_rb(&state).unwrap_or_else(|e| panic!("size {}: {e}", p.total_objects()));
        }
    }

    #[test]
    fn insert_into_empty_tree() {
        let mut store: HashMap<ObjectId, Payload> = HashMap::new();
        store.insert(ROOT, Payload::Ptr(None));
        store.insert(ObjectId(COUNTER_BASE), Payload::Scalar(0));
        for k in 0..8 {
            store.insert(
                ObjectId(POOL_BASE + k),
                Payload::TreeNode {
                    value: 0,
                    left: None,
                    right: None,
                    red: false,
                },
            );
        }
        let mut prog = RbProgram::new(
            KIND_RB_WRITER,
            vec![RbOp::Insert(5)],
            0,
            8,
            SUMMARY,
            Some(1),
        );
        drive(&mut prog, &mut store);
        let state = as_state(&store);
        check_rb(&state).unwrap();
        let (rootp, _) = &state[&ROOT];
        let root = rootp.as_ptr().expect("tree non-empty");
        let (Payload::TreeNode { value, red, .. }, _) = &state[&root] else {
            panic!("root not a node");
        };
        assert_eq!(*value, 5);
        assert!(!red, "root must be black");
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        // The classic RB stress: monotone insertion order.
        let mut store: HashMap<ObjectId, Payload> = HashMap::new();
        store.insert(ROOT, Payload::Ptr(None));
        store.insert(ObjectId(COUNTER_BASE), Payload::Scalar(0));
        let n = 64u64;
        for k in 0..n {
            store.insert(
                ObjectId(POOL_BASE + k),
                Payload::TreeNode {
                    value: 0,
                    left: None,
                    right: None,
                    red: false,
                },
            );
        }
        for v in 1..=n as i64 {
            let mut prog = RbProgram::new(
                KIND_RB_WRITER,
                vec![RbOp::Insert(v)],
                0,
                n,
                SUMMARY,
                Some(1),
            );
            drive(&mut prog, &mut store);
            check_rb(&as_state(&store)).unwrap_or_else(|e| panic!("after insert {v}: {e}"));
        }
        // All n values present.
        let state = as_state(&store);
        let mut count = 0;
        let mut stack = vec![state[&ROOT].0.as_ptr()];
        while let Some(n) = stack.pop() {
            if let Some(oid) = n {
                let (Payload::TreeNode { left, right, .. }, _) = &state[&oid] else {
                    panic!()
                };
                count += 1;
                stack.push(*left);
                stack.push(*right);
            }
        }
        assert_eq!(count, 64);
    }

    #[test]
    fn random_inserts_preserve_invariants() {
        let p = params();
        let w = generate(&p);
        let mut store: HashMap<ObjectId, Payload> = w.objects.into_iter().collect();
        let mut rng = dstm_sim::SimRng::new(77);
        for i in 0..60 {
            let v = 1 + rng.below(80) as i64;
            let mut prog = RbProgram::new(
                KIND_RB_WRITER,
                vec![RbOp::Insert(v)],
                0,
                (p.txns_per_node * MAX_NESTED_OPS) as u64,
                SUMMARY,
                Some(1),
            );
            drive(&mut prog, &mut store);
            check_rb(&as_state(&store)).unwrap_or_else(|e| panic!("after insert #{i} ({v}): {e}"));
        }
    }

    #[test]
    fn contains_is_readonly() {
        let p = params();
        let w = generate(&p);
        let mut store: HashMap<ObjectId, Payload> = w.objects.into_iter().collect();
        let before = store.clone();
        let mut prog = RbProgram::new(
            KIND_RB_READER,
            vec![RbOp::Contains(4), RbOp::Contains(5), RbOp::Contains(99)],
            0,
            8,
            SUMMARY,
            None,
        );
        drive(&mut prog, &mut store);
        assert_eq!(store.len(), before.len());
        for (k, v) in &before {
            assert_eq!(&store[k], v);
        }
    }
}
