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

use crate::params::WorkloadParams;
use crate::{op_checkpoint, op_position};
use dstm_sim::SimDuration;
use hyflow_dstm::program::{
    AccessMode, ProgramCheckpoint, StepInput, StepOutput, TxProgram, WithTrailer,
};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{FxHashMap, ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_RB_READER: TxKind = TxKind(50);
pub const KIND_RB_WRITER: TxKind = TxKind(51);
pub const KIND_CONTAINS: TxKind = TxKind(52);
pub const KIND_INSERT: TxKind = TxKind(53);

pub const ROOT: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;
const COUNTER_BASE: u64 = 1_000_000;
const POOL_BASE: u64 = 2_000_000;
/// Parent-level summary/statistics objects, touched after the nested ops
/// (Fig. 1's trailing top-level access; see DESIGN.md).
const SUMMARY_BASE: u64 = 3_000_000;

/// One RB operation (inserts and lookups, per the STAMP-style RB workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RbOp {
    Contains(i64),
    Insert(i64),
}

impl RbOp {
    fn child_kind(self) -> TxKind {
        match self {
            RbOp::Contains(_) => KIND_CONTAINS,
            RbOp::Insert(_) => KIND_INSERT,
        }
    }

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

#[derive(Clone, Debug, PartialEq, Eq)]
enum St {
    NextOp,
    OpenAck,
    RootValue,
    Descend,
    CounterGot,
    CounterWritten,
    PoolGot,
    /// Suspended fixup: waiting for an uncle node's payload.
    UncleGot,
    /// Draining the write plan.
    PlanGot,
    CloseOp,
    Closed,
    Gap,
}

/// The RB-Tree transaction program.
///
/// The local model (three maps), the fixup cursor and the write plan live
/// inside one operation: `OpenAck` clears them before anything reads them,
/// and every level boundary lies at `NextOp` (attempt start) or `OpenAck`
/// (behind an `OpenNested`). So the checkpoint is the operation index and
/// which of the two — a retry rewinds two fields where a `clone_box` copies
/// the maps of the operation before.
#[derive(Clone, Debug)]
pub struct RbProgram {
    kind: TxKind,
    /// Immutable and shared, so a `clone_box` copies a pointer.
    ops: Arc<[RbOp]>,
    counter: ObjectId,
    pool_base: u64,
    pool_size: u64,
    compute: SimDuration,
    op_idx: usize,
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
    new_node: Option<ObjectId>,
    plan: Vec<(ObjectId, Payload)>,
}

impl RbProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[RbOp]>>,
        invoking_node: usize,
        pool_size: u64,
        compute: SimDuration,
    ) -> Self {
        RbProgram {
            kind,
            ops: ops.into(),
            counter: ObjectId(COUNTER_BASE + invoking_node as u64),
            pool_base: POOL_BASE + invoking_node as u64 * pool_size,
            pool_size,
            compute,
            op_idx: 0,
            st: St::NextOp,
            cur: None,
            nodes: FxHashMap::default(),
            baseline: FxHashMap::default(),
            parent: FxHashMap::default(),
            root: None,
            baseline_root: None,
            fix: None,
            pending_uncle: None,
            new_node: None,
            plan: Vec::new(),
        }
    }

    fn op(&self) -> RbOp {
        self.ops[self.op_idx]
    }

    fn close(&mut self) -> StepOutput {
        self.st = St::Closed;
        StepOutput::CloseNested
    }

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
        let mut writes: Vec<(ObjectId, Payload)> = Vec::new();
        for (oid, tn) in &self.nodes {
            if self.baseline.get(oid) != Some(tn) {
                writes.push((*oid, tn.payload()));
            }
        }
        // Object order, not the map's: the writes reach the simulation.
        writes.sort_by_key(|(oid, _)| *oid);
        if self.root != self.baseline_root {
            writes.push((ROOT, Payload::Ptr(self.root)));
        }
        self.plan = writes;
        self.drain_plan()
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
        self.st = St::CounterGot;
        StepOutput::Acquire(self.counter, AccessMode::Write)
    }
}

impl TxProgram for RbProgram {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        "rb-tree"
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
                self.nodes.clear();
                self.baseline.clear();
                self.parent.clear();
                self.plan.clear();
                self.fix = None;
                self.pending_uncle = None;
                self.new_node = None;
                self.st = St::RootValue;
                StepOutput::Acquire(ROOT, AccessMode::Read)
            }
            St::RootValue => {
                let StepInput::Value(Payload::Ptr(root)) = input else {
                    panic!("expected root pointer, got {input:?}");
                };
                self.root = *root;
                self.baseline_root = *root;
                match *root {
                    Some(oid) => {
                        self.cur = Some(oid);
                        self.st = St::Descend;
                        StepOutput::Acquire(oid, AccessMode::Read)
                    }
                    None => match self.op() {
                        RbOp::Insert(_) => self.start_alloc(),
                        RbOp::Contains(_) => self.close(),
                    },
                }
            }
            St::Descend => {
                let StepInput::Value(p) = input else {
                    panic!("expected node payload, got {input:?}");
                };
                let tn = Tn::from_payload(p);
                let oid = self.cur.expect("descending a real node");
                let parent = self.parent_of_descent(oid);
                self.record(oid, tn, parent);
                let v = self.op().value();
                if v == tn.value {
                    return self.close(); // found (contains) / duplicate (insert)
                }
                let next = if v < tn.value { tn.left } else { tn.right };
                match next {
                    Some(c) => {
                        self.parent.insert(c, oid);
                        self.cur = Some(c);
                        self.st = St::Descend;
                        StepOutput::Acquire(c, AccessMode::Read)
                    }
                    None => match self.op() {
                        RbOp::Insert(_) => self.start_alloc(),
                        RbOp::Contains(_) => self.close(),
                    },
                }
            }
            St::CounterGot => {
                let StepInput::Value(Payload::Scalar(c)) = input else {
                    panic!("expected counter, got {input:?}");
                };
                let c = *c;
                if (c as u64) >= self.pool_size {
                    return self.close();
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
                // Splice the new red node into the model, then rebalance.
                let new = self.new_node.expect("allocated");
                let v = self.op().value();
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
            St::UncleGot => {
                let StepInput::Value(p) = input else {
                    panic!("expected uncle payload, got {input:?}");
                };
                let (uncle, parent_hint) = self.pending_uncle.take().expect("uncle pending");
                let tn = Tn::from_payload(p);
                self.record(uncle, tn, Some(parent_hint));
                self.resume_fixup()
            }
            St::PlanGot => {
                let (oid, payload) = self.plan.remove(0);
                self.st = St::CloseOp;
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

impl RbProgram {
    /// The parent of `oid` as recorded during the descent (None for the
    /// descent's first node).
    fn parent_of_descent(&self, oid: ObjectId) -> Option<ObjectId> {
        self.parent.get(&oid).copied()
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
    let pool_size = (p.txns_per_node * p.max_nested_ops) as u64;
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
                KIND_RB_READER
            } else {
                KIND_RB_WRITER
            };
            // Collected straight into the shared list: one allocation.
            let ops: Arc<[RbOp]> = (0..nested)
                .map(|_| {
                    let v = 1 + rng.below(value_space) as i64;
                    if read_only {
                        RbOp::Contains(v)
                    } else {
                        RbOp::Insert(v)
                    }
                })
                .collect();
            let summary = ObjectId(SUMMARY_BASE + rng.below(summary_count));
            let delta = if read_only { None } else { Some(1) };
            queue.push(Box::new(WithTrailer::new(
                RbProgram::new(kind, ops, node, pool_size, p.compute),
                summary,
                delta,
            )));
        }
        programs.push(queue);
    }
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
    use std::collections::HashMap;

    fn drive(prog: &mut RbProgram, store: &mut HashMap<ObjectId, Payload>) {
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
            SimDuration::from_micros(1),
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
                SimDuration::from_micros(1),
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
                (p.txns_per_node * p.max_nested_ops) as u64,
                SimDuration::from_micros(1),
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
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        assert_eq!(store.len(), before.len());
        for (k, v) in &before {
            assert_eq!(&store[k], v);
        }
    }
}
