//! Linked-List (LL) — sorted singly linked list microbenchmark (§IV-A).
//!
//! Objects: a head pointer, the pre-populated chain of `ListNode`s, and
//! per-invoking-node allocation pools (a pool counter + pre-provisioned
//! spare nodes) for inserts. A parent transaction runs a random number of
//! nested operations; each `contains` / `insert` / `remove` is one
//! closed-nested child whose traversal fetches nodes one hop at a time —
//! the canonical "many remote fetches per transaction" workload where
//! re-fetching after a parent abort is expensive, i.e. exactly the case RTS
//! targets.

use crate::params::WorkloadParams;
use crate::{op_checkpoint, op_position};
use dstm_sim::SimDuration;
use hyflow_dstm::program::{
    AccessMode, ProgramCheckpoint, StepInput, StepOutput, TxProgram, WithTrailer,
};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_LL_READER: TxKind = TxKind(30);
pub const KIND_LL_WRITER: TxKind = TxKind(31);
pub const KIND_CONTAINS: TxKind = TxKind(32);
pub const KIND_INSERT: TxKind = TxKind(33);
pub const KIND_REMOVE: TxKind = TxKind(34);

pub const HEAD: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;
const COUNTER_BASE: u64 = 1_000_000;
const POOL_BASE: u64 = 2_000_000;
/// Parent-level summary/statistics objects, touched after the nested ops
/// (Fig. 1's trailing top-level access; see DESIGN.md).
const SUMMARY_BASE: u64 = 3_000_000;

/// One list operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListOp {
    Contains(i64),
    Insert(i64),
    Remove(i64),
}

impl ListOp {
    fn child_kind(self) -> TxKind {
        match self {
            ListOp::Contains(_) => KIND_CONTAINS,
            ListOp::Insert(_) => KIND_INSERT,
            ListOp::Remove(_) => KIND_REMOVE,
        }
    }

    fn value(self) -> i64 {
        match self {
            ListOp::Contains(v) | ListOp::Insert(v) | ListOp::Remove(v) => v,
        }
    }
}

/// Where the `next` link we may rewrite lives.
#[derive(Clone, Copy, Debug)]
enum PrevLink {
    Head,
    Node(ObjectId),
}

impl PrevLink {
    fn oid(self) -> ObjectId {
        match self {
            PrevLink::Head => HEAD,
            PrevLink::Node(o) => o,
        }
    }

    /// Rebuild the previous object's payload with a new `next` link.
    fn relink(self, old: &Payload, next: Option<ObjectId>) -> Payload {
        match (self, old) {
            (PrevLink::Head, Payload::Ptr(_)) => Payload::Ptr(next),
            (PrevLink::Node(_), Payload::ListNode { value, .. }) => Payload::ListNode {
                value: *value,
                next,
            },
            (link, other) => panic!("bad prev payload for {link:?}: {other:?}"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    /// Between operations: emit `OpenNested` or `Finish`.
    NextOp,
    /// `OpenNested` acked: read the head pointer.
    OpenAck,
    /// Head pointer value arrived.
    HeadValue,
    /// A `ListNode` for `cur` arrived.
    NodeValue,
    /// Allocation: counter value arrived (write it back +1).
    CounterGot,
    /// Counter write acked: acquire the fresh pool node.
    CounterWritten,
    /// Pool node value arrived (overwrite with the new payload).
    PoolGot,
    /// New node written: acquire `prev` for linking.
    NodeWritten,
    /// Prev payload arrived: rewrite its next link to `link_to`.
    PrevGot,
    /// Link write acked: close the nested op.
    LinkDone,
    /// `CloseNested` acked: emit the inter-op compute gap.
    Closed,
    /// Compute acked: next operation.
    Gap,
}

/// The LL transaction program.
///
/// Every level boundary lies between operations (`NextOp`, at attempt
/// start) or right behind an `OpenNested` (`OpenAck`), and `OpenAck` resets
/// the traversal state before anything reads it: the checkpoint is the
/// operation index and which of the two states.
#[derive(Clone, Debug)]
pub struct ListProgram {
    kind: TxKind,
    /// Immutable and shared, so a `clone_box` copies a pointer.
    ops: Arc<[ListOp]>,
    counter: ObjectId,
    pool_base: u64,
    pool_size: u64,
    compute: SimDuration,
    op_idx: usize,
    st: St,
    prev: PrevLink,
    cur: Option<ObjectId>,
    /// `next` of the node being removed / insertion point.
    link_to: Option<ObjectId>,
    /// Allocated pool slot for an in-flight insert.
    new_node: Option<ObjectId>,
}

impl ListProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[ListOp]>>,
        invoking_node: usize,
        pool_size: u64,
        compute: SimDuration,
    ) -> Self {
        ListProgram {
            kind,
            ops: ops.into(),
            counter: ObjectId(COUNTER_BASE + invoking_node as u64),
            pool_base: POOL_BASE + invoking_node as u64 * pool_size,
            pool_size,
            compute,
            op_idx: 0,
            st: St::NextOp,
            prev: PrevLink::Head,
            cur: None,
            link_to: None,
            new_node: None,
        }
    }

    fn op(&self) -> ListOp {
        self.ops[self.op_idx]
    }
}

impl TxProgram for ListProgram {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        "linked-list"
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
        match self.st {
            St::NextOp => {
                if self.op_idx >= self.ops.len() {
                    return StepOutput::Finish;
                }
                self.st = St::OpenAck;
                StepOutput::OpenNested(self.op().child_kind())
            }
            St::OpenAck => {
                self.prev = PrevLink::Head;
                self.cur = None;
                self.new_node = None;
                self.st = St::HeadValue;
                StepOutput::Acquire(HEAD, AccessMode::Read)
            }
            St::HeadValue => {
                let StepInput::Value(Payload::Ptr(first)) = input else {
                    panic!("expected head pointer, got {input:?}");
                };
                self.cur = *first;
                self.continue_walk()
            }
            St::NodeValue => {
                let StepInput::Value(Payload::ListNode { value, next }) = input else {
                    panic!("expected list node, got {input:?}");
                };
                self.advance_traversal(Some((*value, *next)))
            }
            St::CounterGot => {
                let StepInput::Value(Payload::Scalar(c)) = input else {
                    panic!("expected counter, got {input:?}");
                };
                let c = *c;
                if (c as u64) >= self.pool_size {
                    // Pool exhausted: degrade to a no-op (documented).
                    self.st = St::Closed;
                    return StepOutput::CloseNested;
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
                self.st = St::NodeWritten;
                StepOutput::WriteLocal(
                    self.new_node.expect("allocated"),
                    Payload::ListNode {
                        value: self.op().value(),
                        next: self.cur,
                    },
                )
            }
            St::NodeWritten => {
                self.st = St::PrevGot;
                self.link_to = self.new_node;
                StepOutput::Acquire(self.prev.oid(), AccessMode::Write)
            }
            St::PrevGot => {
                let StepInput::Value(old) = input else {
                    panic!("expected prev payload, got {input:?}");
                };
                let payload = self.prev.relink(old, self.link_to);
                self.st = St::LinkDone;
                StepOutput::WriteLocal(self.prev.oid(), payload)
            }
            St::LinkDone => {
                self.st = St::Closed;
                StepOutput::CloseNested
            }
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

impl ListProgram {
    /// Decide the next move given the current node's contents (`None` for
    /// "cur is past the end").
    fn advance_traversal(&mut self, node: Option<(i64, Option<ObjectId>)>) -> StepOutput {
        let target = self.op().value();
        if let Some((value, next)) = node {
            if value < target {
                // Keep walking.
                self.prev = PrevLink::Node(self.cur.expect("walking a real node"));
                self.cur = next;
                return self.continue_walk();
            }
            // value >= target: decide per op.
            return match self.op() {
                ListOp::Contains(_) => {
                    self.st = St::Closed;
                    StepOutput::CloseNested
                }
                ListOp::Insert(_) if value == target => {
                    // Already present: no-op.
                    self.st = St::Closed;
                    StepOutput::CloseNested
                }
                ListOp::Insert(_) => self.start_alloc(),
                ListOp::Remove(_) if value == target => {
                    // Unlink: prev.next = cur.next.
                    self.link_to = next;
                    self.st = St::PrevGot;
                    StepOutput::Acquire(self.prev.oid(), AccessMode::Write)
                }
                ListOp::Remove(_) => {
                    // Not present: no-op.
                    self.st = St::Closed;
                    StepOutput::CloseNested
                }
            };
        }
        // Ran off the end of the list.
        match self.op() {
            ListOp::Insert(_) => self.start_alloc(),
            _ => {
                self.st = St::Closed;
                StepOutput::CloseNested
            }
        }
    }

    fn continue_walk(&mut self) -> StepOutput {
        match self.cur {
            Some(oid) => {
                self.st = St::NodeValue;
                StepOutput::Acquire(oid, AccessMode::Read)
            }
            None => self.advance_traversal_end(),
        }
    }

    fn advance_traversal_end(&mut self) -> StepOutput {
        match self.op() {
            ListOp::Insert(_) => self.start_alloc(),
            _ => {
                self.st = St::Closed;
                StepOutput::CloseNested
            }
        }
    }

    fn start_alloc(&mut self) -> StepOutput {
        self.st = St::CounterGot;
        StepOutput::Acquire(self.counter, AccessMode::Write)
    }
}

/// Build the LL workload: pre-populated sorted list + per-node pools.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    // Cap the chain so traversals stay bounded (each hop is a remote
    // fetch): the paper groups LL with the *short*-execution-time
    // microbenchmarks (§IV-C), which implies a short chain.
    let len = p.total_objects().min(12) as u64;
    let pool_size = (p.txns_per_node * p.max_nested_ops) as u64;

    let mut objects: Vec<(ObjectId, Payload)> = Vec::new();
    // Chain: values 2, 4, ..., 2*len; node i links to node i+1.
    for i in 0..len {
        let next = if i + 1 < len {
            Some(ObjectId(NODE_BASE + i + 1))
        } else {
            None
        };
        objects.push((
            ObjectId(NODE_BASE + i),
            Payload::ListNode {
                value: 2 * (i as i64 + 1),
                next,
            },
        ));
    }
    objects.push((
        HEAD,
        Payload::Ptr(if len > 0 {
            Some(ObjectId(NODE_BASE))
        } else {
            None
        }),
    ));
    // Pools and counters.
    for node in 0..p.nodes {
        objects.push((ObjectId(COUNTER_BASE + node as u64), Payload::Scalar(0)));
        for k in 0..pool_size {
            objects.push((
                ObjectId(POOL_BASE + node as u64 * pool_size + k),
                Payload::ListNode {
                    value: 0,
                    next: None,
                },
            ));
        }
    }

    let value_space = 2 * len as i64 + 2;
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
                KIND_LL_READER
            } else {
                KIND_LL_WRITER
            };
            // Collected straight into the shared list: one allocation.
            let ops: Arc<[ListOp]> = (0..nested)
                .map(|_| {
                    let v = 1 + rng.below(value_space as u64) as i64;
                    if read_only {
                        ListOp::Contains(v)
                    } else if rng.chance(0.5) {
                        ListOp::Insert(v)
                    } else {
                        ListOp::Remove(v)
                    }
                })
                .collect();
            let summary = ObjectId(SUMMARY_BASE + rng.below(summary_count));
            let delta = if read_only { None } else { Some(1) };
            queue.push(Box::new(WithTrailer::new(
                ListProgram::new(kind, ops, node, pool_size, p.compute),
                summary,
                delta,
            )));
        }
        programs.push(queue);
    }
    WorkloadSource { objects, programs }
}

/// Walk the committed list state; returns the values in order. Panics on a
/// broken chain (cycle or dangling link) — used as an invariant check.
pub fn collect_list(state: &std::collections::HashMap<ObjectId, (Payload, u64)>) -> Vec<i64> {
    let (head, _) = &state[&HEAD];
    let mut cur = head.as_ptr();
    let mut out = Vec::new();
    let mut hops = 0;
    while let Some(oid) = cur {
        hops += 1;
        assert!(hops <= state.len(), "cycle detected in list");
        let (payload, _) = state
            .get(&oid)
            .unwrap_or_else(|| panic!("dangling link to {oid:?}"));
        let Payload::ListNode { value, next } = payload else {
            panic!("non-list-node in chain: {payload:?}");
        };
        out.push(*value);
        cur = *next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to_end(p: &mut ListProgram, store: &mut std::collections::HashMap<ObjectId, Payload>) {
        // A tiny synchronous interpreter sufficient for program unit tests.
        let mut input_owned: Option<Payload> = None;
        let mut is_begin = true;
        loop {
            let out = {
                let input = if is_begin {
                    StepInput::Begin
                } else if let Some(v) = &input_owned {
                    StepInput::Value(v)
                } else {
                    StepInput::Ack
                };
                p.step(input)
            };
            is_begin = false;
            match out {
                StepOutput::Acquire(oid, _) => {
                    input_owned = Some(
                        store
                            .get(&oid)
                            .cloned()
                            .unwrap_or_else(|| panic!("program acquired unknown object {oid:?}")),
                    );
                }
                StepOutput::WriteLocal(oid, payload) => {
                    store.insert(oid, payload);
                    input_owned = None;
                }
                StepOutput::Compute(_) | StepOutput::OpenNested(_) | StepOutput::CloseNested => {
                    input_owned = None;
                }
                StepOutput::Finish => break,
            }
        }
    }

    fn small_store() -> std::collections::HashMap<ObjectId, Payload> {
        // List: 2 -> 4 -> 6.
        let mut s = std::collections::HashMap::new();
        s.insert(HEAD, Payload::Ptr(Some(ObjectId(2))));
        s.insert(
            ObjectId(2),
            Payload::ListNode {
                value: 2,
                next: Some(ObjectId(3)),
            },
        );
        s.insert(
            ObjectId(3),
            Payload::ListNode {
                value: 4,
                next: Some(ObjectId(4)),
            },
        );
        s.insert(
            ObjectId(4),
            Payload::ListNode {
                value: 6,
                next: None,
            },
        );
        // node-0 pool of 4 slots + counter
        s.insert(ObjectId(COUNTER_BASE), Payload::Scalar(0));
        for k in 0..4 {
            s.insert(
                ObjectId(POOL_BASE + k),
                Payload::ListNode {
                    value: 0,
                    next: None,
                },
            );
        }
        s
    }

    fn list_values(store: &std::collections::HashMap<ObjectId, Payload>) -> Vec<i64> {
        let state: std::collections::HashMap<ObjectId, (Payload, u64)> =
            store.iter().map(|(k, v)| (*k, (v.clone(), 0))).collect();
        collect_list(&state)
    }

    #[test]
    fn insert_in_middle() {
        let mut store = small_store();
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Insert(3)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![2, 3, 4, 6]);
    }

    #[test]
    fn insert_at_head_and_tail() {
        let mut store = small_store();
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Insert(1), ListOp::Insert(9)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![1, 2, 4, 6, 9]);
    }

    #[test]
    fn insert_duplicate_is_noop() {
        let mut store = small_store();
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Insert(4)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![2, 4, 6]);
    }

    #[test]
    fn remove_middle_and_missing() {
        let mut store = small_store();
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Remove(4), ListOp::Remove(42)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![2, 6]);
    }

    #[test]
    fn remove_head() {
        let mut store = small_store();
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Remove(2)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![4, 6]);
    }

    #[test]
    fn contains_leaves_list_unchanged() {
        let mut store = small_store();
        let before = list_values(&store);
        let mut prog = ListProgram::new(
            KIND_LL_READER,
            vec![ListOp::Contains(4), ListOp::Contains(5)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), before);
    }

    #[test]
    fn pool_exhaustion_degrades_to_noop() {
        let mut store = small_store();
        store.insert(ObjectId(COUNTER_BASE), Payload::Scalar(4)); // pool spent
        let mut prog = ListProgram::new(
            KIND_LL_WRITER,
            vec![ListOp::Insert(3)],
            0,
            4,
            SimDuration::from_micros(1),
        );
        drive_to_end(&mut prog, &mut store);
        assert_eq!(list_values(&store), vec![2, 4, 6]);
    }

    #[test]
    fn generator_objects_form_valid_list() {
        let p = WorkloadParams {
            nodes: 3,
            txns_per_node: 5,
            ..WorkloadParams::default()
        };
        let w = generate(&p);
        let state: std::collections::HashMap<ObjectId, (Payload, u64)> = w
            .objects
            .iter()
            .map(|(k, v)| (*k, (v.clone(), 0)))
            .collect();
        let values = collect_list(&state);
        assert_eq!(values.len(), p.total_objects().min(12));
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "list must be sorted"
        );
        assert_eq!(w.programs.len(), 3);
    }
}
