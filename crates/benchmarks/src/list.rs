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

use crate::op_loop::{generate_programs, pool_objects, Alloc, OpLoop, OpMachine, Pool};
use crate::params::{WorkloadParams, MAX_NESTED_OPS};
use hyflow_dstm::program::{AccessMode, StepInput, StepOutput};
use hyflow_dstm::{Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_LL_READER: TxKind = TxKind(30);
pub const KIND_LL_WRITER: TxKind = TxKind(31);
pub const KIND_CONTAINS: TxKind = TxKind(32);
pub const KIND_INSERT: TxKind = TxKind(33);
pub const KIND_REMOVE: TxKind = TxKind(34);

pub const HEAD: ObjectId = ObjectId(1);
const NODE_BASE: u64 = 2;

/// One list operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListOp {
    Contains(i64),
    Insert(i64),
    Remove(i64),
}

impl ListOp {
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
    /// Head pointer value arrived.
    HeadValue,
    /// A `ListNode` for `cur` arrived.
    NodeValue,
    /// Allocating the inserted node from the pool.
    Alloc,
    /// New node written: acquire `prev` for linking.
    NodeWritten,
    /// Prev payload arrived: rewrite its next link to `link_to`.
    PrevGot,
    /// Link write acked: the operation is done.
    LinkDone,
}

/// One list operation: walk from the head to the first node not below the
/// key, then relink around it for an insert or a remove.
#[derive(Clone, Debug)]
pub struct ListWalk {
    pool: Pool,
    st: St,
    prev: PrevLink,
    cur: Option<ObjectId>,
    /// `next` of the node being removed / the inserted node.
    link_to: Option<ObjectId>,
}

/// The LL transaction program.
pub type ListProgram = OpLoop<ListWalk>;

impl ListProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[ListOp]>>,
        invoking_node: usize,
        pool_size: u64,
        summary: ObjectId,
        delta: Option<i64>,
    ) -> Self {
        let walk = ListWalk::new(invoking_node, pool_size);
        OpLoop::with_machine(kind, ops, summary, delta, walk)
    }
}

impl ListWalk {
    fn new(invoking_node: usize, pool_size: u64) -> Self {
        ListWalk {
            pool: Pool::new(invoking_node, pool_size),
            st: St::HeadValue,
            prev: PrevLink::Head,
            cur: None,
            link_to: None,
        }
    }

    /// Decide the next move given the current node's contents (`None` for
    /// "cur is past the end").
    fn advance(&mut self, op: ListOp, node: Option<(i64, Option<ObjectId>)>) -> StepOutput {
        let target = op.value();
        match (op, node) {
            (_, Some((value, next))) if value < target => {
                // Keep walking.
                self.prev = PrevLink::Node(self.cur.expect("walking a real node"));
                self.cur = next;
                self.continue_walk(op)
            }
            // Absent (ran off the end, or stopped above the key): link in.
            (ListOp::Insert(_), None) => self.start_alloc(),
            (ListOp::Insert(_), Some((value, _))) if value != target => self.start_alloc(),
            (ListOp::Remove(_), Some((value, next))) if value == target => {
                // Unlink: prev.next = cur.next.
                self.link_to = next;
                self.st = St::PrevGot;
                StepOutput::Acquire(self.prev.oid(), AccessMode::Write)
            }
            // Contains, a duplicate insert, or a missing remove: no write.
            _ => StepOutput::CloseNested,
        }
    }

    fn continue_walk(&mut self, op: ListOp) -> StepOutput {
        match self.cur {
            Some(oid) => {
                self.st = St::NodeValue;
                StepOutput::Acquire(oid, AccessMode::Read)
            }
            None => self.advance(op, None),
        }
    }

    fn start_alloc(&mut self) -> StepOutput {
        self.st = St::Alloc;
        self.pool.start()
    }
}

impl OpMachine for ListWalk {
    type Op = ListOp;

    const LABEL: &'static str = "linked-list";

    fn child_kind(op: ListOp) -> TxKind {
        match op {
            ListOp::Contains(_) => KIND_CONTAINS,
            ListOp::Insert(_) => KIND_INSERT,
            ListOp::Remove(_) => KIND_REMOVE,
        }
    }

    fn start(&mut self, _: ListOp) -> StepOutput {
        self.prev = PrevLink::Head;
        self.cur = None;
        self.st = St::HeadValue;
        StepOutput::Acquire(HEAD, AccessMode::Read)
    }

    fn step(&mut self, op: ListOp, input: StepInput<'_>) -> StepOutput {
        match self.st {
            St::HeadValue => {
                let StepInput::Value(Payload::Ptr(first)) = input else {
                    panic!("expected head pointer, got {input:?}");
                };
                self.cur = *first;
                self.continue_walk(op)
            }
            St::NodeValue => {
                let StepInput::Value(Payload::ListNode { value, next }) = input else {
                    panic!("expected list node, got {input:?}");
                };
                self.advance(op, Some((*value, *next)))
            }
            St::Alloc => match self.pool.step(input) {
                Alloc::Step(out) => out,
                Alloc::Spent => StepOutput::CloseNested,
                Alloc::Got(node) => {
                    self.link_to = Some(node);
                    self.st = St::NodeWritten;
                    let next = self.cur;
                    StepOutput::WriteLocal(
                        node,
                        Payload::ListNode {
                            value: op.value(),
                            next,
                        },
                    )
                }
            },
            St::NodeWritten => {
                self.st = St::PrevGot;
                StepOutput::Acquire(self.prev.oid(), AccessMode::Write)
            }
            St::PrevGot => {
                let StepInput::Value(old) = input else {
                    panic!("expected prev payload, got {input:?}");
                };
                self.st = St::LinkDone;
                StepOutput::WriteLocal(self.prev.oid(), self.prev.relink(old, self.link_to))
            }
            St::LinkDone => StepOutput::CloseNested,
        }
    }
}

/// Build the LL workload: pre-populated sorted list + per-node pools.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    // Cap the chain so traversals stay bounded (each hop is a remote
    // fetch): the paper groups LL with the *short*-execution-time
    // microbenchmarks (§IV-C), which implies a short chain.
    let len = p.total_objects().min(12) as u64;
    let pool_size = (p.txns_per_node * MAX_NESTED_OPS) as u64;

    // Chain: values 2, 4, ..., 2*len; node i links to node i+1.
    let mut objects: Vec<(ObjectId, Payload)> = (0..len)
        .map(|i| {
            let next = (i + 1 < len).then(|| ObjectId(NODE_BASE + i + 1));
            let value = 2 * (i as i64 + 1);
            (ObjectId(NODE_BASE + i), Payload::ListNode { value, next })
        })
        .collect();
    objects.push((HEAD, Payload::Ptr((len > 0).then_some(ObjectId(NODE_BASE)))));
    let spare = Payload::ListNode {
        value: 0,
        next: None,
    };
    pool_objects(p.nodes, pool_size, &spare, &mut objects);

    let value_space = 2 * len + 2;
    let programs = generate_programs(
        p,
        &mut objects,
        [KIND_LL_READER, KIND_LL_WRITER],
        |rng, read_only| {
            let v = 1 + rng.below(value_space) as i64;
            if read_only {
                ListOp::Contains(v)
            } else if rng.chance(0.5) {
                ListOp::Insert(v)
            } else {
                ListOp::Remove(v)
            }
        },
        |node| ListWalk::new(node, pool_size),
    );
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
    use crate::op_loop::{COUNTER_BASE, POOL_BASE};
    use hyflow_dstm::TxProgram;

    /// The trailer's summary object, added to a store by `drive`.
    const SUMMARY: ObjectId = ObjectId(3_000_000);

    fn drive_to_end(p: &mut ListProgram, store: &mut std::collections::HashMap<ObjectId, Payload>) {
        store.entry(SUMMARY).or_insert(Payload::Scalar(0));
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            Some(1),
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
            SUMMARY,
            None,
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
            SUMMARY,
            Some(1),
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
