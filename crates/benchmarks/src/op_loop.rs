//! The transaction shape the four data structures share.
//!
//! A Linked List, BST, RB Tree or DHT transaction runs a random number of
//! operations, each in its own closed-nested child, with a compute gap after
//! each, and then touches one summary object at top level — Fig. 1's `T1`
//! accessing `z` after its nested `T1-1` committed. A conflict on that
//! trailing access puts the whole parent, and every child it committed, at
//! stake: the situation RTS's enqueue-instead-of-abort protects.
//!
//! [`OpLoop`] is that shape, written once; an [`OpMachine`] is what one
//! structure does inside one operation's child. `Pool` and `WritePlan`
//! are the two step sequences more than one machine needs.

use crate::params::{WorkloadParams, COMPUTE};
use dstm_sim::SimRng;
use hyflow_dstm::program::{AccessMode, ProgramCheckpoint, StepInput, StepOutput, TxProgram};
use hyflow_dstm::{BoxedProgram, Payload};
use rts_core::{ObjectId, TxKind};
use std::fmt::Debug;
use std::sync::Arc;

/// First pool-counter object (one per invoking node).
pub(crate) const COUNTER_BASE: u64 = 1_000_000;
/// First pre-provisioned pool node (`size` per invoking node).
pub(crate) const POOL_BASE: u64 = 2_000_000;
/// Parent-level summary objects, touched after the nested operations.
const SUMMARY_BASE: u64 = 3_000_000;

/// What one structure does inside one operation's child.
pub trait OpMachine: Clone + Debug + 'static {
    /// One operation and the key or value it carries.
    type Op: Copy + Debug + 'static;

    /// Label for traces.
    const LABEL: &'static str;

    /// The kind of the child `op` runs in.
    fn child_kind(op: Self::Op) -> TxKind;

    /// `op`'s child is open: drop what the previous operation (or attempt)
    /// left behind and issue the operation's first access.
    fn start(&mut self, op: Self::Op) -> StepOutput;

    /// Go on with `op` given the result of the previous access or write:
    /// the next `Acquire` or `WriteLocal`, or `CloseNested` when the
    /// operation is done.
    fn step(&mut self, op: Self::Op, input: StepInput<'_>) -> StepOutput;
}

/// Where an [`OpLoop`] stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum At {
    /// Between operations: open the next one's child, or start the trailer.
    NextOp,
    /// The child's `OpenNested` is out.
    Opened,
    /// Inside the operation: the machine steps.
    InOp,
    /// `CloseNested` is out: the compute gap follows.
    Closed,
    /// The gap is out: the next operation follows.
    Gap,
    /// The summary object's acquire is out.
    Summary,
    /// Only `Finish` is left.
    Done,
}

/// One data-structure transaction: a list of operations, each in its own
/// closed-nested child of kind [`OpMachine::child_kind`] and followed by
/// the compute gap, then the summary object — read by a reader, incremented
/// by `delta` by a writer.
///
/// Every level boundary lies between operations (at attempt start) or right
/// behind an `OpenNested`, and the machine drops its per-operation state
/// when the next operation starts: the checkpoint is the operation index and
/// which of the two.
#[derive(Clone, Debug)]
pub struct OpLoop<M: OpMachine> {
    kind: TxKind,
    /// Immutable and shared, so a `clone_box` copies a pointer.
    ops: Arc<[M::Op]>,
    summary: ObjectId,
    /// `Some(delta)` increments the summary scalar (write access); `None`
    /// reads it.
    delta: Option<i64>,
    op_idx: usize,
    at: At,
    machine: M,
}

impl<M: OpMachine> OpLoop<M> {
    pub(crate) fn with_machine(
        kind: TxKind,
        ops: impl Into<Arc<[M::Op]>>,
        summary: ObjectId,
        delta: Option<i64>,
        machine: M,
    ) -> Self {
        OpLoop {
            kind,
            ops: ops.into(),
            summary,
            delta,
            op_idx: 0,
            at: At::NextOp,
            machine,
        }
    }

    fn next_op(&mut self) -> StepOutput {
        if let Some(&op) = self.ops.get(self.op_idx) {
            self.at = At::Opened;
            return StepOutput::OpenNested(M::child_kind(op));
        }
        self.at = At::Summary;
        let mode = match self.delta {
            Some(_) => AccessMode::Write,
            None => AccessMode::Read,
        };
        StepOutput::Acquire(self.summary, mode)
    }
}

impl<M: OpMachine> TxProgram for OpLoop<M> {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        M::LABEL
    }

    fn clone_box(&self) -> BoxedProgram {
        Box::new(self.clone())
    }

    fn checkpoint(&self) -> Option<ProgramCheckpoint> {
        debug_assert!(matches!(self.at, At::NextOp | At::Opened));
        Some(ProgramCheckpoint {
            pc: self.op_idx as u64,
            regs: [i64::from(self.at == At::Opened), 0, 0],
        })
    }

    fn rewind(&mut self, to: &ProgramCheckpoint) {
        self.op_idx = to.pc as usize;
        self.at = if to.regs[0] != 0 {
            At::Opened
        } else {
            At::NextOp
        };
    }

    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        match self.at {
            At::NextOp => self.next_op(),
            At::Opened | At::InOp => {
                let op = self.ops[self.op_idx];
                let out = if self.at == At::Opened {
                    self.machine.start(op)
                } else {
                    self.machine.step(op, input)
                };
                debug_assert!(matches!(
                    out,
                    StepOutput::Acquire(..) | StepOutput::WriteLocal(..) | StepOutput::CloseNested
                ));
                self.at = match out {
                    StepOutput::CloseNested => At::Closed,
                    _ => At::InOp,
                };
                out
            }
            At::Closed => {
                self.at = At::Gap;
                StepOutput::Compute(COMPUTE)
            }
            At::Gap => {
                self.op_idx += 1;
                self.next_op()
            }
            At::Summary => {
                self.at = At::Done;
                match (self.delta, input) {
                    (Some(d), StepInput::Value(Payload::Scalar(v))) => {
                        StepOutput::WriteLocal(self.summary, Payload::Scalar(v + d))
                    }
                    (Some(_), input) => panic!("expected summary scalar, got {input:?}"),
                    (None, _) => StepOutput::Finish,
                }
            }
            At::Done => StepOutput::Finish,
        }
    }
}

/// The summary objects of a workload, appended to `objects`, and every
/// node's transactions over them: per transaction, `draw` picks each
/// operation (told whether the parent is read-only), and a writer's trailer
/// adds 1 to its summary object.
pub(crate) fn generate_programs<M: OpMachine>(
    p: &WorkloadParams,
    objects: &mut Vec<(ObjectId, Payload)>,
    [reader, writer]: [TxKind; 2],
    mut draw: impl FnMut(&mut SimRng, bool) -> M::Op,
    machine: impl Fn(usize) -> M,
) -> Vec<Vec<BoxedProgram>> {
    let summary_count = (p.nodes as u64 / 2).max(2);
    for i in 0..summary_count {
        objects.push((ObjectId(SUMMARY_BASE + i), Payload::Scalar(0)));
    }
    (0..p.nodes)
        .map(|node| {
            let mut rng = p.node_rng(node);
            (0..p.txns_per_node)
                .map(|_| -> BoxedProgram {
                    let nested = p.sample_nested_ops(&mut rng);
                    let read_only = p.sample_read_only(&mut rng);
                    // Collected straight into the shared list: one allocation.
                    let ops: Arc<[M::Op]> =
                        (0..nested).map(|_| draw(&mut rng, read_only)).collect();
                    let summary = ObjectId(SUMMARY_BASE + rng.below(summary_count));
                    let (kind, delta) = if read_only {
                        (reader, None)
                    } else {
                        (writer, Some(1))
                    };
                    let program = OpLoop::with_machine(kind, ops, summary, delta, machine(node));
                    Box::new(program)
                })
                .collect()
        })
        .collect()
}

/// The objects of a per-invoking-node allocation pool: its counter at 0,
/// then `size` spare nodes holding `spare`.
pub(crate) fn pool_objects(
    nodes: usize,
    size: u64,
    spare: &Payload,
    objects: &mut Vec<(ObjectId, Payload)>,
) {
    for node in 0..nodes {
        objects.push((ObjectId(COUNTER_BASE + node as u64), Payload::Scalar(0)));
        let base = POOL_BASE + node as u64 * size;
        objects.extend((0..size).map(|k| (ObjectId(base + k), spare.clone())));
    }
}

/// Allocation from the invoking node's pre-provisioned pool: fetch the
/// counter for write, write it back one higher, and acquire the spare node
/// its old value names — a contended allocator on the ordinary
/// transactional path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pool {
    counter: ObjectId,
    base: u64,
    size: u64,
    /// The node handed out, once the counter's value arrived.
    node: ObjectId,
    at: PoolAt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PoolAt {
    /// The counter's acquire is out.
    Counter,
    /// The counter's write is out.
    Written,
    /// The node's acquire is out.
    Node,
}

/// One step of a [`Pool`] allocation.
pub(crate) enum Alloc {
    /// Hand this to the executor; the allocation goes on.
    Step(StepOutput),
    /// The pool is spent: the operation degrades to a no-op.
    Spent,
    /// The new node is held for write.
    Got(ObjectId),
}

impl Pool {
    pub(crate) fn new(invoking_node: usize, size: u64) -> Pool {
        Pool {
            counter: ObjectId(COUNTER_BASE + invoking_node as u64),
            base: POOL_BASE + invoking_node as u64 * size,
            size,
            node: ObjectId(0),
            at: PoolAt::Counter,
        }
    }

    /// Begin an allocation.
    pub(crate) fn start(&mut self) -> StepOutput {
        self.at = PoolAt::Counter;
        StepOutput::Acquire(self.counter, AccessMode::Write)
    }

    /// Go on with the allocation given the result of its previous step.
    pub(crate) fn step(&mut self, input: StepInput<'_>) -> Alloc {
        match self.at {
            PoolAt::Counter => {
                let StepInput::Value(Payload::Scalar(c)) = input else {
                    panic!("expected counter, got {input:?}");
                };
                if *c as u64 >= self.size {
                    return Alloc::Spent;
                }
                self.node = ObjectId(self.base + *c as u64);
                self.at = PoolAt::Written;
                Alloc::Step(StepOutput::WriteLocal(self.counter, Payload::Scalar(c + 1)))
            }
            PoolAt::Written => {
                self.at = PoolAt::Node;
                Alloc::Step(StepOutput::Acquire(self.node, AccessMode::Write))
            }
            PoolAt::Node => Alloc::Got(self.node),
        }
    }
}

/// Structural writes to objects the operation already holds, drained in
/// order: each is acquired for write (answered locally) and then written.
#[derive(Clone, Debug, Default)]
pub(crate) struct WritePlan {
    writes: Vec<(ObjectId, Payload)>,
    /// The first write's acquire is out.
    acquired: bool,
}

impl WritePlan {
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
        self.acquired = false;
    }

    pub(crate) fn push(&mut self, oid: ObjectId, payload: Payload) {
        self.writes.push((oid, payload));
    }

    /// Put the writes in object order.
    pub(crate) fn sort(&mut self) {
        self.writes.sort_by_key(|(oid, _)| *oid);
    }

    /// The drain's next step; `CloseNested` once the plan is empty.
    pub(crate) fn drain(&mut self) -> StepOutput {
        if std::mem::take(&mut self.acquired) {
            let (oid, payload) = self.writes.remove(0);
            return StepOutput::WriteLocal(oid, payload);
        }
        match self.writes.first() {
            Some(&(oid, _)) => {
                self.acquired = true;
                StepOutput::Acquire(oid, AccessMode::Write)
            }
            None => StepOutput::CloseNested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::{bucket_of, DhtOp, DhtProgram, KIND_PUT};

    const SUMMARY: ObjectId = ObjectId(SUMMARY_BASE);

    #[test]
    fn a_writer_runs_its_operations_then_increments_the_summary() {
        let mut p = DhtProgram::new(TxKind(1), vec![DhtOp::Put(3, 9)], 4, SUMMARY, Some(2));
        let bucket = bucket_of(3, 4);
        assert_eq!(p.step(StepInput::Begin), StepOutput::OpenNested(KIND_PUT));
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Acquire(bucket, AccessMode::Write)
        );
        let empty = Payload::Bucket(Vec::new());
        assert_eq!(
            p.step(StepInput::Value(&empty)),
            StepOutput::WriteLocal(bucket, Payload::Bucket(vec![(3, 9)]))
        );
        assert_eq!(p.step(StepInput::Ack), StepOutput::CloseNested);
        assert_eq!(p.step(StepInput::Ack), StepOutput::Compute(COMPUTE));
        // The last child committed: the parent-level trailer.
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Acquire(SUMMARY, AccessMode::Write)
        );
        assert_eq!(
            p.step(StepInput::Value(&Payload::Scalar(40))),
            StepOutput::WriteLocal(SUMMARY, Payload::Scalar(42))
        );
        assert_eq!(p.step(StepInput::Ack), StepOutput::Finish);
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Finish,
            "idempotent at end"
        );
        assert_eq!((p.kind(), p.label()), (TxKind(1), "dht"));
    }

    #[test]
    fn a_reader_without_operations_only_reads_the_summary() {
        let mut p = DhtProgram::new(TxKind(1), vec![], 4, SUMMARY, None);
        assert_eq!(
            p.step(StepInput::Begin),
            StepOutput::Acquire(SUMMARY, AccessMode::Read)
        );
        assert_eq!(
            p.step(StepInput::Value(&Payload::Scalar(5))),
            StepOutput::Finish
        );
    }
}
