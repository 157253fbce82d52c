//! Distributed Hash Table (DHT) microbenchmark (§IV-A).
//!
//! Buckets are `Payload::Bucket` objects spread over the nodes by the
//! object-id hash; keys map to buckets by modulo. `get` reads one bucket,
//! `put` rewrites it. Single-object transactions with short traversals —
//! the highest-throughput benchmark in the paper's Figs. 4–5.

use crate::params::WorkloadParams;
use crate::{op_checkpoint, op_position};
use dstm_sim::SimDuration;
use hyflow_dstm::program::{
    AccessMode, ProgramCheckpoint, StepInput, StepOutput, TxProgram, WithTrailer,
};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_DHT_READER: TxKind = TxKind(60);
pub const KIND_DHT_WRITER: TxKind = TxKind(61);
pub const KIND_GET: TxKind = TxKind(62);
pub const KIND_PUT: TxKind = TxKind(63);

const BUCKET_BASE: u64 = 1;
/// Parent-level summary/statistics objects, touched after the nested ops
/// (Fig. 1's trailing top-level access; see DESIGN.md).
const SUMMARY_BASE: u64 = 3_000_000;

/// One DHT operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtOp {
    Get(u64),
    Put(u64, i64),
}

impl DhtOp {
    fn child_kind(self) -> TxKind {
        match self {
            DhtOp::Get(_) => KIND_GET,
            DhtOp::Put(..) => KIND_PUT,
        }
    }

    fn key(self) -> u64 {
        match self {
            DhtOp::Get(k) | DhtOp::Put(k, _) => k,
        }
    }
}

pub fn bucket_of(key: u64, buckets: u64) -> ObjectId {
    ObjectId(BUCKET_BASE + key % buckets)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    NextOp,
    OpenAck,
    BucketValue,
    Written,
    Closed,
    Gap,
}

/// The DHT transaction program. Its checkpoint is the operation index and
/// whether the operation's `OpenNested` is out (`OpenAck`) or not
/// (`NextOp`): it is at a level boundary in no other state.
#[derive(Clone, Debug)]
pub struct DhtProgram {
    kind: TxKind,
    /// Immutable and shared, so a `clone_box` copies a pointer.
    ops: Arc<[DhtOp]>,
    buckets: u64,
    compute: SimDuration,
    op_idx: usize,
    st: St,
}

impl DhtProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[DhtOp]>>,
        buckets: u64,
        compute: SimDuration,
    ) -> Self {
        DhtProgram {
            kind,
            ops: ops.into(),
            buckets,
            compute,
            op_idx: 0,
            st: St::NextOp,
        }
    }

    fn op(&self) -> DhtOp {
        self.ops[self.op_idx]
    }
}

impl TxProgram for DhtProgram {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        "dht"
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
                let mode = match self.op() {
                    DhtOp::Get(_) => AccessMode::Read,
                    DhtOp::Put(..) => AccessMode::Write,
                };
                self.st = St::BucketValue;
                StepOutput::Acquire(bucket_of(self.op().key(), self.buckets), mode)
            }
            St::BucketValue => {
                let StepInput::Value(Payload::Bucket(kvs)) = input else {
                    panic!("expected bucket, got {input:?}");
                };
                match self.op() {
                    DhtOp::Get(_) => {
                        self.st = St::Closed;
                        StepOutput::CloseNested
                    }
                    DhtOp::Put(k, v) => {
                        let mut kvs = kvs.clone();
                        match kvs.iter_mut().find(|(key, _)| *key == k) {
                            Some(entry) => entry.1 = v,
                            None => kvs.push((k, v)),
                        }
                        self.st = St::Written;
                        StepOutput::WriteLocal(bucket_of(k, self.buckets), Payload::Bucket(kvs))
                    }
                }
            }
            St::Written => {
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

/// Build the DHT workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let buckets = p.total_objects() as u64;
    let key_space = buckets * 8;
    let mut objects: Vec<(ObjectId, Payload)> = (0..buckets)
        .map(|b| (ObjectId(BUCKET_BASE + b), Payload::Bucket(Vec::new())))
        .collect();

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
                KIND_DHT_READER
            } else {
                KIND_DHT_WRITER
            };
            // Collected straight into the shared list: one allocation.
            let ops: Arc<[DhtOp]> = (0..nested)
                .map(|_| {
                    let k = rng.below(key_space);
                    if read_only {
                        DhtOp::Get(k)
                    } else {
                        DhtOp::Put(k, rng.below(1000) as i64)
                    }
                })
                .collect();
            let summary = ObjectId(SUMMARY_BASE + rng.below(summary_count));
            let delta = if read_only { None } else { Some(1) };
            queue.push(Box::new(WithTrailer::new(
                DhtProgram::new(kind, ops, buckets, p.compute),
                summary,
                delta,
            )));
        }
        programs.push(queue);
    }
    WorkloadSource { objects, programs }
}

/// Invariant: every key sits in its hash bucket, no duplicate keys.
pub fn check_placement(
    state: &std::collections::HashMap<ObjectId, (Payload, u64)>,
    buckets: u64,
) -> Result<usize, String> {
    let mut entries = 0;
    for b in 0..buckets {
        let oid = ObjectId(BUCKET_BASE + b);
        let (payload, _) = state.get(&oid).ok_or("missing bucket")?;
        let Payload::Bucket(kvs) = payload else {
            return Err(format!("non-bucket payload at {oid:?}"));
        };
        let mut seen = std::collections::HashSet::new();
        for (k, _) in kvs {
            if bucket_of(*k, buckets) != oid {
                return Err(format!("key {k} in wrong bucket {oid:?}"));
            }
            if !seen.insert(*k) {
                return Err(format!("duplicate key {k} in {oid:?}"));
            }
            entries += 1;
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn drive(prog: &mut DhtProgram, store: &mut HashMap<ObjectId, Payload>) {
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
                StepOutput::Acquire(oid, _) => value = Some(store[&oid].clone()),
                StepOutput::WriteLocal(oid, p) => {
                    store.insert(oid, p);
                    value = None;
                }
                StepOutput::Finish => break,
                _ => value = None,
            }
        }
    }

    #[test]
    fn put_then_update() {
        let buckets = 4;
        let mut store: HashMap<ObjectId, Payload> = (0..buckets)
            .map(|b| (ObjectId(BUCKET_BASE + b), Payload::Bucket(Vec::new())))
            .collect();
        let mut prog = DhtProgram::new(
            KIND_DHT_WRITER,
            vec![DhtOp::Put(9, 1), DhtOp::Put(9, 2), DhtOp::Put(13, 3)],
            buckets,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        let Payload::Bucket(kvs) = &store[&bucket_of(9, buckets)] else {
            panic!()
        };
        assert!(kvs.contains(&(9, 2)), "update must overwrite: {kvs:?}");
        assert!(kvs.contains(&(13, 3)), "13 hashes to the same bucket as 9");
        assert_eq!(kvs.len(), 2);
    }

    #[test]
    fn gets_do_not_mutate() {
        let buckets = 4;
        let mut store: HashMap<ObjectId, Payload> = (0..buckets)
            .map(|b| (ObjectId(BUCKET_BASE + b), Payload::Bucket(vec![(b, 7)])))
            .collect();
        let before = store.clone();
        let mut prog = DhtProgram::new(
            KIND_DHT_READER,
            vec![DhtOp::Get(0), DhtOp::Get(5)],
            buckets,
            SimDuration::from_micros(1),
        );
        drive(&mut prog, &mut store);
        assert_eq!(store, before);
    }

    #[test]
    fn generator_and_placement_check() {
        let p = WorkloadParams {
            nodes: 3,
            txns_per_node: 10,
            ..WorkloadParams::default()
        };
        let w = generate(&p);
        let summaries = (p.nodes / 2).max(2);
        assert_eq!(w.objects.len(), p.total_objects() + summaries);
        let state: HashMap<ObjectId, (Payload, u64)> = w
            .objects
            .iter()
            .map(|(k, v)| (*k, (v.clone(), 0)))
            .collect();
        assert_eq!(check_placement(&state, p.total_objects() as u64), Ok(0));
    }
}
