//! Distributed Hash Table (DHT) microbenchmark (§IV-A).
//!
//! Buckets are `Payload::Bucket` objects spread over the nodes by the
//! object-id hash; keys map to buckets by modulo. `get` reads one bucket,
//! `put` rewrites it. Single-object transactions with short traversals —
//! the highest-throughput benchmark in the paper's Figs. 4–5.

use crate::op_loop::{generate_programs, OpLoop, OpMachine};
use crate::params::WorkloadParams;
use hyflow_dstm::program::{AccessMode, StepInput, StepOutput};
use hyflow_dstm::{Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

pub const KIND_DHT_READER: TxKind = TxKind(60);
pub const KIND_DHT_WRITER: TxKind = TxKind(61);
pub const KIND_GET: TxKind = TxKind(62);
pub const KIND_PUT: TxKind = TxKind(63);

const BUCKET_BASE: u64 = 1;

/// One DHT operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtOp {
    Get(u64),
    Put(u64, i64),
}

pub fn bucket_of(key: u64, buckets: u64) -> ObjectId {
    ObjectId(BUCKET_BASE + key % buckets)
}

/// One DHT operation: read the key's bucket, and for a put write it back
/// with the key set. Which step it is on, the input tells: the bucket's
/// value, or the acknowledgement of its write.
#[derive(Clone, Debug)]
pub struct DhtBucket {
    buckets: u64,
}

/// The DHT transaction program.
pub type DhtProgram = OpLoop<DhtBucket>;

impl DhtProgram {
    pub fn new(
        kind: TxKind,
        ops: impl Into<Arc<[DhtOp]>>,
        buckets: u64,
        summary: ObjectId,
        delta: Option<i64>,
    ) -> Self {
        OpLoop::with_machine(kind, ops, summary, delta, DhtBucket { buckets })
    }
}

impl OpMachine for DhtBucket {
    type Op = DhtOp;

    const LABEL: &'static str = "dht";

    fn child_kind(op: DhtOp) -> TxKind {
        match op {
            DhtOp::Get(_) => KIND_GET,
            DhtOp::Put(..) => KIND_PUT,
        }
    }

    fn start(&mut self, op: DhtOp) -> StepOutput {
        match op {
            DhtOp::Get(k) => StepOutput::Acquire(bucket_of(k, self.buckets), AccessMode::Read),
            DhtOp::Put(k, _) => StepOutput::Acquire(bucket_of(k, self.buckets), AccessMode::Write),
        }
    }

    fn step(&mut self, op: DhtOp, input: StepInput<'_>) -> StepOutput {
        match (op, input) {
            (DhtOp::Put(k, v), StepInput::Value(Payload::Bucket(kvs))) => {
                let mut kvs = kvs.clone();
                match kvs.iter_mut().find(|(key, _)| *key == k) {
                    Some(entry) => entry.1 = v,
                    None => kvs.push((k, v)),
                }
                StepOutput::WriteLocal(bucket_of(k, self.buckets), Payload::Bucket(kvs))
            }
            (DhtOp::Get(_), StepInput::Value(Payload::Bucket(_)))
            | (DhtOp::Put(..), StepInput::Ack) => StepOutput::CloseNested,
            (_, input) => panic!("expected bucket, got {input:?}"),
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
    let programs = generate_programs(
        p,
        &mut objects,
        [KIND_DHT_READER, KIND_DHT_WRITER],
        |rng, read_only| {
            let k = rng.below(key_space);
            if read_only {
                DhtOp::Get(k)
            } else {
                DhtOp::Put(k, rng.below(1000) as i64)
            }
        },
        |_| DhtBucket { buckets },
    );
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
    use hyflow_dstm::TxProgram;

    /// The trailer's summary object, added to a store by `drive`.
    const SUMMARY: ObjectId = ObjectId(3_000_000);
    use std::collections::HashMap;

    fn drive(prog: &mut DhtProgram, store: &mut HashMap<ObjectId, Payload>) {
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
            SUMMARY,
            Some(1),
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
            .chain([(SUMMARY, Payload::Scalar(0))])
            .collect();
        let before = store.clone();
        let mut prog = DhtProgram::new(
            KIND_DHT_READER,
            vec![DhtOp::Get(0), DhtOp::Get(5)],
            buckets,
            SUMMARY,
            None,
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
