//! Bank — the monetary benchmark (§IV-A, after the HyFlow Bank app).
//!
//! Accounts are scalar objects. A **write** transaction transfers money:
//! each transfer is a pair of closed-nested children (withdraw, then
//! deposit — the canonical "try an alternative without aborting the
//! top-level action" shape nesting exists for). A **read** transaction
//! audits a few accounts. The invariant checked by the integration tests:
//! total balance is conserved by any interleaving.

use crate::params::{WorkloadParams, COMPUTE};
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};

pub const KIND_TRANSFER: TxKind = TxKind(10);
pub const KIND_AUDIT: TxKind = TxKind(11);
pub const KIND_WITHDRAW: TxKind = TxKind(12);
pub const KIND_DEPOSIT: TxKind = TxKind(13);
pub const KIND_READ: TxKind = TxKind(14);

pub const INITIAL_BALANCE: i64 = 1_000;

/// Per-branch audit-log objects, written at **parent level** after the
/// nested transfers commit (the paper's Fig. 1 shape: the parent accesses
/// `z` after its nested child commits, so a conflict there risks the
/// committed children).
const LOG_BASE: u64 = 3_000_000;

fn account_oid(i: u64) -> ObjectId {
    ObjectId(1 + i)
}

fn log_oid(i: u64) -> ObjectId {
    ObjectId(LOG_BASE + i)
}

fn log_count(p: &WorkloadParams) -> u64 {
    (p.nodes as u64 / 2).max(2)
}

/// Build the Bank workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let accounts = p.total_objects() as u64;
    assert!(accounts >= 2, "bank needs at least two accounts");
    let mut objects: Vec<(ObjectId, Payload)> = (0..accounts)
        .map(|i| (account_oid(i), Payload::Scalar(INITIAL_BALANCE)))
        .collect();
    for i in 0..log_count(p) {
        objects.push((log_oid(i), Payload::Scalar(0)));
    }

    let mut programs: Vec<Vec<BoxedProgram>> = Vec::with_capacity(p.nodes);
    // One script buffer for the whole workload: each program copies it
    // into an op list of its final length.
    let mut ops: Vec<ScriptOp> = Vec::new();
    for node in 0..p.nodes {
        let mut rng = p.node_rng(node);
        let mut queue: Vec<BoxedProgram> = Vec::with_capacity(p.txns_per_node);
        for _ in 0..p.txns_per_node {
            let nested = p.sample_nested_ops(&mut rng);
            ops.clear();
            if p.sample_read_only(&mut rng) {
                for _ in 0..nested {
                    let a = account_oid(rng.below(accounts));
                    ops.push(ScriptOp::OpenNested(KIND_READ));
                    ops.push(ScriptOp::Read(a));
                    ops.push(ScriptOp::CloseNested);
                    ops.push(ScriptOp::Compute(COMPUTE));
                }
                // Parent-level read of the branch log at the end.
                ops.push(ScriptOp::Read(log_oid(rng.below(log_count(p)))));
                queue.push(Box::new(ScriptProgram::new(KIND_AUDIT, &ops[..])));
            } else {
                for _ in 0..nested {
                    let a = rng.below(accounts);
                    let mut b = rng.below(accounts);
                    while b == a {
                        b = rng.below(accounts);
                    }
                    let amount = 1 + rng.below(100) as i64;
                    ops.push(ScriptOp::OpenNested(KIND_WITHDRAW));
                    ops.push(ScriptOp::Write(account_oid(a)));
                    ops.push(ScriptOp::AddScalar(account_oid(a), -amount));
                    ops.push(ScriptOp::CloseNested);
                    ops.push(ScriptOp::Compute(COMPUTE));
                    ops.push(ScriptOp::OpenNested(KIND_DEPOSIT));
                    ops.push(ScriptOp::Write(account_oid(b)));
                    ops.push(ScriptOp::AddScalar(account_oid(b), amount));
                    ops.push(ScriptOp::CloseNested);
                    ops.push(ScriptOp::Compute(COMPUTE));
                }
                // Parent-level audit-log update after the nested transfers.
                let log = log_oid(rng.below(log_count(p)));
                ops.push(ScriptOp::Write(log));
                ops.push(ScriptOp::AddScalar(log, 1));
                queue.push(Box::new(ScriptProgram::new(KIND_TRANSFER, &ops[..])));
            }
        }
        programs.push(queue);
    }
    WorkloadSource { objects, programs }
}

/// Total money across a final object state — must equal
/// `accounts × INITIAL_BALANCE` forever.
pub fn total_balance(state: &std::collections::HashMap<ObjectId, (Payload, u64)>) -> i64 {
    state
        .iter()
        .filter(|(oid, _)| oid.0 < LOG_BASE)
        .map(|(_, (p, _))| match p {
            Payload::Scalar(v) => *v,
            other => panic!("non-scalar object in bank state: {other:?}"),
        })
        .sum()
}

/// The invariant target for a parameter set.
pub fn expected_total(p: &WorkloadParams) -> i64 {
    p.total_objects() as i64 * INITIAL_BALANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams {
            nodes: 4,
            txns_per_node: 20,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn generates_right_shapes() {
        let p = params();
        let w = generate(&p);
        assert_eq!(w.objects.len(), p.total_objects() + log_count(&p) as usize);
        assert_eq!(w.programs.len(), 4);
        assert!(w.programs.iter().all(|q| q.len() == 20));
        assert!(w
            .objects
            .iter()
            .filter(|(oid, _)| oid.0 < LOG_BASE)
            .all(|(_, pay)| *pay == Payload::Scalar(INITIAL_BALANCE)));
    }

    #[test]
    fn read_ratio_shapes_kinds() {
        let mut p = params();
        p.txns_per_node = 200;
        p.read_ratio = 0.9;
        let w = generate(&p);
        let reads: usize = w
            .programs
            .iter()
            .flatten()
            .filter(|prog| prog.kind() == KIND_AUDIT)
            .count();
        let total = 4 * 200;
        let ratio = reads as f64 / total as f64;
        assert!((0.85..0.95).contains(&ratio), "audit ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let p = params();
        let a = generate(&p);
        let b = generate(&p);
        // Compare the kinds sequence as a proxy for full structural equality.
        let ka: Vec<_> = a.programs.iter().flatten().map(|x| x.kind()).collect();
        let kb: Vec<_> = b.programs.iter().flatten().map(|x| x.kind()).collect();
        assert_eq!(ka, kb);
    }
}
