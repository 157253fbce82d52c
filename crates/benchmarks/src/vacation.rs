//! Vacation — the distributed version of STAMP's travel-reservation
//! benchmark (§IV-A).
//!
//! Four relations, all scalar objects: car, flight, and room inventories
//! plus customer accounts. A **write** transaction makes (or cancels) a
//! reservation: one closed-nested child per reserved item, then a nested
//! customer-record update — the longest transactions in the suite, which is
//! why the paper observes Vacation (and Bank) gaining the least from RTS
//! (§IV-C). A **read** transaction queries item availability.

use crate::params::{WorkloadParams, COMPUTE};
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{BoxedProgram, Payload, WorkloadSource};
use rts_core::{ObjectId, TxKind};

pub const KIND_RESERVE: TxKind = TxKind(20);
pub const KIND_CANCEL: TxKind = TxKind(21);
pub const KIND_QUERY: TxKind = TxKind(22);
pub const KIND_RESERVE_ITEM: TxKind = TxKind(23);
pub const KIND_UPDATE_CUSTOMER: TxKind = TxKind(24);
pub const KIND_QUERY_ITEM: TxKind = TxKind(25);

/// Plenty of stock so decrements never hit zero within a workload (the
/// paper's runs don't exercise sell-outs; see DESIGN.md).
pub const INITIAL_STOCK: i64 = 1_000_000;
pub const ITEM_PRICE: i64 = 100;

/// Relation layout over the object-id space.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    pub items_per_category: u64,
    pub customers: u64,
}

impl Layout {
    pub fn for_params(p: &WorkloadParams) -> Layout {
        let total = p.total_objects() as u64;
        let per_cat = (total / 4).max(1);
        Layout {
            items_per_category: per_cat,
            customers: (total - 3 * per_cat).max(1),
        }
    }

    pub fn item_oid(&self, category: u64, idx: u64) -> ObjectId {
        debug_assert!(category < 3 && idx < self.items_per_category);
        ObjectId(1 + category * self.items_per_category + idx)
    }

    pub fn customer_oid(&self, idx: u64) -> ObjectId {
        debug_assert!(idx < self.customers);
        ObjectId(1 + 3 * self.items_per_category + idx)
    }

    pub fn total(&self) -> u64 {
        3 * self.items_per_category + self.customers
    }
}

/// Build the Vacation workload.
pub fn generate(p: &WorkloadParams) -> WorkloadSource {
    let layout = Layout::for_params(p);
    let mut objects: Vec<(ObjectId, Payload)> = Vec::with_capacity(layout.total() as usize);
    for cat in 0..3 {
        for i in 0..layout.items_per_category {
            objects.push((layout.item_oid(cat, i), Payload::Scalar(INITIAL_STOCK)));
        }
    }
    for c in 0..layout.customers {
        objects.push((layout.customer_oid(c), Payload::Scalar(0)));
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
                    let cat = rng.below(3);
                    let item = layout.item_oid(cat, rng.below(layout.items_per_category));
                    ops.push(ScriptOp::OpenNested(KIND_QUERY_ITEM));
                    ops.push(ScriptOp::Read(item));
                    ops.push(ScriptOp::CloseNested);
                    ops.push(ScriptOp::Compute(COMPUTE));
                }
                // Parent-level read of the customer's record at the end.
                let cust = layout.customer_oid(rng.below(layout.customers));
                ops.push(ScriptOp::Read(cust));
                queue.push(Box::new(ScriptProgram::new(KIND_QUERY, &ops[..])));
            } else {
                // 80% reservations, 20% cancellations.
                let cancel = rng.chance(0.2);
                let (kind, delta) = if cancel {
                    (KIND_CANCEL, 1)
                } else {
                    (KIND_RESERVE, -1)
                };
                let mut booked = 0i64;
                for _ in 0..nested {
                    let cat = rng.below(3);
                    let item = layout.item_oid(cat, rng.below(layout.items_per_category));
                    ops.push(ScriptOp::OpenNested(KIND_RESERVE_ITEM));
                    ops.push(ScriptOp::Write(item));
                    ops.push(ScriptOp::AddScalar(item, delta));
                    ops.push(ScriptOp::CloseNested);
                    ops.push(ScriptOp::Compute(COMPUTE));
                    booked += 1;
                }
                // Bill (or refund) the customer at PARENT level after the
                // nested reservations (the Fig. 1 shape: a conflict here
                // risks every committed child).
                let cust = layout.customer_oid(rng.below(layout.customers));
                ops.push(ScriptOp::Write(cust));
                ops.push(ScriptOp::AddScalar(cust, -delta * booked * ITEM_PRICE));
                ops.push(ScriptOp::Compute(COMPUTE));
                queue.push(Box::new(ScriptProgram::new(kind, &ops[..])));
            }
        }
        programs.push(queue);
    }
    WorkloadSource { objects, programs }
}

/// Invariant over a final state: total billed to customers equals
/// `ITEM_PRICE ×` net items reserved out of the inventories.
pub fn billing_matches_inventory(
    state: &std::collections::HashMap<ObjectId, (Payload, u64)>,
    p: &WorkloadParams,
) -> bool {
    let layout = Layout::for_params(p);
    let mut reserved = 0i64;
    for cat in 0..3 {
        for i in 0..layout.items_per_category {
            let (pay, _) = &state[&layout.item_oid(cat, i)];
            reserved += INITIAL_STOCK - pay.as_scalar();
        }
    }
    let mut billed = 0i64;
    for c in 0..layout.customers {
        let (pay, _) = &state[&layout.customer_oid(c)];
        billed += pay.as_scalar();
    }
    billed == reserved * ITEM_PRICE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams {
            nodes: 4,
            txns_per_node: 30,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn layout_partitions_id_space() {
        let p = params();
        let l = Layout::for_params(&p);
        assert_eq!(l.total() as usize, p.total_objects());
        // No overlap between categories and customers.
        let mut seen = std::collections::HashSet::new();
        for cat in 0..3 {
            for i in 0..l.items_per_category {
                assert!(seen.insert(l.item_oid(cat, i)));
            }
        }
        for c in 0..l.customers {
            assert!(seen.insert(l.customer_oid(c)));
        }
    }

    #[test]
    fn generates_objects_and_programs() {
        let p = params();
        let w = generate(&p);
        assert_eq!(w.objects.len(), p.total_objects());
        assert_eq!(w.programs.len(), 4);
        assert!(w.programs.iter().all(|q| q.len() == 30));
    }

    #[test]
    fn writers_include_customer_update() {
        let mut p = params();
        p.read_ratio = 0.0; // all writers
        let w = generate(&p);
        for prog in w.programs.iter().flatten() {
            assert!(matches!(prog.kind(), k if k == KIND_RESERVE || k == KIND_CANCEL));
        }
    }

    #[test]
    fn pristine_state_satisfies_invariant() {
        let p = params();
        let w = generate(&p);
        let state: std::collections::HashMap<ObjectId, (Payload, u64)> = w
            .objects
            .iter()
            .map(|(oid, pay)| (*oid, (pay.clone(), 0)))
            .collect();
        assert!(billing_matches_inventory(&state, &p));
    }
}
