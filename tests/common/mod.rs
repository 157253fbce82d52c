//! Queues the integration tests put in the heap's place — a wrapper without
//! a `lookahead` override, and the model the heap is checked against — the
//! way to run a harness cell on one, the line that sums a run up, and (in
//! [`model_tx`]) the model the transaction runtime is checked against.

// Each test target compiles this module and uses its own subset.
#![allow(dead_code)]

pub mod model_tx;

use closed_nesting_dstm::harness::runner::{build_system_with_queue, Cell};
use closed_nesting_dstm::hyflow::{NodeEvent, RunMetrics, TraceLog};
use closed_nesting_dstm::sim::{EventKey, EventQueue, Sequenced, SimTime};
use std::collections::BTreeMap;

/// Forwards the four required `EventQueue` methods and nothing else: what
/// the kernel sees of a backend written before `lookahead` existed.
pub struct NoLookahead<Q>(pub Q);

impl<E, Q: EventQueue<E>> EventQueue<E> for NoLookahead<Q> {
    fn push(&mut self, ev: Sequenced<E>) {
        self.0.push(ev)
    }
    fn pop(&mut self) -> Option<Sequenced<E>> {
        self.0.pop()
    }
    fn peek_key(&self) -> Option<EventKey> {
        self.0.peek_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The simplest structure with the `EventQueue` contract, a map ordered by
/// `(time, seq)`: the oracle for the heap, and the queue that shares no code
/// with it for whole worlds and `System`s to run on. Offers no lookahead.
pub struct ModelQueue<E>(pub BTreeMap<(u64, u64), E>);

impl<E> Default for ModelQueue<E> {
    fn default() -> Self {
        ModelQueue(BTreeMap::new())
    }
}

impl<E> EventQueue<E> for ModelQueue<E> {
    fn push(&mut self, ev: Sequenced<E>) {
        let clash = self.0.insert((ev.key.time.0, ev.key.seq), ev.payload);
        assert!(clash.is_none(), "duplicate event key {:?}", ev.key);
    }
    fn pop(&mut self) -> Option<Sequenced<E>> {
        let ((time, seq), payload) = self.0.pop_first()?;
        Some(Sequenced {
            key: EventKey::new(SimTime(time), seq),
            payload,
        })
    }
    fn peek_key(&self) -> Option<EventKey> {
        let (&(time, seq), _) = self.0.first_key_value()?;
        Some(EventKey::new(SimTime(time), seq))
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// `run_cell_traced` on an explicit queue, minus the run-header and summary
/// records the runner appends.
pub fn run_traced_on<Q>(mut cell: Cell, queue: Q) -> (RunMetrics, TraceLog)
where
    Q: EventQueue<NodeEvent>,
{
    cell.dstm.trace_protocol = true;
    let mut system = build_system_with_queue(&cell, queue);
    let metrics = system.run_default();
    assert!(system.all_done(), "cell stalled");
    (metrics, system.take_trace())
}

/// FNV-1a over a byte string (stable, dependency-free).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line per run: every observable outcome, including a hash of the full
/// protocol trace (lossless JSONL form). The golden digests are these lines.
pub fn outcome_line(m: &RunMetrics, trace: &TraceLog) -> String {
    format!(
        "commits={} aborts={} nested_commits={} nested_own={} nested_parent={} \
         messages={} elapsed={} ended_at={} trace_records={} trace_fnv={:016x}",
        m.merged.commits,
        m.merged.total_aborts(),
        m.merged.nested_commits,
        m.merged.nested_aborts_own,
        m.merged.nested_aborts_parent,
        m.messages,
        m.elapsed.as_nanos(),
        m.ended_at.as_nanos(),
        trace.records.len(),
        fnv1a(trace.to_jsonl().as_bytes()),
    )
}
