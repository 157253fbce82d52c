//! The serial run loop's cache hints must be invisible.
//!
//! `GenericWorld::step` asks the queue backend for the next two events and
//! lets the actors they go to prefetch their state. That may change how long
//! a run takes on the host and nothing else: hints read no randomness, arm
//! no timers, send nothing and count nothing. The proof is differential —
//! every cell below runs once on [`BinaryHeapQueue`], which offers a
//! lookahead, and once on the same heap behind [`NoLookahead`], which
//! forwards the four required `EventQueue` methods and so offers none — and
//! everything a run leaves behind must be equal: the run metrics, the final
//! object state, the kernel's delivery counters, and with the protocol trace
//! on, every byte of the exported trace.
//!
//! One more world, below the protocol layer, makes handlers schedule events
//! *earlier* than the ones the queue had just announced, so that hints go
//! stale, and checks that a stale hint changes nothing either.

mod common;

use closed_nesting_dstm::harness::runner::{build_system_with_queue, Cell, TopologySpec};
use closed_nesting_dstm::hyflow::{Fnv64, NodeEvent};
use closed_nesting_dstm::prelude::*;
use closed_nesting_dstm::sim::{
    Actor, ActorId, BinaryHeapQueue, Ctx, EventQueue, GenericWorld, KernelEvent,
};
use common::NoLookahead;
use std::cell::RefCell;
use std::rc::Rc;

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

/// Everything one run leaves behind, in a comparable form.
fn outcome<Q: EventQueue<NodeEvent>>(cell: &Cell, queue: Q) -> String {
    let mut system = build_system_with_queue(cell, queue);
    let m = system.run_default();
    assert!(system.all_done(), "cell stalled");
    let mut objects: Vec<_> = system.object_state().into_iter().collect();
    objects.sort_by_key(|(oid, _)| *oid);
    let trace = system.take_trace().to_jsonl();
    format!(
        "{:?} elapsed={:?} messages={} started={:?} ended={:?} delivered={} timers={} \
         batched={} objects={objects:?} trace_bytes={} trace_fnv={:016x}",
        m.merged,
        m.elapsed,
        m.messages,
        m.started_at,
        m.ended_at,
        system.world().messages_delivered(),
        system.world().timers_fired(),
        system.world().batched_messages(),
        trace.len(),
        {
            let mut h = Fnv64::new();
            h.write_bytes(trace.as_bytes());
            h.finish()
        },
    )
}

fn assert_hints_invisible(label: &str, cell: &Cell) {
    let with = outcome(cell, BinaryHeapQueue::new());
    let without = outcome(cell, NoLookahead(BinaryHeapQueue::new()));
    assert_eq!(with, without, "hints changed the outcome of {label}");
}

#[test]
fn hinted_and_unhinted_runs_are_identical() {
    for benchmark in [Benchmark::Bank, Benchmark::LinkedList, Benchmark::RbTree] {
        for scheduler in SCHEDULERS {
            for cache in [false, true] {
                for nodes in [8, 40] {
                    let label = format!(
                        "{}/{}/cache={cache}/n={nodes}",
                        benchmark.label(),
                        scheduler.label()
                    );
                    let mut cell = Cell::new(benchmark, scheduler, nodes, 0.5)
                        .with_txns(if nodes == 8 { 6 } else { 3 })
                        .with_seed(0x100 + nodes as u64)
                        .with_cache(cache);
                    assert_hints_invisible(&label, &cell);
                    // With the trace on, the digest covers every protocol
                    // event in order, not only the totals.
                    cell.dstm.trace_protocol = true;
                    assert_hints_invisible(&format!("{label}/traced"), &cell);
                }
            }
        }
    }
}

#[test]
fn a_400_node_hashed_cell_is_identical() {
    let cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, 400, 0.5)
        .with_txns(3)
        .with_seed(0xD57A)
        .with_cache(false)
        .with_topology(TopologySpec::HashedRandom {
            min_ms: 1,
            max_ms: 50,
        });
    assert_hints_invisible("bank/RTS/hashed/n=400", &cell);
}

// ---------------------------------------------------------------------------
// Stale hints
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seen {
    /// `hint_next` announced this message as the next delivery.
    Announced(u32),
    /// `hint_soon` ran on this actor.
    Warmed(u32),
    Delivered(u32),
}

/// Bounces uniquely numbered messages between actors. Every third delivery
/// answers with a zero-delay message — an event earlier than everything the
/// queue announced before the handler ran.
struct Bouncer {
    me: u32,
    peers: u32,
    journal: Rc<RefCell<Vec<Seen>>>,
}

impl Actor for Bouncer {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: ActorId, msg: u32) {
        self.journal.borrow_mut().push(Seen::Delivered(msg));
        let hops_left = msg % 100;
        if hops_left == 0 {
            return;
        }
        let to = ActorId(ctx.rng().below(u64::from(self.peers)) as u32);
        let delay = if hops_left.is_multiple_of(3) {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(1 + ctx.rng().below(900))
        };
        ctx.send(to, msg - 1, delay);
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, u32, ()>, _: ()) {}

    fn hint_soon(&self) {
        self.journal.borrow_mut().push(Seen::Warmed(self.me));
    }

    fn hint_next(&self, next: &KernelEvent<u32, ()>) {
        if let KernelEvent::Msg { msg, .. } = next {
            self.journal.borrow_mut().push(Seen::Announced(*msg));
        }
    }
}

fn bounce<Q: EventQueue<KernelEvent<u32, ()>>>(queue: Q) -> Vec<Seen> {
    const ACTORS: u32 = 5;
    let journal = Rc::new(RefCell::new(Vec::new()));
    let actors = (0..ACTORS)
        .map(|me| Bouncer {
            me,
            peers: ACTORS,
            journal: Rc::clone(&journal),
        })
        .collect();
    let mut world = GenericWorld::with_queue(actors, 0x5EED, queue);
    // Chains of 60 hops, numbered so that every message in flight is unique.
    for chain in 0..8u32 {
        let first = (chain + 1) * 100 + 60;
        world.send_external(
            ActorId(chain % ACTORS),
            first,
            SimDuration::from_micros(u64::from(chain) * 40),
        );
    }
    world.run();
    assert_eq!(world.messages_delivered(), 8 * 61);
    drop(world);
    Rc::try_unwrap(journal)
        .expect("the world is gone")
        .into_inner()
}

#[test]
fn a_stale_hint_changes_nothing() {
    let hinted = bounce(BinaryHeapQueue::new());
    let unhinted = bounce(NoLookahead(BinaryHeapQueue::new()));

    // No lookahead, no hints at all.
    assert!(unhinted.iter().all(|s| matches!(s, Seen::Delivered(_))));
    // With it, both stages ran ...
    assert!(hinted.iter().any(|s| matches!(s, Seen::Warmed(_))));
    assert!(hinted.iter().any(|s| matches!(s, Seen::Announced(_))));
    // ... some announcements came true, and some were overtaken by an
    // earlier event the running handler scheduled.
    // (The loop announces event k+1 between popping event k and running its
    // handler, so an announcement is judged by the delivery after next.)
    let mut kept = 0;
    let mut stale = 0;
    let mut expected = None;
    let mut latest = None;
    for s in &hinted {
        match *s {
            Seen::Announced(m) => latest = Some(m),
            Seen::Delivered(m) => {
                match expected {
                    Some(a) if a == m => kept += 1,
                    Some(_) => stale += 1,
                    None => {}
                }
                expected = latest.take();
            }
            Seen::Warmed(_) => {}
        }
    }
    assert!(kept > 100, "only {kept} announcements came true");
    assert!(stale > 20, "only {stale} announcements went stale");

    // And the deliveries are the same, in the same order.
    let deliveries = |j: &[Seen]| -> Vec<Seen> {
        j.iter()
            .copied()
            .filter(|s| matches!(s, Seen::Delivered(_)))
            .collect()
    };
    assert_eq!(deliveries(&hinted), unhinted);
}
