//! Exhaustive small-model checker for the TFA/RTS protocol.
//!
//! The model: `nodes` nodes on a complete fixed-delay network, `objects`
//! scalar objects (hash-homed as in production), and one 2-deep
//! closed-nested increment transaction on each of the first two nodes —
//! both touching **every** object, so the two parents conflict on the
//! whole footprint. Concurrency is 1 transaction per node and the
//! workload is 1 transaction per node, which keeps the reachable state
//! space finite for the real protocol while still covering fetch
//! forwarding, nested open/commit/abort, lock/validate/publish commit,
//! queue/backoff scheduling, and cache reuse.
//!
//! Two conflict-adjudication modes (see [`ModelCfg::parent_scope`]): the
//! default **child** scope keeps the model finite — the sweep provably
//! exhausts the reachable space — while the opt-in **parent** scope routes
//! conflicts through the transactional scheduler (the policies diverge:
//! RTS parks, backoff arms timers) at the cost of an unbounded retry
//! space, so it runs as a bounded exploration with the same oracles.
//!
//! Exploration is breadth-first over **delivery choices**: a state is the
//! sequence of [`ChoiceQueue`] picks that produced it, and expanding a
//! state replays its choice prefix on a freshly built system (replay *is*
//! snapshot/restore — the simulator is deterministic given the choice
//! sequence). States are deduplicated by a time-abstract structural
//! fingerprint: every node's [`protocol_fingerprint`] plus the sorted
//! multiset of undelivered message/timer hashes. Timestamps are excluded
//! throughout — `ChoiceQueue` re-stamps deliveries onto a monotone
//! virtual clock, so absolute times are schedule-dependent while protocol
//! state is not.
//!
//! Oracles, checked at every state:
//!
//! * **TFA clock monotonicity** — no node's clock ever decreases along
//!   any path (including cache fast-path grants);
//! * **single writable copy** — no object owned by two nodes;
//! * **cache freshness** — no retained copy newer than the owner's;
//! * **node-local structure** — live-tx accounting, shadow-copy
//!   ancestry, no lock held by a finished transaction.
//!
//! And at terminal states (no event left to deliver):
//!
//! * **progress** — a quiescent system must have finished every issued
//!   transaction (nothing parked forever in a scheduler queue);
//! * **commit totality + trace audit** — both transactions committed and
//!   the recorded protocol trace passes the offline `audit` battery.
//!
//! [`protocol_fingerprint`]: hyflow_dstm::Node::protocol_fingerprint

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use dstm_harness::traceio::audit;
use dstm_net::Topology;
use dstm_sim::SimDuration;
use dstm_sim::{ChoiceQueue, KernelEvent};
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{DstmConfig, Fnv64, Msg, Payload, System, SystemBuilder, Timer, WorkloadSource};
use rts_core::{ObjectId, SchedulerKind, TxKind};

/// Model axes and exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ModelCfg {
    pub scheduler: SchedulerKind,
    pub nodes: usize,
    pub objects: usize,
    /// Run the model with the remote-read cache on (exercises the cache
    /// fast path under every interleaving).
    pub cache: bool,
    /// Adjudicate lock-busy conflicts at **parent** scope (the paper's
    /// baseline), routing them through the transactional scheduler. This
    /// makes the three policies genuinely diverge — RTS parks requesters,
    /// TFA+Backoff arms backoff timers — but a parent abort restarts the
    /// whole transaction with a fresh attempt number, so the retry loop
    /// never returns to a previously seen state and the reachable space is
    /// unbounded. Use it only as a **bounded** exploration (the report says
    /// `BOUNDED`); the default child scope keeps the model finite and the
    /// sweep exhaustive.
    pub parent_scope: bool,
    /// Stop (incomplete) after expanding this many unique states.
    pub max_states: u64,
    /// Stop (incomplete) past this choice-sequence depth.
    pub max_depth: usize,
}

impl Default for ModelCfg {
    fn default() -> Self {
        ModelCfg {
            scheduler: SchedulerKind::Rts,
            nodes: 3,
            objects: 2,
            cache: true,
            parent_scope: false,
            max_states: 500_000,
            max_depth: 4_000,
        }
    }
}

impl ModelCfg {
    /// Whether the model can be built and checked: two nodes for a
    /// conflict, an object to conflict on, a state to expand and a
    /// transition to follow from it. The error names the offending count.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err(format!("nodes {}: the model needs at least 2", self.nodes));
        }
        if self.objects < 1 {
            return Err(format!(
                "objects {}: the model needs at least 1",
                self.objects
            ));
        }
        if self.max_states < 1 {
            return Err(format!(
                "max-states {}: the check expands at least 1",
                self.max_states
            ));
        }
        if self.max_depth < 1 {
            return Err(format!(
                "max-depth {}: the check follows at least 1 transition",
                self.max_depth
            ));
        }
        Ok(())
    }
}

/// Exploration outcome.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Unique states expanded.
    pub explored: u64,
    /// Edges followed (choice deliveries).
    pub transitions: u64,
    /// Quiescent states reached.
    pub terminals: u64,
    /// Revisits pruned by the fingerprint set.
    pub deduped: u64,
    /// Longest choice sequence expanded.
    pub max_depth_seen: usize,
    /// Conflict coverage: the largest system-wide abort total observed in
    /// any explored state. Zero means no interleaving ever collided the
    /// two transactions — the schedulers were never actually exercised.
    pub max_aborts_seen: u64,
    /// Largest system-wide enqueue total observed in any explored state
    /// (RTS parks requesters; always zero for the TFA variants).
    pub max_enqueued_seen: u64,
    /// True iff the frontier emptied without hitting a bound — the listed
    /// state count is the *whole* reachable space of the model.
    pub complete: bool,
    pub violations: Vec<String>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

type ModelSystem = System<ChoiceQueue<Msg, Timer>>;

/// Build the model system: fresh, at time zero, `StartWorkload` pending.
///
/// # Panics
/// If `cfg` fails [`ModelCfg::validate`].
pub fn build_model(cfg: &ModelCfg) -> ModelSystem {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let topo = Topology::complete(cfg.nodes, 5);
    let mut dstm = DstmConfig::default().with_scheduler(cfg.scheduler);
    dstm.concurrency_per_node = 1;
    if cfg.parent_scope {
        dstm.conflict_scope = hyflow_dstm::ConflictScope::Parent;
    }
    dstm.cache = cfg.cache;
    dstm.trace_protocol = true;
    let oids: Vec<ObjectId> = (0..cfg.objects as u64).map(ObjectId).collect();
    let objects = oids.iter().map(|&o| (o, Payload::Scalar(0))).collect();
    let mut programs: Vec<Vec<hyflow_dstm::BoxedProgram>> =
        (0..cfg.nodes).map(|_| Vec::new()).collect();
    for (slot, node) in programs.iter_mut().take(2).enumerate() {
        // One 2-deep closed-nested increment per object, with a Compute
        // step inside each child. The compute matters: it turns every
        // child into a multi-event span (ComputeDone timers), so another
        // node's fetch can land *mid-transaction* and the owner-side
        // conflict path — where the three schedulers actually differ —
        // is reachable. Node 1 visits the objects in reverse so the two
        // parents' footprints collide in both orders.
        let mut ops = Vec::new();
        let mut order = oids.clone();
        if slot == 1 {
            order.reverse();
        }
        for oid in order {
            ops.push(ScriptOp::OpenNested(TxKind(11 + slot as u16)));
            ops.push(ScriptOp::Write(oid));
            ops.push(ScriptOp::AddScalar(oid, 1));
            ops.push(ScriptOp::Compute(SimDuration::from_millis(1)));
            ops.push(ScriptOp::CloseNested);
        }
        // Parent kind / child kind distinct per node so the stats table
        // treats them as different transaction classes.
        node.push(Box::new(ScriptProgram::new(TxKind(1 + slot as u16), ops)));
    }
    SystemBuilder::new(topo, dstm)
        .seed(0x5EED_C4EC)
        .build_with_queue(WorkloadSource { objects, programs }, ChoiceQueue::new())
}

/// Rebuild the state reached by a choice prefix (deterministic replay).
fn replay(cfg: &ModelCfg, choices: &[usize]) -> ModelSystem {
    let mut system = build_model(cfg);
    for &c in choices {
        system.world_mut().queue_mut().choose(c);
        let stepped = system.world_mut().step();
        debug_assert!(stepped, "replay ran out of events");
    }
    system
}

/// Time-abstract fingerprint: node protocol states + the sorted multiset
/// of undelivered events.
fn fingerprint(system: &ModelSystem) -> u64 {
    let mut h = Fnv64::new();
    for node in system.world().actors() {
        h.write_u64(node.protocol_fingerprint());
    }
    let mut events: Vec<u64> = system
        .world()
        .queue()
        .pending_events()
        .iter()
        .map(|ev| {
            let mut eh = Fnv64::new();
            match &ev.payload {
                KernelEvent::Msg { from, to, msg } => (1u8, from, to, msg).hash(&mut eh),
                KernelEvent::Timer { on, timer, .. } => (2u8, on, timer).hash(&mut eh),
            }
            eh.finish()
        })
        .collect();
    events.sort_unstable();
    h.write_u64(events.len() as u64);
    for e in events {
        h.write_u64(e);
    }
    h.finish()
}

/// The safety oracles every reachable state must satisfy. `prev_clocks`
/// are the parent state's per-node TFA clocks (`None` at the root).
fn state_oracles(
    system: &ModelSystem,
    prev_clocks: Option<&[u64]>,
    out: &mut Vec<String>,
) -> Vec<u64> {
    let clocks: Vec<u64> = system.world().actors().iter().map(|n| n.clock()).collect();
    if let Some(prev) = prev_clocks {
        for (i, (&was, &is)) in prev.iter().zip(&clocks).enumerate() {
            if is < was {
                out.push(format!("node {i} TFA clock went backwards: {was} -> {is}"));
            }
        }
    }
    // Mid-flight, a migrating object transiently has two holders (the
    // committed new owner plus the not-yet-tombstoned old one), so the
    // writable-copy invariant here is *per version*: no two nodes may hold
    // the same object at the same committed version — two committed
    // writers at one version would mean a lost update.
    let mut held: std::collections::HashMap<(ObjectId, u64), usize> =
        std::collections::HashMap::new();
    let mut newest: std::collections::HashMap<ObjectId, u64> = std::collections::HashMap::new();
    for (i, node) in system.world().actors().iter().enumerate() {
        for (&oid, owned) in node.owned_objects() {
            if let Some(prev) = held.insert((oid, owned.version), i) {
                out.push(format!(
                    "two committed writers: {oid:?} held at v{} by node {prev} and node {i}",
                    owned.version
                ));
            }
            let v = newest.entry(oid).or_insert(owned.version);
            *v = (*v).max(owned.version);
        }
    }
    // Cache freshness: no retained copy ahead of every authoritative one.
    for (i, node) in system.world().actors().iter().enumerate() {
        for (oid, copy) in node.cached_copies() {
            if let Some(&version) = newest.get(&oid) {
                if copy.version > version {
                    out.push(format!(
                        "node {i} cache ahead of owner: {oid:?} cached v{} owned v{version}",
                        copy.version
                    ));
                }
            }
        }
    }
    for node in system.world().actors() {
        node.local_invariants(out);
    }
    clocks
}

/// Breadth-first exhaustive exploration of the model under `cfg`.
pub fn check_model(cfg: &ModelCfg) -> CheckReport {
    check_model_with(cfg, |_, _| {})
}

/// [`check_model`] with a progress callback `(states_expanded,
/// frontier_len)`, called every 500 expansions.
pub fn check_model_with(cfg: &ModelCfg, mut progress: impl FnMut(u64, usize)) -> CheckReport {
    /// Stop collecting (but keep reporting a failure) past this many
    /// violations — one protocol bug tends to fail whole subtrees.
    const MAX_VIOLATIONS: usize = 20;

    struct StateRec {
        choices: Vec<usize>,
        clocks: Vec<u64>,
    }

    let mut report = CheckReport {
        complete: true,
        ..CheckReport::default()
    };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut frontier: VecDeque<StateRec> = VecDeque::new();

    let root = build_model(cfg);
    let root_clocks = state_oracles(&root, None, &mut report.violations);
    seen.insert(fingerprint(&root));
    frontier.push_back(StateRec {
        choices: Vec::new(),
        clocks: root_clocks,
    });

    while let Some(rec) = frontier.pop_front() {
        if report.explored >= cfg.max_states {
            report.complete = false;
            break;
        }
        if report.violations.len() >= MAX_VIOLATIONS {
            report.complete = false;
            break;
        }
        report.explored += 1;
        report.max_depth_seen = report.max_depth_seen.max(rec.choices.len());
        if report.explored.is_multiple_of(500) {
            progress(report.explored, frontier.len());
        }

        let mut system = replay(cfg, &rec.choices);
        let (mut aborts, mut enqueued) = (0u64, 0u64);
        for node in system.world().actors() {
            aborts += node.metrics.total_aborts();
            enqueued += node.metrics.enqueued;
        }
        report.max_aborts_seen = report.max_aborts_seen.max(aborts);
        report.max_enqueued_seen = report.max_enqueued_seen.max(enqueued);
        let n = system.world().queue().num_choices();
        if n == 0 {
            report.terminals += 1;
            terminal_oracles(&mut system, &mut report);
            continue;
        }
        if rec.choices.len() >= cfg.max_depth {
            report.complete = false;
            continue;
        }

        for c in 0..n {
            report.transitions += 1;
            let mut child = replay(cfg, &rec.choices);
            child.world_mut().queue_mut().choose(c);
            let stepped = child.world_mut().step();
            debug_assert!(stepped, "enabled choice did not step");
            let clocks = state_oracles(&child, Some(&rec.clocks), &mut report.violations);
            if seen.insert(fingerprint(&child)) {
                let mut choices = rec.choices.clone();
                choices.push(c);
                frontier.push_back(StateRec { choices, clocks });
            } else {
                report.deduped += 1;
            }
        }
    }

    report
}

/// Progress + totality + offline audit at a quiescent state.
fn terminal_oracles(system: &mut ModelSystem, report: &mut CheckReport) {
    if !system.all_done() {
        report.violations.push(
            "progress violation: no event left to deliver but a node never finished \
             its workload (transaction parked forever?)"
                .into(),
        );
        return;
    }
    // Quiescent: the strict form of the writable-copy invariant applies.
    if let Err(e) = system.try_object_state() {
        report.violations.push(e);
    }
    let commits: u64 = system
        .world()
        .actors()
        .iter()
        .map(|n| n.metrics.commits)
        .sum();
    if commits != 2 {
        report.violations.push(format!(
            "terminal state committed {commits} top-level transactions, expected 2"
        ));
    }
    let trace = system.take_trace();
    let audit_report = audit(&trace);
    for v in audit_report.violations {
        report.violations.push(format!("terminal trace audit: {v}"));
    }
}
