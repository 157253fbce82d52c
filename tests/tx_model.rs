//! `TxRuntime` against the reference model of `tests/common/model_tx.rs`.
//!
//! Random sequences of everything the executor does to a runtime — open a
//! child, install a fetch, touch or overwrite a held object, close, roll
//! back to any level, restart — one to four levels deep, over a universe of
//! six objects so the same object turns up at several levels. After every
//! step every question the protocol asks of a runtime must get the model's
//! answer: what a program reads, what validation and publish sets contain,
//! which level a stale object takes down, the Table-I split of a rollback,
//! and the contention level the next request carries.
//!
//! One rule shapes the sequences. The executor fetches only what the
//! transaction does not hold, but the runtime's contention accounting must
//! stay right even if a child fetches an object an ancestor holds (that
//! fetch dies with the child; the ancestor's does not). Such a *re-fetch*
//! is generated — of objects the child has not touched — and the child then
//! has to abort: committing a second fetch of one object into the level that
//! holds the first was never given a meaning.

mod common;

use closed_nesting_dstm::hyflow::program::ScriptProgram;
use closed_nesting_dstm::hyflow::{AccessMode, Payload, TxRuntime};
use closed_nesting_dstm::rts::{ObjectId, TxId, TxKind};
use closed_nesting_dstm::sim::{SimRng, SimTime};
use common::model_tx::{ModelCopy, ModelTx};
use std::sync::Arc;

const OBJECTS: u64 = 6;
const MAX_DEPTH: usize = 4;

fn new_runtime() -> TxRuntime {
    TxRuntime::new(
        TxId::new(0, 1),
        Box::new(ScriptProgram::new(TxKind(1), Vec::new())),
        SimTime(1_000),
        SimTime(50_000_000),
        0,
    )
}

fn mode_of(rng: &mut SimRng) -> AccessMode {
    if rng.chance(0.5) {
        AccessMode::Write
    } else {
        AccessMode::Read
    }
}

/// Every observable of `tx` equals the model's.
fn assert_same(tx: &TxRuntime, model: &ModelTx, ctx: &str) {
    assert_eq!(tx.top() + 1, model.depth(), "depth {ctx}");
    assert_eq!(tx.in_nested(), model.depth() > 1, "in_nested {ctx}");
    let mut any = false;
    for oid in (0..OBJECTS + 1).map(ObjectId) {
        let real = tx.lookup(oid).map(|c| ModelCopy {
            payload: (*c.payload).clone(),
            version: c.version,
            owner: c.owner,
            mode: c.mode,
            dirty: c.dirty,
        });
        assert_eq!(real.as_ref(), model.lookup(oid), "lookup {oid:?} {ctx}");
        assert_eq!(tx.holds(oid), real.is_some(), "holds {oid:?} {ctx}");
        assert_eq!(
            tx.outermost_level_holding(oid),
            model.outermost_level_holding(oid),
            "outermost_level_holding {oid:?} {ctx}"
        );
        any |= real.is_some();
    }
    assert_eq!(tx.has_objects(), any, "has_objects {ctx}");
    assert_eq!(
        tx.live_nested_population(),
        model.live_nested_population(),
        "live_nested_population {ctx}"
    );
    assert_eq!(tx.cl.my_cl(), model.my_cl(), "my_cl {ctx}");

    let (mut summary, mut write_back) = (Vec::new(), Vec::new());
    tx.object_summary_into(&mut summary);
    assert_eq!(summary, model.object_summary(), "object_summary {ctx}");
    tx.write_back_set_into(&mut summary, &mut write_back);
    assert_eq!(
        summary,
        model.object_summary(),
        "summary of write-back {ctx}"
    );
    let write_back: Vec<_> = write_back
        .into_iter()
        .map(|(oid, payload, version, owner)| (oid, (*payload).clone(), version, owner))
        .collect();
    assert_eq!(write_back, model.write_back_set(), "write_back_set {ctx}");
}

/// What the sequences reached, so a generator that stops reaching it fails.
#[derive(Default)]
struct Coverage {
    deepest: usize,
    refetches: u64,
    /// Closes of a child that had touched an object of an ancestor.
    merges: u64,
    /// Rollbacks that kept at least one level with objects below them.
    partial_aborts: u64,
}

fn run_sequence(seed: u64, steps: usize, seen: &mut Coverage) {
    let mut rng = SimRng::new(seed);
    let mut tx = new_runtime();
    let mut model = ModelTx::new();
    let mut next_value = 0i64;
    let mut attempt = 0u32;
    assert_same(&tx, &model, "at start");

    for step in 0..steps {
        let oid = ObjectId(rng.below(OBJECTS));
        let depth = model.depth();
        let visible = model.lookup(oid).is_some();
        next_value += 1;
        let what = match rng.below(12) {
            0 | 1 if depth < MAX_DEPTH => {
                let now = SimTime(2_000 + step as u64);
                tx.open_nested(TxKind(2), tx.program.clone_box(), now);
                model.open();
                "open".to_string()
            }
            // A fetch of an object nobody holds or, in a child, a re-fetch
            // of one an ancestor holds and this level has not touched.
            2..=4 if !visible || (depth > 1 && !model.touched_at_top(oid) && rng.chance(0.2)) => {
                let copy = ModelCopy {
                    payload: Payload::Scalar(next_value),
                    version: 1 + rng.below(50),
                    owner: rng.below(8) as u32,
                    mode: mode_of(&mut rng),
                    dirty: false,
                };
                let reported_cl = 1 + rng.below(5) as u32;
                tx.install_fetched(
                    oid,
                    Arc::new(copy.payload.clone()),
                    copy.version,
                    reported_cl,
                    copy.owner,
                    copy.mode,
                );
                seen.refetches += u64::from(visible);
                model.install(oid, copy, reported_cl);
                format!("install {oid:?}")
            }
            5 | 6 if visible => {
                tx.write_local(oid, Payload::Scalar(next_value));
                model.write_local(oid, Payload::Scalar(next_value));
                format!("write {oid:?}")
            }
            7 | 8 if depth > 1 && !model.top_refetched() => {
                let parent_holds = |o| {
                    model
                        .outermost_level_holding(o)
                        .is_some_and(|l| l < depth - 1)
                };
                seen.merges += u64::from(
                    (0..OBJECTS)
                        .any(|o| model.touched_at_top(ObjectId(o)) && parent_holds(ObjectId(o))),
                );
                tx.close_nested();
                model.close();
                "close".to_string()
            }
            9 if rng.chance(0.3) => {
                let acc = tx.abort_to_level(0);
                assert_eq!(acc, model.abort_to_level(0), "restart's rollback");
                attempt += 1;
                tx.restart(SimTime(9_000), SimTime(60_000_000), u64::from(attempt));
                model.restart();
                assert_eq!(tx.attempt, attempt);
                "restart".to_string()
            }
            10 => {
                let level = rng.below(depth as u64) as usize;
                seen.partial_aborts += u64::from(level > 0 && tx.has_objects());
                let acc = tx.abort_to_level(level);
                assert_eq!(acc, model.abort_to_level(level), "abort_to_level({level})");
                format!("abort_to_level({level})")
            }
            // Held or not: a miss must be a miss on both sides.
            _ => {
                let mode = mode_of(&mut rng);
                let real = tx.access_held(oid, mode).map(|p| (*p).clone());
                assert_eq!(real, model.access_held(oid, mode), "access_held {oid:?}");
                format!("access {oid:?} {mode:?}")
            }
        };
        seen.deepest = seen.deepest.max(model.depth());
        assert_same(
            &tx,
            &model,
            &format!("after step {step} ({what}), seed {seed}"),
        );
    }
}

#[test]
fn random_sequences_match_the_model() {
    let mut seen = Coverage::default();
    for seed in 0..400 {
        run_sequence(seed, 80, &mut seen);
    }
    println!(
        "deepest {}, {} re-fetches, {} merging closes, {} partial aborts",
        seen.deepest, seen.refetches, seen.merges, seen.partial_aborts
    );
    assert_eq!(seen.deepest, MAX_DEPTH);
    assert!(seen.refetches >= 100, "{} re-fetches", seen.refetches);
    assert!(seen.merges >= 400, "{} merging closes", seen.merges);
    assert!(
        seen.partial_aborts >= 400,
        "{} partial aborts",
        seen.partial_aborts
    );
}

/// The rule of the module doc, spelled out once: a child's own fetch of an
/// object its parent holds is released with the child, the parent's is not.
#[test]
fn a_childs_refetch_dies_alone() {
    let mut tx = new_runtime();
    let payload = || Arc::new(Payload::Scalar(0));
    tx.install_fetched(ObjectId(1), payload(), 1, 2, 0, AccessMode::Read);
    tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
    tx.install_fetched(ObjectId(1), payload(), 3, 4, 0, AccessMode::Read);
    tx.install_fetched(ObjectId(2), payload(), 1, 8, 0, AccessMode::Read);
    assert_eq!(tx.cl.my_cl(), 12);
    assert_eq!(tx.lookup(ObjectId(1)).expect("held").version, 3);
    tx.abort_to_level(1);
    assert_eq!(tx.cl.my_cl(), 4, "object 2 released, object 1 still held");
    assert_eq!(tx.lookup(ObjectId(1)).expect("held").version, 1);
    assert_eq!(tx.outermost_level_holding(ObjectId(1)), Some(0));
}
