//! Transactions as resumable state machines.
//!
//! The benchmarks of §IV perform data-dependent access sequences (list and
//! tree traversals decide the next object from the last value read), so a
//! transaction cannot be a static access list; and a deterministic
//! discrete-event simulator cannot block a thread per transaction. The
//! compromise is a **resumable program**: the executor calls
//! [`TxProgram::step`] with the result of the previous operation and the
//! program replies with its next operation.
//!
//! Retry is handled by **checkpoints**. At every level boundary — the start
//! of an attempt, and right after the step that returned `OpenNested` — the
//! executor asks the program for a [`ProgramCheckpoint`], a `Copy` value of
//! four words, and keeps it in the nesting level; an abort hands it back to
//! [`TxProgram::rewind`] and replays the level — whole-transaction replay on
//! parent aborts, inner-level replay only on closed-nested child aborts. No
//! program is copied and nothing is allocated on either path. What a
//! checkpoint must hold is small because of *where* it is taken: a program
//! carries an operation cursor and perhaps a register across a level
//! boundary, not its traversal state.
//!
//! A program that does not implement the pair is still replayed correctly:
//! the executor keeps a `clone_box` of it per level instead
//! ([`ProgramSnapshot`]). That fallback exists for wrappers written before
//! checkpoints that forward the other methods only; once the last of them
//! (`benchmark/src/timed.rs`) forwards the pair, `clone_box` and the
//! fallback leave the trait.

use crate::object::Payload;
use dstm_sim::SimDuration;
use rts_core::{ObjectId, TxKind};
use std::sync::Arc;

/// Read or write intent for an object acquisition. In TFA both return a
/// copy optimistically; write intent additionally puts the object in the
/// commit-time lock/publish set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    Read,
    Write,
}

/// What the executor feeds the program on each step.
#[derive(Debug)]
pub enum StepInput<'a> {
    /// First step of a (re)started transaction attempt.
    Begin,
    /// The payload produced by the previous `Acquire` (a view of the
    /// transaction's working copy).
    Value(&'a Payload),
    /// The previous operation (`WriteLocal`, `Compute`, `OpenNested`,
    /// `CloseNested`) completed.
    Ack,
}

/// What the program asks the executor to do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutput {
    /// Fetch an object into the working set (remote round-trip unless the
    /// object is already held).
    Acquire(ObjectId, AccessMode),
    /// Overwrite the working copy of an object previously acquired with
    /// write intent. Local, immediate.
    WriteLocal(ObjectId, Payload),
    /// Consume local execution time (the γ of the analysis).
    Compute(SimDuration),
    /// Begin a closed-nested child transaction of the given kind.
    OpenNested(TxKind),
    /// Commit the innermost child into its parent.
    CloseNested,
    /// The (top-level) transaction is ready to commit.
    Finish,
}

/// Where a program stands at a level boundary: everything
/// [`TxProgram::rewind`] needs to put it back there. Opaque to the executor,
/// which only stores and returns it; each program packs the two fields its
/// own way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramCheckpoint {
    /// Where to resume: an operation index, a state, or both.
    pub pc: u64,
    /// Registers that live across the boundary.
    pub regs: [i64; 3],
}

/// A resumable transaction body.
pub trait TxProgram {
    /// The transaction's kind, keying the stats table.
    fn kind(&self) -> TxKind;

    /// Advance the program. `input` carries the result of the previously
    /// requested operation ([`StepInput::Begin`] on the first call of an
    /// attempt).
    fn step(&mut self, input: StepInput<'_>) -> StepOutput;

    /// Clone the program state: what the executor replays from when the
    /// program offers no [`TxProgram::checkpoint`].
    fn clone_box(&self) -> Box<dyn TxProgram>;

    /// The program's position, for [`TxProgram::rewind`] to return to.
    ///
    /// Asked at **level boundaries** only: before the first step of an
    /// attempt, and right after the step that returned
    /// [`StepOutput::OpenNested`]. Anything the program recomputes before it
    /// reads it again on the way from there (a traversal path, a write plan)
    /// need not be saved.
    ///
    /// The default offers none, and the executor keeps a
    /// [`TxProgram::clone_box`] for the level instead.
    fn checkpoint(&self) -> Option<ProgramCheckpoint> {
        None
    }

    /// Return to a position [`TxProgram::checkpoint`] reported earlier in
    /// this transaction: from then on the program must answer the same
    /// inputs with the same outputs as a `clone_box` taken at that moment
    /// would. Never called on a program whose `checkpoint` is `None`.
    fn rewind(&mut self, to: &ProgramCheckpoint) {
        unreachable!(
            "{} offered no checkpoint to rewind to: {to:?}",
            self.label()
        )
    }

    /// Human-readable label for traces.
    fn label(&self) -> &'static str {
        "tx"
    }

    /// No-op, kept only because `benchmark/src/timed.rs` forwards it; deleted with that call.
    fn access_hint(&self, _out: &mut Vec<ObjectId>) {}
}

/// Owned, cloneable program handle.
pub type BoxedProgram = Box<dyn TxProgram>;

impl Clone for BoxedProgram {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// What the executor keeps per nesting level to replay the level from: the
/// program's own checkpoint or, for a program that offers none, a copy of
/// the program as it stood.
pub enum ProgramSnapshot {
    At(ProgramCheckpoint),
    Whole(BoxedProgram),
}

impl ProgramSnapshot {
    /// Snapshot `program` where it stands (a level boundary).
    pub fn of(program: &dyn TxProgram) -> Self {
        match program.checkpoint() {
            Some(at) => ProgramSnapshot::At(at),
            None => ProgramSnapshot::Whole(program.clone_box()),
        }
    }

    /// Put `program` back where the snapshot was taken.
    pub fn restore(&self, program: &mut BoxedProgram) {
        match self {
            ProgramSnapshot::At(at) => program.rewind(at),
            ProgramSnapshot::Whole(copy) => *program = copy.clone_box(),
        }
    }
}

/// A copy of the program as it stood is a snapshot of it; only one that
/// cannot say where it stands is kept whole.
impl From<BoxedProgram> for ProgramSnapshot {
    fn from(copy: BoxedProgram) -> Self {
        match copy.checkpoint() {
            Some(at) => ProgramSnapshot::At(at),
            None => ProgramSnapshot::Whole(copy),
        }
    }
}

// ---------------------------------------------------------------------------
// Script programs: a straight-line DSL used by unit tests and scenarios
// ---------------------------------------------------------------------------

/// One scripted operation (see [`ScriptProgram`]): a plain 24-byte `Copy`
/// value — an object id and a scalar at most — so a script is one flat
/// array and a step copies its op out of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptOp {
    Read(ObjectId),
    Write(ObjectId),
    /// Add `delta` to a previously acquired `Scalar` object.
    AddScalar(ObjectId, i64),
    Compute(SimDuration),
    OpenNested(TxKind),
    CloseNested,
}

/// A transaction that replays a fixed list of operations — data-independent,
/// which is exactly what the scripted scenario reproductions (Figs. 2–3),
/// Bank, Vacation and many unit tests need.
///
/// The op list is immutable after construction and shared behind an `Arc`,
/// so a `clone_box` copies a pointer, not the script. Only the cursor (`pc`)
/// and scalar register change — and they are the whole checkpoint.
#[derive(Clone, Debug)]
pub struct ScriptProgram {
    kind: TxKind,
    ops: Arc<[ScriptOp]>,
    pc: usize,
    /// Last value read (used by `AddScalar`).
    last_scalar: i64,
}

impl ScriptProgram {
    /// A program over `ops`: an `Arc<[ScriptOp]>` is shared as is; a slice
    /// or a `Vec` is copied into one allocation of its final length, so a
    /// generator that builds many scripts reuses one buffer and passes it
    /// as a slice.
    pub fn new(kind: TxKind, ops: impl Into<Arc<[ScriptOp]>>) -> Self {
        ScriptProgram {
            kind,
            ops: ops.into(),
            pc: 0,
            last_scalar: 0,
        }
    }
}

impl TxProgram for ScriptProgram {
    fn kind(&self) -> TxKind {
        self.kind
    }

    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        if let StepInput::Value(Payload::Scalar(v)) = input {
            self.last_scalar = *v;
        }
        let Some(&op) = self.ops.get(self.pc) else {
            return StepOutput::Finish;
        };
        self.pc += 1;
        match op {
            ScriptOp::Read(oid) => StepOutput::Acquire(oid, AccessMode::Read),
            ScriptOp::Write(oid) => StepOutput::Acquire(oid, AccessMode::Write),
            ScriptOp::AddScalar(oid, delta) => {
                StepOutput::WriteLocal(oid, Payload::Scalar(self.last_scalar + delta))
            }
            ScriptOp::Compute(d) => StepOutput::Compute(d),
            ScriptOp::OpenNested(kind) => StepOutput::OpenNested(kind),
            ScriptOp::CloseNested => StepOutput::CloseNested,
        }
    }

    fn clone_box(&self) -> Box<dyn TxProgram> {
        Box::new(self.clone())
    }

    fn checkpoint(&self) -> Option<ProgramCheckpoint> {
        Some(ProgramCheckpoint {
            pc: self.pc as u64,
            regs: [self.last_scalar, 0, 0],
        })
    }

    fn rewind(&mut self, to: &ProgramCheckpoint) {
        self.pc = to.pc as usize;
        self.last_scalar = to.regs[0];
    }

    fn label(&self) -> &'static str {
        "script"
    }
}

/// Shorthand builder: a script that increments a set of scalars, each in a
/// nested child transaction — the canonical closed-nesting workload shape
/// from the paper's Fig. 1 example.
pub fn nested_increments(kind: TxKind, child_kind: TxKind, oids: &[ObjectId]) -> ScriptProgram {
    let mut ops = Vec::new();
    for &oid in oids {
        ops.push(ScriptOp::OpenNested(child_kind));
        ops.push(ScriptOp::Write(oid));
        ops.push(ScriptOp::AddScalar(oid, 1));
        ops.push(ScriptOp::CloseNested);
    }
    ScriptProgram::new(kind, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A script op stays a plain value: copied out of its shared array on
    // every step, never cloned.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<ScriptOp>();
    };

    #[test]
    fn a_script_op_is_24_bytes() {
        // Tag plus `AddScalar`'s object id and delta: a pre-generated Bank
        // or Vacation program is mostly these.
        assert_eq!(std::mem::size_of::<ScriptOp>(), 24);
    }

    #[test]
    fn script_replays_ops_in_order() {
        let mut p = ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::Read(ObjectId(1)),
                ScriptOp::AddScalar(ObjectId(1), 5),
                ScriptOp::Compute(SimDuration::from_micros(10)),
            ],
        );
        assert_eq!(
            p.step(StepInput::Begin),
            StepOutput::Acquire(ObjectId(1), AccessMode::Read)
        );
        let v = Payload::Scalar(37);
        assert_eq!(
            p.step(StepInput::Value(&v)),
            StepOutput::WriteLocal(ObjectId(1), Payload::Scalar(42))
        );
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Compute(SimDuration::from_micros(10))
        );
        assert_eq!(p.step(StepInput::Ack), StepOutput::Finish);
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Finish,
            "idempotent at end"
        );
    }

    #[test]
    fn clone_box_snapshots_state() {
        let mut p = ScriptProgram::new(
            TxKind(1),
            vec![ScriptOp::Read(ObjectId(1)), ScriptOp::Read(ObjectId(2))],
        );
        let snapshot = p.clone_box();
        let _ = p.step(StepInput::Begin);
        let _ = p.step(StepInput::Value(&Payload::Scalar(0)));
        // The snapshot still starts from the beginning.
        let mut restored = snapshot.clone_box();
        assert_eq!(
            restored.step(StepInput::Begin),
            StepOutput::Acquire(ObjectId(1), AccessMode::Read)
        );
    }

    #[test]
    fn nested_increments_shape() {
        let mut p = nested_increments(TxKind(1), TxKind(2), &[ObjectId(7), ObjectId(8)]);
        assert_eq!(p.step(StepInput::Begin), StepOutput::OpenNested(TxKind(2)));
        assert_eq!(
            p.step(StepInput::Ack),
            StepOutput::Acquire(ObjectId(7), AccessMode::Write)
        );
        let v = Payload::Scalar(10);
        assert_eq!(
            p.step(StepInput::Value(&v)),
            StepOutput::WriteLocal(ObjectId(7), Payload::Scalar(11))
        );
        assert_eq!(p.step(StepInput::Ack), StepOutput::CloseNested);
        assert_eq!(p.step(StepInput::Ack), StepOutput::OpenNested(TxKind(2)));
    }
}
