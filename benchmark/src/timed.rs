//! Pass-through wrappers that measure the layers from outside, through
//! seams that are already public: [`TimedQueue`] around the real event-queue
//! backend and [`TimedProgram`] around every transaction program.
//!
//! The kernel's run loop is `pop → handler → push* → pop …`, so the interval
//! from one pop's return to the next pop's entry, minus the pushes and
//! program steps nested inside it, is the self time of the handler that the
//! popped event dispatched (engine dispatch included). Step-level intervals
//! are folded into the thread-local [`Fold`] as they close.

use crate::spans::now_ns;
use dstm_sim::{EventKey, EventQueue, KernelEvent, Sequenced};
use hyflow_dstm::{BoxedProgram, Msg, NodeEvent, StepInput, StepOutput, Timer, TxProgram};
use rts_core::{ObjectId, TxKind};
use std::cell::RefCell;

/// Event kinds a `Node` handler is classified by: the 14 `Msg` tags, then
/// the 3 `Timer` kinds.
pub const KINDS: [&str; 17] = [
    "ObjReq",
    "ObjResp",
    "ObjectDecline",
    "LockReq",
    "LockResp",
    "Unlock",
    "Publish",
    "PublishAck",
    "VersionCheck",
    "VersionResp",
    "VersionReq",
    "VersionAck",
    "StartWorkload",
    "Batch",
    "ComputeDone",
    "QueueDeadline",
    "RetryBackoff",
];

/// Index of the first timer kind in [`KINDS`].
pub const FIRST_TIMER: usize = 14;

fn kind_of(ev: &NodeEvent) -> usize {
    match ev {
        KernelEvent::Msg { msg, .. } => match msg {
            Msg::ObjReq { .. } => 0,
            Msg::ObjResp { .. } => 1,
            Msg::ObjectDecline { .. } => 2,
            Msg::LockReq { .. } => 3,
            Msg::LockResp { .. } => 4,
            Msg::Unlock { .. } => 5,
            Msg::Publish { .. } => 6,
            Msg::PublishAck { .. } => 7,
            Msg::VersionCheck { .. } => 8,
            Msg::VersionResp { .. } => 9,
            Msg::VersionReq { .. } => 10,
            Msg::VersionAck { .. } => 11,
            Msg::StartWorkload => 12,
            Msg::Batch(_) => 13,
        },
        KernelEvent::Timer { timer, .. } => match timer {
            Timer::ComputeDone { .. } => 14,
            Timer::QueueDeadline { .. } => 15,
            Timer::RetryBackoff { .. } => 16,
        },
    }
}

/// Count / raw-total accumulator of one kind of folded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub count: u64,
    pub ns: u64,
}

impl Acc {
    #[inline]
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    pub fn merge(&mut self, o: &Acc) {
        self.count += o.count;
        self.ns += o.ns;
    }
}

/// Everything folded during one cell. Times are raw (clock-read cost still
/// inside); the ledger subtracts it using the counts kept here.
#[derive(Clone, Debug, Default)]
pub struct Fold {
    pub push: Acc,
    /// Every `pop` call, including the final one that returns `None`.
    pub pop: Acc,
    pub step: Acc,
    pub clone: Acc,
    /// Per [`KINDS`] entry: pops of that kind and handler self time.
    pub handler: [Acc; 17],
    /// Pushes / steps / clones that ran inside a handler interval (each one
    /// leaves one more clock read in that handler's raw self time).
    pub handler_nested_calls: [u64; 17],
    pub len_sum: u64,
    pub len_max: u64,
    /// `(src, dst)` of every remote message pushed, one entry per logical
    /// message (a `Batch` of k counts k): the `Topology::delay` call stream.
    pub delay_stream: Vec<(u32, u32)>,
    /// Clock time of the last pop's return (the run's collect phase starts
    /// here).
    pub last_pop_exit_ns: u64,
    // Open handler interval.
    cur_kind: Option<usize>,
    cur_start_ns: u64,
    cur_nested_ns: u64,
    cur_nested_calls: u64,
}

thread_local! {
    static FOLD: RefCell<Fold> = RefCell::new(Fold::default());
}

impl Fold {
    /// Take this thread's accumulators, leaving them empty for the next cell.
    pub fn take() -> Fold {
        FOLD.with(|f| std::mem::take(&mut *f.borrow_mut()))
    }

    #[inline]
    fn nested(&mut self, ns: u64) {
        self.cur_nested_ns += ns;
        self.cur_nested_calls += 1;
    }

    #[inline]
    fn close_handler(&mut self, now: u64) {
        if let Some(k) = self.cur_kind.take() {
            let raw = now - self.cur_start_ns;
            self.handler[k].add(raw.saturating_sub(self.cur_nested_ns));
            self.handler_nested_calls[k] += self.cur_nested_calls;
        }
    }

    pub fn merge(&mut self, o: &Fold) {
        self.push.merge(&o.push);
        self.pop.merge(&o.pop);
        self.step.merge(&o.step);
        self.clone.merge(&o.clone);
        for (a, b) in self.handler.iter_mut().zip(&o.handler) {
            a.merge(b);
        }
        for (a, b) in self
            .handler_nested_calls
            .iter_mut()
            .zip(&o.handler_nested_calls)
        {
            *a += b;
        }
        self.len_sum += o.len_sum;
        self.len_max = self.len_max.max(o.len_max);
    }
}

/// Times `push`/`pop` of the real backend and attributes the time between
/// pops to the handler of the popped event. Pass-through: same events out,
/// in the same order.
pub struct TimedQueue<Q> {
    inner: Q,
}

impl<Q> TimedQueue<Q> {
    pub fn new(inner: Q) -> Self {
        TimedQueue { inner }
    }
}

impl<Q: EventQueue<NodeEvent>> EventQueue<NodeEvent> for TimedQueue<Q> {
    fn push(&mut self, ev: Sequenced<NodeEvent>) {
        let remote = match &ev.payload {
            KernelEvent::Msg { from, to, msg } if from != to => {
                let logical = match msg {
                    Msg::Batch(msgs) => msgs.len(),
                    _ => 1,
                };
                Some((from.0, to.0, logical))
            }
            _ => None,
        };
        let t0 = now_ns();
        self.inner.push(ev);
        let t1 = now_ns();
        FOLD.with(|f| {
            let f = &mut *f.borrow_mut();
            f.push.add(t1 - t0);
            f.nested(t1 - t0);
            if let Some((src, dst, logical)) = remote {
                for _ in 0..logical {
                    f.delay_stream.push((src, dst));
                }
            }
        });
    }

    fn pop(&mut self) -> Option<Sequenced<NodeEvent>> {
        let len = self.inner.len() as u64;
        let t0 = now_ns();
        let ev = self.inner.pop();
        let t1 = now_ns();
        FOLD.with(|f| {
            let f = &mut *f.borrow_mut();
            f.close_handler(t0);
            f.pop.add(t1 - t0);
            f.len_sum += len;
            f.len_max = f.len_max.max(len);
            f.last_pop_exit_ns = t1;
            if let Some(ev) = &ev {
                f.cur_kind = Some(kind_of(&ev.payload));
                f.cur_start_ns = t1;
                f.cur_nested_ns = 0;
                f.cur_nested_calls = 0;
            }
        });
        ev
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.inner.peek_key()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Times `step` and `clone_box` of the wrapped program; everything else
/// forwards. Clones stay wrapped, so retry snapshots are timed too.
pub struct TimedProgram(pub BoxedProgram);

impl TxProgram for TimedProgram {
    fn kind(&self) -> TxKind {
        self.0.kind()
    }

    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        let t0 = now_ns();
        let out = self.0.step(input);
        let d = now_ns() - t0;
        FOLD.with(|f| {
            let f = &mut *f.borrow_mut();
            f.step.add(d);
            f.nested(d);
        });
        out
    }

    fn clone_box(&self) -> Box<dyn TxProgram> {
        let t0 = now_ns();
        let inner = self.0.clone_box();
        let d = now_ns() - t0;
        FOLD.with(|f| {
            let f = &mut *f.borrow_mut();
            f.clone.add(d);
            f.nested(d);
        });
        Box::new(TimedProgram(inner))
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn access_hint(&self, out: &mut Vec<ObjectId>) {
        self.0.access_hint(out);
    }
}
