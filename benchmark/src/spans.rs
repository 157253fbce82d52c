//! The benchmark's clock and the raw (kept) spans of a traced pass.
//!
//! Coarse spans — pass → cell → {build → {topology, generate, system},
//! run, collect, export, parse, audit, analyze, chrome} — are kept raw and
//! written once, after the workload ends. Step-level spans (pop, push,
//! program step, handler) would be ~10⁷ entries on `fig5_high`, so those
//! are folded as they close (see `timed`).

use crate::json::Json;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process's first clock read.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Calibrated cost of one `now_ns()` in nanoseconds: the minimum over
/// batches of back-to-back reads (the minimum, because preemption only ever
/// adds). Every measured interval spans one read's worth of clock cost,
/// which the ledger subtracts.
pub fn calibrate_clock_read_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut best = f64::MAX;
    for _ in 0..25 {
        let t0 = now_ns();
        let mut last = 0;
        for _ in 0..BATCH {
            last = std::hint::black_box(now_ns());
        }
        best = best.min((last - t0) as f64 / f64::from(BATCH));
    }
    best
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the cell the span belongs to (the spans of one cell share
    /// it); `None` for the pass span itself.
    pub cell: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Raw span recorder. `Spans::off()` records nothing and reads no clock, so
/// code shared with the untraced passes costs them nothing.
pub struct Spans {
    on: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub cell: Option<usize>,
}

impl Spans {
    pub fn off() -> Self {
        Spans {
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            cell: None,
        }
    }

    pub fn on() -> Self {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            cell: self.cell,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i].end_ns = now_ns();
    }

    /// Record a span whose bounds were measured elsewhere (the run's
    /// collect phase is bounded by the timed queue's last pop).
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self time per span name: duration minus what child spans cover.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let own = s.dur().saturating_sub(*covered);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", opt(s.parent)),
                        ("cell", opt(s.cell)),
                    ])
                })
                .collect(),
        )
    }
}
