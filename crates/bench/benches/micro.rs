//! Criterion micro-benchmarks of the engine's hot paths: the pending-event
//! set, the RNG, the Bloom filter, the CL window, scheduling-table
//! operations, policy decisions, a complete small simulation cell, and the
//! trace text codec.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use dstm_benchmarks::Benchmark;
use dstm_harness::runner::{run_cell, run_cell_traced, Cell};
use dstm_harness::traceio::{audit, to_chrome_trace};
use dstm_sim::{
    prefetch, Actor, ActorId, BinaryHeapQueue, Ctx, EventQueue, GenericWorld, KernelEvent,
    Sequenced, SimDuration, SimRng, SimTime, World,
};
use hyflow_dstm::{TraceLog, TraceRecord};
use rts_core::{
    BloomFilter, ConflictCtx, ConflictPolicy, Ets, ObjectClWindow, ObjectId, Requester, RtsPolicy,
    SchedulingTable, TxId,
};
use std::hint::black_box;

fn bench_event_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event-queue");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("binary-heap", n), &n, |b, &n| {
            let mut rng = SimRng::new(1);
            let times: Vec<u64> = (0..n).map(|_| rng.below(10_000_000)).collect();
            b.iter(|| {
                let mut q = BinaryHeapQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(Sequenced::new(SimTime(t), i as u64, i));
                }
                let mut sum = 0usize;
                while let Some(ev) = q.pop() {
                    sum += ev.payload;
                }
                black_box(sum)
            });
        });
    }
    // The hold model: pop the minimum, push one event a random delay ahead
    // of it, at a steady length — what a running simulation does to its
    // queue, and unlike fill-then-drain it keeps the branch predictor from
    // learning one sorted pass. 165 is the mean pending-set size of the
    // Fig. 4/5 grids, 4000 that of the 1000-node cells; delays are the
    // topology's 1–50 ms link latencies, one in eight a 30 µs local hop;
    // the payload is as large as the kernel's `NodeEvent` (80 bytes).
    for &n in &[165usize, 4000] {
        group.bench_with_input(BenchmarkId::new("hold", n), &n, |b, &n| {
            let mut rng = SimRng::new(0xD57A);
            let mut delay = move || match rng.below(8) {
                0 => 30_000,
                _ => 1_000_000 + rng.below(49_000_000),
            };
            let mut q = BinaryHeapQueue::new();
            let mut seq = 0u64;
            for _ in 0..n {
                seq += 1;
                q.push(Sequenced::new(SimTime(delay()), seq, [seq; 10]));
            }
            b.iter(|| {
                let ev = q.pop().expect("steady length");
                seq += 1;
                let at = SimTime(ev.key.time.0 + delay());
                q.push(Sequenced::new(at, seq, [seq; 10]));
                black_box(ev.payload[0])
            });
        });
    }
    group.finish();
}

/// A two-actor ping-pong with jittered delays: every delivered message costs
/// exactly one pop + one push, so `wall-clock / messages_delivered` is the
/// kernel's marginal ns/event through the full dispatch path (queue, timer
/// slab bookkeeping, RNG, actor call).
struct PingPong;

impl Actor for PingPong {
    type Msg = u32;
    type Timer = u32;

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
        if msg > 0 {
            let to = ActorId(1 - ctx.me().0);
            let d = SimDuration::from_micros(1 + ctx.rng().below(100));
            ctx.send(to, msg - 1, d);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, u32>, _timer: u32) {}
}

fn run_pingpong(events: u32) -> u64 {
    let mut w = World::new(vec![PingPong, PingPong], 1);
    w.send_external(ActorId(0), events, SimDuration::ZERO);
    w.run();
    w.messages_delivered()
}

/// 2 KiB of private state, four lines of which every event reads and
/// writes — a stand-in for a protocol node whose state has left the cache by
/// the time its next event arrives, and reached the way a node's is: two of
/// the lines are in the actor itself, the other two in a boxed table that
/// the actor points to and the message indexes (header → second hop, like
/// `Node` → `ObjSlot`). `hint_soon` requests the first pair, `hint_next`
/// reads the pointer they hold and requests the second.
#[repr(C, align(64))]
struct ColdActor {
    peers: u32,
    far: Box<[[u64; 8]; ColdActor::FAR_LINES]>,
    near: [u64; ColdActor::NEAR_WORDS],
}

impl ColdActor {
    const NEAR_WORDS: usize = 126;
    const FAR_LINES: usize = 16;
    /// A word of `near` in the header's own line and one eight lines on.
    const NEAR_TOUCHED: [usize; 2] = [0, 64];

    /// The two lines of `far` a message reads and writes.
    fn far_lines(msg: u64) -> [usize; 2] {
        let a = msg as usize % Self::FAR_LINES;
        [a, (a + Self::FAR_LINES / 2) % Self::FAR_LINES]
    }
}

impl Actor for ColdActor {
    type Msg = u64;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64, ()>, _from: ActorId, msg: u64) {
        let mut acc = msg;
        for i in Self::NEAR_TOUCHED {
            acc = acc.wrapping_add(self.near[i]);
            self.near[i] = acc;
        }
        for line in Self::far_lines(msg) {
            acc = acc.wrapping_add(self.far[line][0]);
            self.far[line][0] = acc;
        }
        let to = ActorId(ctx.rng().below(u64::from(self.peers)) as u32);
        let d = SimDuration::from_micros(1_000 + ctx.rng().below(49_000));
        ctx.send(to, acc, d);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, ()>, _timer: ()) {}

    fn hint_soon(&self) {
        for i in Self::NEAR_TOUCHED {
            prefetch(std::ptr::from_ref(&self.near[i]), 1);
        }
    }

    fn hint_next(&self, next: &KernelEvent<u64, ()>) {
        if let KernelEvent::Msg { msg, .. } = next {
            for line in Self::far_lines(*msg) {
                prefetch(std::ptr::from_ref(&self.far[line]), 1);
            }
        }
    }
}

/// Forwards the four required queue methods and nothing else, so the run
/// loop is offered no lookahead and issues no hints.
struct NoLookahead<Q>(Q);

impl<E, Q: EventQueue<E>> EventQueue<E> for NoLookahead<Q> {
    fn push(&mut self, ev: Sequenced<E>) {
        self.0.push(ev)
    }
    fn pop(&mut self) -> Option<Sequenced<E>> {
        self.0.pop()
    }
    fn peek_key(&self) -> Option<dstm_sim::EventKey> {
        self.0.peek_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A world of `n` [`ColdActor`]s with four events in flight per actor, which
/// never drains: every delivery forwards one message to a random peer.
fn cold_world<Q: EventQueue<KernelEvent<u64, ()>>>(n: u32, queue: Q) -> GenericWorld<ColdActor, Q> {
    let actors = (0..n)
        .map(|_| ColdActor {
            peers: n,
            far: Box::new([[1; 8]; ColdActor::FAR_LINES]),
            near: [1; ColdActor::NEAR_WORDS],
        })
        .collect();
    let mut w = GenericWorld::with_queue(actors, 0xD57A, queue);
    for i in 0..4 * n {
        let d = SimDuration::from_micros(1_000 + u64::from(i) * 49_000 / u64::from(4 * n));
        w.send_external(ActorId(i % n), u64::from(i), d);
    }
    w
}

fn bench_kernel(c: &mut Criterion) {
    // Marginal per-event kernel cost. Each iteration
    // delivers `N + 1` messages, so ns/event = reported time / (N + 1).
    const N: u32 = 10_000;
    let mut group = c.benchmark_group("kernel-events");
    group.bench_with_input(BenchmarkId::new("heap", N), &N, |b, &n| {
        b.iter(|| black_box(run_pingpong(n)));
    });
    // One event per iteration, delivered to an actor whose state is
    // cache-resident (64 actors, 128 KiB) or long evicted (4096 actors,
    // 8 MiB), with the run loop's lookahead hints and — same heap behind a
    // wrapper that offers no lookahead — without them.
    for &n in &[64u32, 4096] {
        group.bench_with_input(BenchmarkId::new("cold-actors", n), &n, |b, &n| {
            let mut w = cold_world(n, BinaryHeapQueue::new());
            b.iter(|| black_box(w.step()));
        });
        group.bench_with_input(BenchmarkId::new("cold-actors-no-hints", n), &n, |b, &n| {
            let mut w = cold_world(n, NoLookahead(BinaryHeapQueue::new()));
            b.iter(|| black_box(w.step()));
        });
    }
    group.finish();

    // Timer arm + cancel through the generation-stamped slab, including the
    // kernel draining the dead (tombstoned) events.
    c.bench_function("kernel/timer-arm-cancel-x64", |b| {
        let mut w: World<PingPong> = World::new(vec![PingPong], 1);
        b.iter(|| {
            w.with_ctx(ActorId(0), |_, ctx| {
                for i in 0..64u64 {
                    let t = ctx.set_timer(SimDuration::from_micros(1 + i), i as u32);
                    ctx.cancel_timer(t);
                }
            });
            w.run();
            black_box(w.timers_fired())
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| black_box(rng.next()));
    });
    c.bench_function("rng/below", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| black_box(rng.below(1_000_003)));
    });
}

fn bench_bloom(c: &mut Criterion) {
    c.bench_function("bloom/insert", |b| {
        let mut f = BloomFilter::with_capacity(10_000, 0.01);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            f.insert(black_box(i));
        });
    });
    c.bench_function("bloom/contains", |b| {
        let mut f = BloomFilter::with_capacity(10_000, 0.01);
        for i in 0..10_000u64 {
            f.insert(i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(f.contains(i))
        });
    });
}

fn bench_cl_window(c: &mut Criterion) {
    // One request per simulated millisecond into a 500 ms window, from a
    // population of `distinct` transactions taking turns: the window holds
    // 500 requests of `distinct` requesters at steady state. 4 is a bank
    // account, 64 and 256 a list head or tree root under the write-heavy
    // mix — the cost must not depend on which.
    let mut group = c.benchmark_group("cl-window");
    for &distinct in &[4u64, 64, 256] {
        let id = BenchmarkId::from_parameter(format!("{distinct}-distinct"));
        group.bench_with_input(id, &distinct, |b, &distinct| {
            let mut w = ObjectClWindow::new(SimDuration::from_millis(500));
            let mut t = 0u64;
            b.iter(|| {
                t += 1_000_000;
                let who = (t / 1_000_000).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                let who = who % distinct;
                w.record(SimTime(t), TxId::new((who % 16) as u32, who));
                black_box(w.local_cl(SimTime(t)))
            });
        });
    }
    group.finish();
}

fn bench_policy(c: &mut Criterion) {
    c.bench_function("rts-policy/on_conflict", |b| {
        let mut policy = RtsPolicy::with_fixed_threshold(8);
        let mut table = SchedulingTable::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let start = SimTime(i * 1_000_000);
            let request = start + SimDuration::from_millis(40);
            let ctx = ConflictCtx {
                now: request,
                oid: ObjectId(i % 16),
                requester: Requester {
                    node: (i % 8) as u32,
                    tx: TxId::new((i % 8) as u32, i),
                    read_only: i.is_multiple_of(4),
                    attempt: 0,
                    enqueued_at: request,
                },
                ets: Ets::new(start, request, request + SimDuration::from_millis(30)),
                requester_cl: (i % 5) as u32,
                local_cl: (i % 7) as u32,
                attempt: 0,
            };
            black_box(policy.on_conflict(&ctx, &mut table));
            if i.is_multiple_of(64) {
                table = SchedulingTable::new(); // keep queues bounded
            }
        });
    });
}

fn bench_full_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation-cell");
    group.sample_size(10);
    group.bench_function("bank-4nodes-rts", |b| {
        b.iter(|| {
            let mut cell =
                Cell::new(Benchmark::Bank, rts_core::SchedulerKind::Rts, 4, 0.5).with_txns(5);
            cell.params.objects_per_node = 4;
            black_box(run_cell(cell).metrics.merged.commits)
        });
    });
    group.finish();
}

/// Guard for the tracing subsystem's zero-cost claim: the same complete
/// cell with protocol tracing compiled in but disabled (the production
/// default — every recording site is behind one branch) versus enabled
/// (events are pushed into per-node buffers and merged at the end). The
/// `off` variant must track `simulation-cell/bank-4nodes-rts` exactly;
/// the benchmark's `observe_160` workload prices the enabled path at scale
/// (`bench.trace_overhead_share`).
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-overhead");
    group.sample_size(10);
    let mk = || {
        let mut cell =
            Cell::new(Benchmark::Bank, rts_core::SchedulerKind::Rts, 4, 0.5).with_txns(5);
        cell.params.objects_per_node = 4;
        cell
    };
    group.bench_function("cell-trace-off", |b| {
        b.iter(|| black_box(run_cell(mk()).metrics.merged.commits));
    });
    group.bench_function("cell-trace-on", |b| {
        b.iter(|| {
            let (r, trace) = run_cell_traced(mk());
            black_box((r.metrics.merged.commits, trace.records.len()))
        });
    });
    group.finish();
}

/// The post-run trace pipeline on one captured 40-node Bank trace: JSONL
/// export and parse (MB/s of JSONL), the per-node stream merge, the Chrome
/// export and the audit (ns per record). The header line gives the record
/// and byte counts that convert one unit into the other.
fn bench_trace_codec(c: &mut Criterion) {
    let cell = Cell::new(Benchmark::Bank, rts_core::SchedulerKind::Rts, 40, 0.5).with_cache(false);
    let (_, log) = run_cell_traced(cell);
    let text = log.to_jsonl();
    let (records, bytes) = (log.records.len() as u64, text.len() as u64);
    println!(
        "trace-codec: 40-node Bank trace, {records} records, {bytes} JSONL bytes, {} Chrome bytes",
        to_chrome_trace(&log).len()
    );
    // The merge's input: the log split back into its per-node streams.
    let nodes = log
        .records
        .iter()
        .map(|r| r.node)
        .max()
        .map_or(0, |n| n + 1);
    let mut streams: Vec<Vec<TraceRecord>> = vec![Vec::new(); nodes as usize];
    for r in &log.records {
        streams[r.node as usize].push(r.clone());
    }

    let mut group = c.benchmark_group("trace-codec");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("to_jsonl", |b| b.iter(|| black_box(log.to_jsonl().len())));
    group.bench_function("parse_jsonl", |b| {
        b.iter(|| black_box(TraceLog::parse_jsonl(&text).expect("parses").records.len()))
    });
    group.throughput(Throughput::Elements(records));
    group.bench_function("from_node_streams", |b| {
        b.iter_batched(
            || streams.clone(),
            |s| black_box(TraceLog::from_node_streams(s).records.len()),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("to_chrome_trace", |b| {
        b.iter(|| black_box(to_chrome_trace(&log).len()))
    });
    group.bench_function("audit", |b| {
        b.iter(|| black_box(audit(&log).commits_checked))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel,
    bench_event_queues,
    bench_rng,
    bench_bloom,
    bench_cl_window,
    bench_policy,
    bench_full_cell,
    bench_trace_overhead,
    bench_trace_codec
);
criterion_main!(benches);
