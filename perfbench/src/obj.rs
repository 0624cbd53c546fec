//! `obj_hot`: two threads on one hot key of a 2-process `Registry`,
//! each on its own lane, closed loop, no dispatch. The only workload
//! where combiner election, stable collect and `WideFaa` DWCAS are
//! contended.
//!
//! Rounds of 25 ms alternate between the `Combining{2}` and
//! `Sharded{2}` backends so that drift in the host hits both alike.
//! Each thread is pinned to its own CPU.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use sl2::combine::ApplyPath;
use sl2::service::{Backend, KeyObject, KeyedCounter, KeyedMax, Registry};

use crate::gen::{self, HotOp};
use crate::stats::{median, ns, quantile};
use crate::{cpu, Part, Report, Span, TRACED};

const HOT_KEY: u64 = 7;
const THREADS: usize = 2;
const ROUND: Duration = Duration::from_millis(25);
const BACKENDS: [(Backend, &str); 2] = [
    (Backend::Combining { shards: 2 }, "combining2"),
    (Backend::Sharded { shards: 2 }, "sharded2"),
];

pub struct Hot {
    streams: [Vec<HotOp>; THREADS],
    /// Per backend: each thread's totals, and the throughput of every
    /// round.
    lanes: [[Lane; THREADS]; 2],
    rates: [Vec<f64>; 2],
    /// Per backend: final-state mismatches, publication epochs, and
    /// the obs counters `faa.dwcas_retry`, `combine.election_lost`,
    /// `combine.election_won` (traced build only).
    mismatches: [u64; 2],
    epochs: [u64; 2],
    probes: [[u64; 3]; 2],
}

impl Hot {
    pub fn new(seed: u64) -> Self {
        Hot {
            streams: [0, 1].map(|t| gen::hot_stream(seed, t, 1 << 16)),
            lanes: Default::default(),
            rates: Default::default(),
            mismatches: [0; 2],
            epochs: [0; 2],
            probes: [[0; 3]; 2],
        }
    }

    /// One timed round of both threads on backend `b`, on a fresh hot
    /// key: the objects' costs grow with the values they hold, so every
    /// round starts from the same state.
    fn round(&mut self, b: usize) {
        let registry = Registry::new(16, THREADS, BACKENDS[b].0);
        let obj = registry.get_or_insert(&HOT_KEY);
        obj.max();
        obj.counter();
        let ops0: u64 = self.lanes[b].iter().map(|l| l.ops).sum();
        let failed0: u64 = self.lanes[b].iter().map(|l| l.failed).sum();
        sl2::obs::reset();
        let barrier = Barrier::new(THREADS + 1);
        let start = Instant::now() + Duration::from_micros(200);
        let end = start + ROUND;
        let cpus = cpu::allowed();
        std::thread::scope(|s| {
            for (t, lane) in self.lanes[b].iter_mut().enumerate() {
                let ops = &self.streams[t];
                let barrier = &barrier;
                let cpus = &cpus;
                s.spawn(move || {
                    if !cpus.is_empty() {
                        cpu::pin(&[cpus[t % cpus.len()]]);
                    }
                    lane.round = RoundState::default();
                    barrier.wait();
                    lane.run(obj, t, ops, start, end);
                });
            }
            barrier.wait();
        });
        let elapsed = start.elapsed();
        let ops: u64 = self.lanes[b].iter().map(|l| l.ops).sum::<u64>() - ops0;
        let failed = self.lanes[b].iter().map(|l| l.failed).sum::<u64>() - failed0;
        if failed > 0 {
            eprintln!(
                "obj_hot: {failed} failed checks in a {} round",
                BACKENDS[b].1
            );
        }
        self.rates[b].push(ops as f64 / elapsed.as_secs_f64());
        // The final state is exact.
        let rounds = self.lanes[b].iter().map(|l| &l.round);
        let incs: u64 = rounds.clone().map(|r| r.incs).sum();
        let max = rounds.map(|r| r.max_written).max().unwrap_or(0);
        let (count, got_max) = (obj.read_count(), obj.read_max());
        if count != incs || got_max != max {
            eprintln!(
                "obj_hot: {}: final count {count} max {got_max}, expected {incs} and {max}",
                BACKENDS[b].1
            );
            self.mismatches[b] += 1;
        }
        self.epochs[b] += epochs(obj);
        let snap = sl2::obs::snapshot();
        for (i, label) in [
            "faa.dwcas_retry",
            "combine.election_lost",
            "combine.election_won",
        ]
        .iter()
        .enumerate()
        {
            self.probes[b][i] += snap.counter(label).unwrap_or(0);
        }
    }
}

/// One thread's view of the hot key within one round.
#[derive(Debug, Default, Clone)]
struct RoundState {
    writes: u64,
    incs: u64,
    max_written: u64,
    last_max: u64,
    last_count: u64,
}

/// One thread's totals on one backend, kept across rounds.
#[derive(Debug, Default, Clone)]
struct Lane {
    round: RoundState,
    pos: usize,
    ops: u64,
    failed: u64,
    writes: u64,
    incs: u64,
    /// Traced: sampled per-op ns by class (write, exact read, cached
    /// read).
    ns: [Vec<u64>; 3],
    /// Traced: combining write paths.
    combined: u64,
    applied: u64,
    /// Time of every batch of [`BATCH`] ops, in ns.
    batch_ns: Vec<u32>,
}

/// Ops between two clock reads of a thread.
const BATCH: usize = 64;

impl Lane {
    /// Runs one op of the stream as `lane`; returns its class.
    fn step(&mut self, obj: &KeyObject, lane: usize, op: HotOp) -> usize {
        let r = &mut self.round;
        let ok = match op {
            HotOp::WriteMax => {
                r.writes += 1;
                self.writes += 1;
                let v = (r.writes << 1) | lane as u64;
                match (TRACED, obj.max()) {
                    (true, KeyedMax::Combining(m)) => {
                        if let ApplyPath::Combined { applied } = m.write_max_traced(lane, v) {
                            self.combined += 1;
                            self.applied += applied as u64;
                        }
                    }
                    _ => obj.write_max(lane, v),
                }
                r.max_written = v;
                return 0;
            }
            HotOp::Inc => {
                obj.inc(lane);
                r.incs += 1;
                self.incs += 1;
                return 0;
            }
            HotOp::ReadMax => {
                let v = obj.read_max();
                let ok = v >= r.last_max && v >= r.max_written;
                r.last_max = v;
                ok
            }
            HotOp::ReadCount => {
                let v = obj.read_count();
                let ok = v >= r.last_count && v >= r.incs;
                r.last_count = v;
                ok
            }
            // Cached reads are timed, not checked: after a wrongful
            // lease reclaim (a holder the host paused) two publishers
            // can overlap, and the published fold dips until the
            // monotone repair puts the larger value back.
            HotOp::ReadMaxCached => {
                std::hint::black_box(obj.read_max_cached());
                true
            }
            HotOp::ReadCountCached => {
                std::hint::black_box(obj.read_count_cached());
                true
            }
        };
        if !ok {
            if self.failed == 0 {
                eprintln!("obj_hot: lane {lane} {op:?} broke its check: {r:?}");
            }
            self.failed += 1;
        }
        if matches!(op, HotOp::ReadMax | HotOp::ReadCount) {
            1
        } else {
            2
        }
    }

    /// Runs the stream from `start` until `end`, reading the clock
    /// every [`BATCH`] ops.
    fn run(&mut self, obj: &KeyObject, lane: usize, ops: &[HotOp], start: Instant, end: Instant) {
        let mut prev = Instant::now();
        while prev < start {
            std::hint::spin_loop();
            prev = Instant::now();
        }
        loop {
            for _ in 0..BATCH {
                let op = ops[self.pos % ops.len()];
                self.pos += 1;
                // Traced: time one op in eight, which bounds both the
                // memory and the clock reads the traced run adds.
                if TRACED && self.pos.is_multiple_of(8) {
                    let t = Instant::now();
                    let class = self.step(obj, lane, op);
                    self.ns[class].push(ns(t.elapsed()));
                } else {
                    self.step(obj, lane, op);
                }
            }
            self.ops += BATCH as u64;
            let now = Instant::now();
            self.batch_ns
                .push(u32::try_from(ns(now - prev)).unwrap_or(u32::MAX));
            prev = now;
            if now >= end {
                break;
            }
        }
    }
}

/// Publications so far of the hot key's combining objects.
fn epochs(obj: &KeyObject) -> u64 {
    let m = match obj.max() {
        KeyedMax::Combining(m) => m.epoch(),
        _ => 0,
    };
    let c = match obj.counter() {
        KeyedCounter::Combining(c) => c.epoch(),
        _ => 0,
    };
    m + c
}

impl Part for Hot {
    /// One round on each backend.
    fn slice(&mut self) {
        self.round(0);
        self.round(1);
    }

    /// Checks the final state and reports: each backend's throughput is
    /// the median over its rounds, `ops_s` the mean of the two, and
    /// `p50_us` the median time per op of a thread's batches, over both
    /// backends.
    fn finish(self: Box<Self>, report: &mut Report, _spans: &mut Vec<Span>) {
        let mut attempted = 0;
        let mut failed = 0;
        let mut batches: Vec<u32> = self
            .lanes
            .iter()
            .flatten()
            .flat_map(|l| l.batch_ns.iter().copied())
            .collect();
        let rates = self.rates.each_ref().map(|r| median(r));
        report.e2e("ops_s", (rates[0] + rates[1]) / 2.0, "ops/s");
        let batch_p50 = f64::from(quantile(&mut batches, 0.5));
        report.e2e("p50_us", batch_p50 / BATCH as f64 / 1e3, "us");
        for (b, (_, tag)) in BACKENDS.iter().enumerate() {
            let ls = &self.lanes[b];
            attempted += ls.iter().map(|l| l.ops).sum::<u64>();
            failed += ls.iter().map(|l| l.failed).sum::<u64>() + self.mismatches[b];
            report.layer(&format!("ops_s.{tag}"), rates[b], "ops/s");
            if !TRACED {
                continue;
            }
            for (class, name) in ["write", "read_exact", "read_cached"].iter().enumerate() {
                let mut xs: Vec<u64> = ls
                    .iter()
                    .flat_map(|l| l.ns[class].iter().copied())
                    .collect();
                report.layer(
                    &format!("obj.{name}_ns.p50.{tag}"),
                    quantile(&mut xs, 0.5) as f64,
                    "ns",
                );
            }
            let writes: u64 = ls.iter().map(|l| l.writes + l.incs).sum();
            report.layer(
                &format!("faa.dwcas_retry_per_write.{tag}"),
                self.probes[b][0] as f64 / writes.max(1) as f64,
                "ratio",
            );
            if b == 0 {
                let wm: u64 = ls.iter().map(|l| l.writes).sum();
                let combined: u64 = ls.iter().map(|l| l.combined).sum();
                let applied: u64 = ls.iter().map(|l| l.applied).sum();
                report.layer(
                    "combine.combined_frac",
                    combined as f64 / wm.max(1) as f64,
                    "frac",
                );
                report.layer(
                    "combine.applied_mean",
                    applied as f64 / combined.max(1) as f64,
                    "count",
                );
                report.layer(
                    "combine.publish_per_write",
                    self.epochs[b] as f64 / writes.max(1) as f64,
                    "ratio",
                );
                let elections = (self.probes[b][1] + self.probes[b][2]).max(1);
                report.layer(
                    "combine.election_lost_frac",
                    self.probes[b][1] as f64 / elections as f64,
                    "frac",
                );
            }
        }
        report.count(attempted, failed);
    }
}
