//! The keyed service workloads: `svc_open` (open-loop Poisson
//! arrivals, fire-and-forget `Service::submit`) and `svc_call`
//! (closed-loop blocking `Service::call`), both on one worker.
//!
//! Latency is exact per request. The open loop stamps request `k` at
//! the first instant the generator sees `Service::completed()` pass
//! `k`; with one worker completions are FIFO, so that instant is the
//! request's own completion, seen at most one poll late.
//!
//! The traced run cannot time the registry or the backend inside the
//! worker without adding probes to the program, so it replays the
//! identical request stream on a fresh registry from the benchmark
//! thread and times each `Registry::get_or_insert` and each
//! `KeyObject` operation. Dispatch self time is the sojourn minus that
//! replay.

use std::time::{Duration, Instant};

use sl2::service::{Backend, KeyObject, Registry, Request, Response, Service, ServiceOp};

use crate::gen::{self, Kind, Phase, CALL_KEYS, OPEN_KEYSPACE};
use crate::stats::{median, ns, quantile};
use crate::{cpu, Part, Report, Span, TRACED};

/// Backend of every service key: the combining front-end over two
/// shards.
pub const BACKEND: Backend = Backend::Combining { shards: 2 };
/// Offered rates of the two measured open-loop phases, and how long
/// each lasts in one pass.
const RATES: [u64; 2] = [50_000, 200_000];
const RATE_TAGS: [&str; 2] = ["r50k", "r200k"];
const RATE_PHASE_S: f64 = 0.25;
/// Requests of the overload phase, submitted back to back (about
/// 0.05 s of work at the seed's capacity).
const OVERLOAD_OPS: u64 = 50_000;
/// Poll-gap histogram of the generator: 10 ns buckets up to 100 µs, the
/// last one open-ended.
const GAP_BUCKETS: usize = 10_001;
/// A phase that sees no completion for this long has lost requests.
const STUCK: Duration = Duration::from_secs(20);

/// Materializes `key` and both objects the mix uses, so no measured
/// request pays first-touch cost.
fn materialize(registry: &Registry<u64>, key: u64) -> &KeyObject {
    let obj = registry.get_or_insert(&key);
    obj.max();
    obj.counter();
    obj
}

/// Executes `req` directly on `obj` as serving lane `lane` — what the
/// worker does after its registry lookup.
fn apply(obj: &KeyObject, lane: usize, req: &Request) -> Response {
    match req.op {
        ServiceOp::Inc => {
            obj.inc(lane);
            Response::Ok
        }
        ServiceOp::WriteMax(v) => {
            obj.write_max(lane, v);
            Response::Ok
        }
        ServiceOp::ReadCount => Response::Value(obj.read_count()),
        ServiceOp::ReadMaxCached => Response::Value(obj.read_max_cached()),
        _ => unreachable!("the generated mix has no other ops"),
    }
}

/// Per-request replay costs: registry lookup and backend op, in ns.
struct Replay {
    registry_ns: Vec<u64>,
    backend_ns: Vec<u64>,
}

/// Replays `reqs` in order on `registry` (keys already resident),
/// timing the lookup and the op separately; backend times are also
/// pooled per request kind into `by_kind`.
fn replay(
    registry: &Registry<u64>,
    reqs: impl Iterator<Item = (Request, Kind)>,
    by_kind: &mut [Vec<u64>; 4],
) -> Replay {
    let mut r = Replay {
        registry_ns: Vec::new(),
        backend_ns: Vec::new(),
    };
    for (req, kind) in reqs {
        let t0 = Instant::now();
        let obj = registry.get_or_insert(&req.key);
        let t1 = Instant::now();
        std::hint::black_box(apply(obj, 0, &req));
        let t2 = Instant::now();
        r.registry_ns.push(ns(t1 - t0));
        let be = ns(t2 - t1);
        r.backend_ns.push(be);
        by_kind[kind as usize].push(be);
    }
    r
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

// ---------------------------------------------------------------------
// svc_open
// ---------------------------------------------------------------------

/// The open loop: one pass of the schedule, its expected
/// per-pass effect on every key it touches, and a running service
/// whose touched keys are all resident. Every pass replays the same
/// arrivals (with fresh write values), so memory does not grow with
/// the run length.
pub struct Open {
    svc: Service,
    /// `[r50k, r200k, overload]`.
    phases: [Phase; 3],
    /// Distinct keys one pass touches, with the incs and the largest
    /// write value (0 if none) one pass applies to each.
    expect: Vec<(u32, u64, u64)>,
    /// What the generator saw, per pass and phase.
    runs: Vec<Vec<PhaseRun>>,
    /// CPUs of the run: the generator takes the first, the worker the
    /// last.
    cpus: Vec<usize>,
}

impl Open {
    pub fn new(seed: u64) -> Self {
        let mut first = 0u64;
        let mut next_phase = |i: u64, rate: u64, ops: u64| {
            let p = gen::phase(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i),
                rate,
                ops,
                first,
            );
            first += p.len() as u64;
            p
        };
        let phases = [
            next_phase(1, RATES[0], (RATES[0] as f64 * RATE_PHASE_S) as u64),
            next_phase(2, RATES[1], (RATES[1] as f64 * RATE_PHASE_S) as u64),
            next_phase(3, 0, OVERLOAD_OPS),
        ];
        let mut model = vec![(0u64, 0u64, false); OPEN_KEYSPACE as usize];
        for p in &phases {
            for i in 0..p.len() {
                let m = &mut model[p.key[i] as usize];
                m.2 = true;
                match p.request(i, 0).op {
                    ServiceOp::Inc => m.0 += 1,
                    ServiceOp::WriteMax(v) => m.1 = m.1.max(v),
                    _ => {}
                }
            }
        }
        let expect: Vec<(u32, u64, u64)> = model
            .iter()
            .enumerate()
            .filter(|(_, m)| m.2)
            .map(|(k, m)| (k as u32, m.0, m.1))
            .collect();
        let cpus = cpu::allowed();
        cpu::pin(&cpus[cpus.len().saturating_sub(1)..]);
        let svc = Service::new(OPEN_KEYSPACE as usize, 1, BACKEND);
        cpu::pin(&cpus);
        for &(k, _, _) in &expect {
            materialize(svc.registry(), u64::from(k));
        }
        Open {
            svc,
            phases,
            expect,
            runs: Vec::new(),
            cpus,
        }
    }

    fn pass_len(&self) -> u64 {
        self.phases.iter().map(|p| p.len() as u64).sum()
    }
}

/// What the generator saw while pacing one phase. Offsets are ns from
/// the phase start.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// Completion stamp of each request.
    pub stamp_ns: Vec<u64>,
    /// Submit call start/end of each request (traced and test runs).
    pub submit_start_ns: Vec<u64>,
    pub submit_end_ns: Vec<u64>,
    /// Requests submitted more than one mean gap after their slot.
    pub late: u64,
    /// Phase start to the last completion.
    pub elapsed: Duration,
    /// Requests never seen completing.
    pub lost: u64,
    /// Largest number of requests submitted but not yet completed.
    pub depth_max: u64,
    /// Poll gaps of the stamping loop at 10 ns resolution (traced).
    pub gap_hist: Vec<u64>,
}

/// Paces `phase` into `svc` and stamps every completion; write values
/// are offset by `base`. `record` keeps submit start/end instants and
/// the poll-gap histogram.
pub fn drive(svc: &Service, phase: &Phase, base: u64, record: bool) -> PhaseRun {
    let n = phase.len();
    let completed0 = svc.completed();
    let mut run = PhaseRun {
        stamp_ns: Vec::with_capacity(n),
        ..PhaseRun::default()
    };
    if record {
        run.submit_start_ns.reserve(n);
        run.submit_end_ns.reserve(n);
        run.gap_hist = vec![0; GAP_BUCKETS];
    }
    let gap = phase.mean_gap_ns();
    let start = Instant::now();
    let mut prev_poll = 0u64;
    let mut last_progress = 0u64;
    let mut next = 0usize;
    while run.stamp_ns.len() < n {
        // Load the counter first, then read the clock: every request
        // counted as done completed before `now`, and every one of
        // them was submitted (and its submit returned) in an earlier
        // iteration.
        let done = (svc.completed() - completed0) as usize;
        let now = ns(start.elapsed());
        if record {
            let g = ((now - prev_poll) / 10).min(GAP_BUCKETS as u64 - 1) as usize;
            run.gap_hist[g] += 1;
            prev_poll = now;
        }
        if done > run.stamp_ns.len() {
            run.stamp_ns.resize(done, now);
            last_progress = now;
        } else if now - last_progress > ns(STUCK) {
            run.lost = (n - run.stamp_ns.len()) as u64;
            break;
        }
        while next < n && phase.offset_ns[next] <= now {
            if now - phase.offset_ns[next] > gap {
                run.late += 1;
            }
            if record {
                run.depth_max = run.depth_max.max((next - done) as u64);
                run.submit_start_ns.push(ns(start.elapsed()));
                svc.submit(phase.request(next, base));
                run.submit_end_ns.push(ns(start.elapsed()));
            } else {
                svc.submit(phase.request(next, base));
            }
            next += 1;
        }
    }
    run.elapsed = start.elapsed();
    run
}

/// p99 of the poll-gap histogram in ns.
fn gap_p99(hists: &[&Vec<u64>]) -> f64 {
    let total: u64 = hists.iter().flat_map(|h| h.iter()).sum();
    let want = (total as f64 * 0.99).ceil() as u64;
    let mut seen = 0u64;
    for b in 0..GAP_BUCKETS {
        seen += hists.iter().map(|h| h[b]).sum::<u64>();
        if seen >= want {
            return b as f64 * 10.0;
        }
    }
    (GAP_BUCKETS * 10) as f64
}

/// Exact latencies (completion stamp − scheduled instant) of a phase.
fn latencies(p: &Phase, r: &PhaseRun) -> Vec<u64> {
    r.stamp_ns
        .iter()
        .zip(&p.offset_ns)
        .map(|(s, o)| s.saturating_sub(*o))
        .collect()
}

impl Part for Open {
    /// One pass of the three phases, the generator on its own CPU.
    fn slice(&mut self) {
        let base = self.runs.len() as u64 * self.pass_len();
        cpu::pin(&self.cpus[..self.cpus.len().min(1)]);
        let pass = self
            .phases
            .iter()
            .map(|p| drive(&self.svc, p, base, TRACED))
            .collect();
        cpu::pin(&self.cpus);
        self.runs.push(pass);
    }

    /// Checks the final per-key state and reports the exact latency
    /// percentiles of every request of every pass, and the capacity
    /// (median over passes).
    fn finish(self: Box<Self>, report: &mut Report, spans: &mut Vec<Span>) {
        let pass_len = self.pass_len();
        let Open {
            mut svc,
            phases,
            expect,
            runs,
            ..
        } = *self;
        let passes = runs.len() as u64;
        svc.shutdown();

        let mut failed: u64 = runs.iter().flatten().map(|r| r.lost).sum();
        if failed > 0 {
            eprintln!("svc_open: {failed} requests never completed");
        }
        for &(k, incs, max) in &expect {
            let want = (
                incs * passes,
                if max == 0 {
                    0
                } else {
                    max + (passes - 1) * pass_len
                },
            );
            let got = svc
                .registry()
                .get(&u64::from(k))
                .map(|o| (o.read_count(), o.read_max()));
            if got != Some(want) {
                if failed == 0 {
                    eprintln!("svc_open: key {k} holds {got:?}, expected {want:?}");
                }
                failed += 1;
            }
        }
        report.count(passes * pass_len, failed);

        let per_pass = |f: &dyn Fn(&[PhaseRun]) -> f64| {
            median(&runs.iter().map(|r| f(r)).collect::<Vec<f64>>())
        };
        for (i, tag) in RATE_TAGS.iter().enumerate() {
            let p = &phases[i];
            let mut lat: Vec<u64> = runs.iter().flat_map(|r| latencies(p, &r[i])).collect();
            report.layer(
                &format!("lat_p50_us.{tag}"),
                us(quantile(&mut lat, 0.5)),
                "us",
            );
            // The tails are diagnostics: they follow how fast the host
            // wakes the idle worker's vCPU, which changes for whole
            // runs at a time.
            for (q, name) in [(0.9, "p90"), (0.99, "p99")] {
                report.layer(
                    &format!("lat_{name}_us.{tag}"),
                    us(quantile(&mut lat, q)),
                    "us",
                );
            }
            report.layer(
                &format!("gen.late_frac.{tag}"),
                per_pass(&|r| r[i].late as f64 / p.len() as f64),
                "frac",
            );
        }
        report.layer(
            "capacity_ops_s",
            per_pass(&|r| phases[2].len() as f64 / r[2].elapsed.as_secs_f64()),
            "ops/s",
        );
        if !TRACED {
            return;
        }
        let measured: Vec<&PhaseRun> = runs.iter().flat_map(|r| &r[..2]).collect();
        let hists: Vec<&Vec<u64>> = measured.iter().map(|r| &r.gap_hist).collect();
        report.layer("gen.stamp_gap_ns.p99", gap_p99(&hists), "ns");
        // Offered over served rate of the overload phase: how far past
        // capacity the generator pushed.
        report.layer(
            "gen.overload_factor",
            per_pass(&|r| {
                let submitting = r[2].submit_end_ns.last().copied().unwrap_or(1).max(1);
                ns(r[2].elapsed) as f64 / submitting as f64
            }),
            "ratio",
        );
        let mut submit: Vec<u64> = measured
            .iter()
            .flat_map(|r| {
                r.submit_start_ns
                    .iter()
                    .zip(&r.submit_end_ns)
                    .map(|(a, b)| b - a)
            })
            .collect();
        report.layer(
            "dispatch.submit_ns.p50",
            quantile(&mut submit, 0.5) as f64,
            "ns",
        );
        report.layer(
            "dispatch.submit_ns.p99",
            quantile(&mut submit, 0.99) as f64,
            "ns",
        );
        report.layer(
            "dispatch.queue_depth.max.r200k",
            runs.iter().map(|r| r[1].depth_max).max().unwrap_or(0) as f64,
            "count",
        );

        // Replay the measured phases of the last pass, in order, on a
        // fresh registry after one untimed pass that brings every key to
        // the state the last pass started from.
        let registry = Registry::new(OPEN_KEYSPACE as usize, 1, BACKEND);
        let mut mat: Vec<u64> = expect
            .iter()
            .map(|&(k, _, _)| {
                let t = Instant::now();
                materialize(&registry, u64::from(k));
                ns(t.elapsed())
            })
            .collect();
        report.layer(
            "registry.materialize_ns.p50",
            quantile(&mut mat, 0.5) as f64,
            "ns",
        );
        report.layer("registry.keys", registry.len() as f64, "count");
        for pass in 0..passes - 1 {
            for p in &phases {
                for j in 0..p.len() {
                    let req = p.request(j, pass * pass_len);
                    apply(registry.get_or_insert(&req.key), 0, &req);
                }
            }
        }
        let last = (passes - 1) * pass_len;
        let mut by_kind: [Vec<u64>; 4] = Default::default();
        let mut reg_all = Vec::new();
        for (i, tag) in RATE_TAGS.iter().enumerate() {
            let (p, r) = (&phases[i], &runs[passes as usize - 1][i]);
            let rep = replay(
                &registry,
                (0..p.len()).map(|j| (p.request(j, last), p.kind[j])),
                &mut by_kind,
            );
            let mut sojourn: Vec<u64> = Vec::with_capacity(p.len());
            let mut residual: Vec<u64> = Vec::with_capacity(p.len());
            for j in 0..p.len().min(r.stamp_ns.len()) {
                let so = r.stamp_ns[j].saturating_sub(r.submit_start_ns[j]);
                sojourn.push(so);
                residual.push(so.saturating_sub(rep.registry_ns[j] + rep.backend_ns[j]));
                spans.push(Span {
                    part: "svc_open",
                    id: last + p.first + j as u64,
                    phase: tag,
                    scheduled_ns: p.offset_ns[j],
                    submit_ns: (r.submit_start_ns[j], r.submit_end_ns[j]),
                    completed_ns: r.stamp_ns[j],
                    replay_registry_ns: rep.registry_ns[j],
                    replay_backend_ns: rep.backend_ns[j],
                });
            }
            report.layer(
                &format!("dispatch.sojourn_us.p50.{tag}"),
                us(quantile(&mut sojourn, 0.5)),
                "us",
            );
            report.layer(
                &format!("dispatch.residual_us.p50.{tag}"),
                us(quantile(&mut residual, 0.5)),
                "us",
            );
            reg_all.extend(rep.registry_ns);
        }
        report.layer(
            "registry.get_ns.p50",
            quantile(&mut reg_all, 0.5) as f64,
            "ns",
        );
        for (kind, name) in [
            (Kind::Inc, "inc"),
            (Kind::WriteMax, "write_max"),
            (Kind::ReadCount, "read_count"),
            (Kind::ReadMaxCached, "read_max_cached"),
        ] {
            report.layer(
                &format!("backend.{name}_ns.p50"),
                quantile(&mut by_kind[kind as usize], 0.5) as f64,
                "ns",
            );
        }
    }
}

// ---------------------------------------------------------------------
// svc_call
// ---------------------------------------------------------------------

/// Closed-loop calls per slice, and per window over which the call
/// rate is taken.
const CALL_SLICE: Duration = Duration::from_millis(300);
const CALL_WINDOW: usize = 1024;

/// The closed loop: the call stream, a running service with all
/// [`CALL_KEYS`] keys resident, and the sequential model every
/// response is checked against. Client and worker share one CPU, so
/// every round trip pays the same handoff.
pub struct Call {
    svc: Service,
    stream: Vec<(u16, Kind)>,
    count: Vec<u64>,
    max: Vec<u64>,
    cached: Vec<u64>,
    /// Round trip of every call, in ns.
    rtt: Vec<u32>,
    /// Calls per second of every window of [`CALL_WINDOW`] calls.
    rates: Vec<f64>,
    /// Traced: issue instant (ns from the first call) of every call,
    /// and the calls made, for the replay.
    issued_ns: Vec<u64>,
    reqs: Vec<(Request, Kind)>,
    failed: u64,
    start: Option<Instant>,
    /// The CPU client and worker share.
    cpu: Vec<usize>,
    cpus: Vec<usize>,
}

impl Call {
    pub fn new(seed: u64) -> Self {
        let cpus = cpu::allowed();
        let one = cpus[..cpus.len().min(1)].to_vec();
        cpu::pin(&one);
        let svc = Service::new(CALL_KEYS as usize, 1, BACKEND);
        cpu::pin(&cpus);
        for k in 0..CALL_KEYS {
            materialize(svc.registry(), k);
        }
        Call {
            svc,
            stream: gen::call_stream(seed, 1 << 16),
            count: vec![0; CALL_KEYS as usize],
            max: vec![0; CALL_KEYS as usize],
            cached: vec![0; CALL_KEYS as usize],
            rtt: Vec::new(),
            rates: Vec::new(),
            issued_ns: Vec::new(),
            reqs: Vec::new(),
            failed: 0,
            start: None,
            cpu: one,
            cpus,
        }
    }

    /// Whether `resp` is what the sequential model allows for `req`;
    /// updates the model.
    fn check(&mut self, req: Request, resp: Response) -> bool {
        let k = req.key as usize;
        match (req.op, resp) {
            (ServiceOp::Inc, Response::Ok) => {
                self.count[k] += 1;
                true
            }
            (ServiceOp::WriteMax(v), Response::Ok) => {
                self.max[k] = self.max[k].max(v);
                true
            }
            (ServiceOp::ReadCount, Response::Value(v)) => v == self.count[k],
            (ServiceOp::ReadMaxCached, Response::Value(v)) => {
                let ok = v <= self.max[k] && v >= self.cached[k];
                self.cached[k] = v;
                ok
            }
            _ => false,
        }
    }
}

impl Part for Call {
    /// Blocking round trips for [`CALL_SLICE`].
    fn slice(&mut self) {
        cpu::pin(&self.cpu);
        let begin = Instant::now();
        let start = *self.start.get_or_insert(begin);
        let until = begin + CALL_SLICE;
        let mut window = (begin, 0);
        loop {
            let i = self.rtt.len();
            let (key, kind) = self.stream[i % self.stream.len()];
            let req = gen::request(u64::from(key), kind, i as u64 + 1);
            let t0 = Instant::now();
            let resp = self.svc.call(req);
            let t1 = Instant::now();
            self.rtt
                .push(u32::try_from(ns(t1 - t0)).unwrap_or(u32::MAX));
            if !self.check(req, resp.clone()) {
                if self.failed == 0 {
                    eprintln!("svc_call: call {i} {req:?} answered {resp:?}");
                }
                self.failed += 1;
            }
            if TRACED {
                self.issued_ns.push(ns(t0 - start));
                self.reqs.push((req, kind));
            }
            window.1 += 1;
            if window.1 == CALL_WINDOW {
                self.rates
                    .push(CALL_WINDOW as f64 / (t1 - window.0).as_secs_f64());
                window = (t1, 0);
            }
            if t1 >= until {
                break;
            }
        }
        cpu::pin(&self.cpus);
    }

    /// Reports the round trips: `ops_s` is calls per second, median
    /// over windows of [`CALL_WINDOW`] calls, `p50_us` the exact median
    /// round trip.
    fn finish(mut self: Box<Self>, report: &mut Report, spans: &mut Vec<Span>) {
        self.svc.shutdown();
        let Call {
            rtt,
            rates,
            issued_ns,
            reqs,
            failed,
            ..
        } = *self;
        report.count(rtt.len() as u64, failed);
        report.e2e("ops_s", median(&rates), "ops/s");
        // A copy: the replay below pairs round trips with calls in order.
        let mut sorted = rtt.clone();
        let mut rtt_us = |q: f64| f64::from(quantile(&mut sorted, q)) / 1e3;
        let p50 = rtt_us(0.5);
        report.e2e("p50_us", p50, "us");
        report.layer("rtt_p50_us", p50, "us");
        report.layer("rtt_p90_us", rtt_us(0.9), "us");
        report.layer("rtt_p99_us", rtt_us(0.99), "us");
        if !TRACED {
            return;
        }
        let registry = Registry::new(CALL_KEYS as usize, 1, BACKEND);
        for k in 0..CALL_KEYS {
            materialize(&registry, k);
        }
        let mut by_kind: [Vec<u64>; 4] = Default::default();
        let rep = replay(&registry, reqs.iter().copied(), &mut by_kind);
        let mut overhead: Vec<u64> = (0..rtt.len())
            .map(|j| u64::from(rtt[j]).saturating_sub(rep.registry_ns[j] + rep.backend_ns[j]))
            .collect();
        report.layer(
            "handoff.overhead_us.p50",
            us(quantile(&mut overhead, 0.5)),
            "us",
        );
        for (j, &t0) in issued_ns.iter().enumerate() {
            let done = t0 + u64::from(rtt[j]);
            spans.push(Span {
                part: "svc_call",
                id: j as u64,
                phase: "call",
                scheduled_ns: t0,
                submit_ns: (t0, done),
                completed_ns: done,
                replay_registry_ns: rep.registry_ns[j],
                replay_backend_ns: rep.backend_ns[j],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_once_after_submit_and_fifo() {
        let svc = Service::new(OPEN_KEYSPACE as usize, 1, BACKEND);
        for (i, rate) in [(1u64, 50_000u64), (2, 200_000), (3, 0)] {
            let p = gen::phase(i, rate, 5_000, 0);
            let r = drive(&svc, &p, 0, true);
            assert_eq!(r.lost, 0);
            // Exactly once: one stamp per request, no more.
            assert_eq!(r.stamp_ns.len(), p.len());
            assert_eq!(r.submit_end_ns.len(), p.len());
            for j in 0..p.len() {
                assert!(
                    r.stamp_ns[j] >= r.submit_end_ns[j],
                    "request {j} stamped before its submit returned"
                );
            }
            // FIFO: completion stamps never go backwards.
            assert!(r.stamp_ns.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(svc.completed(), svc.submitted());
    }
}
