//! Seeded inputs: the open-loop schedule, the closed-loop call stream
//! and the hot-key op streams. Everything here is a pure function of
//! the seed; the program under test only ever sees the generated
//! requests.

use sl2::service::{Request, ServiceOp};
use sl2_bench::{OpenLoopPlan, ValueStream, ZipfStream};

/// Keyspace of the open-loop workload (the registry's capacity).
pub const OPEN_KEYSPACE: u64 = 1 << 20;
/// Keys of the closed-loop call workload, all resident from set-up.
pub const CALL_KEYS: u64 = 1024;

/// Request kinds of the service mix: 30 % writes (inc : write_max =
/// 2 : 1), 70 % reads (half exact `ReadCount`, half cached
/// `ReadMaxCached`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Inc,
    WriteMax,
    ReadCount,
    ReadMaxCached,
}

impl Kind {
    /// One draw of the service mix from a uniform value.
    fn draw(u: u64) -> Kind {
        match u % 20 {
            0..=3 => Kind::Inc,
            4..=5 => Kind::WriteMax,
            6..=12 => Kind::ReadCount,
            _ => Kind::ReadMaxCached,
        }
    }
}

/// The request a generated `(key, kind)` pair stands for. `value` is
/// the write's operand; the generators hand out increasing values.
pub fn request(key: u64, kind: Kind, value: u64) -> Request {
    let op = match kind {
        Kind::Inc => ServiceOp::Inc,
        Kind::WriteMax => ServiceOp::WriteMax(value),
        Kind::ReadCount => ServiceOp::ReadCount,
        Kind::ReadMaxCached => ServiceOp::ReadMaxCached,
    };
    Request { key, op }
}

/// One open-loop phase: Poisson arrivals at `rate` (requests/s) over
/// zipf keys. Offsets are nanoseconds from the phase start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub rate: u64,
    pub offset_ns: Vec<u64>,
    pub key: Vec<u32>,
    pub kind: Vec<Kind>,
    /// Index of this phase's first request in its pass: request `i`
    /// of the phase writes value `base + first + i + 1`, where `base`
    /// is the pass's offset, so write values increase across the
    /// whole run.
    pub first: u64,
}

impl Phase {
    pub fn len(&self) -> usize {
        self.offset_ns.len()
    }

    pub fn request(&self, i: usize, base: u64) -> Request {
        request(
            u64::from(self.key[i]),
            self.kind[i],
            base + self.first + i as u64 + 1,
        )
    }

    /// Mean interarrival gap, the lateness threshold of the generator.
    pub fn mean_gap_ns(&self) -> u64 {
        1_000_000_000 / self.rate
    }
}

/// Builds one phase of `ops` arrivals at `rate`/s. A `rate` of 0
/// schedules every arrival at offset 0: the generator then submits
/// back to back, as fast as it can.
pub fn phase(seed: u64, rate: u64, ops: u64, first: u64) -> Phase {
    let plan = OpenLoopPlan {
        rate_per_sec: rate.max(1),
        ops,
        keyspace: OPEN_KEYSPACE,
        seed,
    };
    let mut kinds = ValueStream::new(seed ^ 0x6b1d_5eed);
    let mut p = Phase {
        rate: rate.max(1),
        offset_ns: Vec::with_capacity(ops as usize),
        key: Vec::with_capacity(ops as usize),
        kind: Vec::with_capacity(ops as usize),
        first,
    };
    for a in plan.arrivals() {
        let off = if rate == 0 {
            0
        } else {
            a.offset.as_nanos() as u64
        };
        p.offset_ns.push(off);
        p.key.push(a.key as u32);
        p.kind.push(Kind::draw(kinds.next_value()));
    }
    if rate == 0 {
        p.rate = u64::MAX;
    }
    p
}

/// The closed-loop call stream: `len` `(key, kind)` pairs over
/// [`CALL_KEYS`] zipf keys, cycled by the client. Call `i` writes
/// value `i + 1`.
pub fn call_stream(seed: u64, len: usize) -> Vec<(u16, Kind)> {
    let mut keys = ZipfStream::new(seed ^ 0xca11, CALL_KEYS);
    let mut kinds = ValueStream::new(seed ^ 0xca11_0f0f);
    (0..len)
        .map(|_| (keys.next_value() as u16, Kind::draw(kinds.next_value())))
        .collect()
}

/// Operations of the hot-key workload: 1 write : 9 reads, writes
/// split between write_max and inc, reads split between the exact and
/// cached reads of both objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HotOp {
    WriteMax,
    Inc,
    ReadMax,
    ReadMaxCached,
    ReadCount,
    ReadCountCached,
}

impl HotOp {
    #[cfg(test)]
    pub fn is_write(self) -> bool {
        matches!(self, HotOp::WriteMax | HotOp::Inc)
    }
}

/// One hot-key thread's op stream (cycled by the thread).
pub fn hot_stream(seed: u64, thread: usize, len: usize) -> Vec<HotOp> {
    let mut u = ValueStream::new(seed ^ (0x407 + thread as u64 * 0x9e37_79b9));
    (0..len)
        .map(|_| match u.next_value() % 40 {
            0..=1 => HotOp::WriteMax,
            2..=3 => HotOp::Inc,
            4..=12 => HotOp::ReadMax,
            13..=21 => HotOp::ReadMaxCached,
            22..=30 => HotOp::ReadCount,
            _ => HotOp::ReadCountCached,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share<T: PartialEq>(xs: &[T], pred: impl Fn(&T) -> bool) -> f64 {
        xs.iter().filter(|x| pred(x)).count() as f64 / xs.len() as f64
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        assert_eq!(phase(7, 200_000, 5_000, 0), phase(7, 200_000, 5_000, 0));
        assert_ne!(phase(7, 200_000, 5_000, 0), phase(8, 200_000, 5_000, 0));
        assert_eq!(call_stream(7, 5_000), call_stream(7, 5_000));
        assert_eq!(hot_stream(7, 1, 5_000), hot_stream(7, 1, 5_000));
        assert_ne!(hot_stream(7, 0, 5_000), hot_stream(7, 1, 5_000));
    }

    #[test]
    fn service_mix_within_tolerance() {
        let p = phase(11, 50_000, 200_000, 0);
        let k = &p.kind;
        let near = |got: f64, want: f64| (got - want).abs() < 0.01;
        assert!(near(share(k, |x| *x == Kind::Inc), 0.20));
        assert!(near(share(k, |x| *x == Kind::WriteMax), 0.10));
        assert!(near(share(k, |x| *x == Kind::ReadCount), 0.35));
        assert!(near(share(k, |x| *x == Kind::ReadMaxCached), 0.35));
        let calls: Vec<Kind> = call_stream(11, 200_000).into_iter().map(|c| c.1).collect();
        assert!(near(share(&calls, |x| *x == Kind::Inc), 0.20));
        assert!(near(share(&calls, |x| *x == Kind::ReadCount), 0.35));
        // Arrival rate: the last offset of 200k Poisson arrivals at
        // 50k/s sits near 4 s.
        let last = *p.offset_ns.last().unwrap() as f64 / 1e9;
        assert!((last - 4.0).abs() < 0.1, "{last}");
        // Zipf keys: key 0 is the hottest and keys stay in range.
        assert!(p.key.iter().all(|&k| u64::from(k) < OPEN_KEYSPACE));
        let zeros = share(&p.key, |k| *k == 0);
        assert!(zeros > 0.03, "{zeros}");
    }

    #[test]
    fn hot_mix_within_tolerance() {
        let ops = hot_stream(3, 0, 200_000);
        let near = |got: f64, want: f64| (got - want).abs() < 0.01;
        assert!(near(share(&ops, |o| o.is_write()), 0.10));
        assert!(near(share(&ops, |o| *o == HotOp::WriteMax), 0.05));
        for r in [
            HotOp::ReadMax,
            HotOp::ReadMaxCached,
            HotOp::ReadCount,
            HotOp::ReadCountCached,
        ] {
            assert!(near(share(&ops, |o| *o == r), 0.225));
        }
    }

    #[test]
    fn write_values_increase_across_phases() {
        let a = phase(5, 50_000, 1_000, 0);
        let b = phase(6, 200_000, 1_000, a.len() as u64);
        let vals: Vec<u64> = [&a, &b]
            .iter()
            .flat_map(|p| (0..p.len()).map(move |i| p.request(i, 0)))
            .filter_map(|r| match r.op {
                ServiceOp::WriteMax(v) => Some(v),
                _ => None,
            })
            .collect();
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }
}
