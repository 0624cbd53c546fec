//! `checker_corpus`: the 64 shipped corpus scenarios of
//! `tests/corpus.rs` and their pinned verdicts, memo on, serial
//! driver, timed in two parts — the deep single-process
//! `thm1/tower_*` searches and the wide multi-process rest.
//!
//! The corpus is a copy (an integration test is not a library); a
//! test of this package checks it still names the same scenarios as
//! the pinned list.

use std::time::{Duration, Instant};

use sl2::core::baselines::agm_stack::AgmStackAlg;
use sl2::core::baselines::cas_queue::CasQueueAlg;
use sl2::core::baselines::treiber_stack::TreiberStackAlg;
use sl2::exec::sched;
use sl2::prelude::*;
use sl2::spec::counters::{CounterOp, CounterSpec, FetchIncOp, FetchIncSpec};
use sl2::spec::fifo::{QueueOp, QueueSpec, StackOp, StackSpec};
use sl2::spec::max_register::{MaxOp, MaxRegisterSpec};
use sl2::spec::Spec;

use crate::{Part, Report, Span, TRACED};

/// Shared node budget of one pass (headroom, as in the corpus suite).
const NODE_BUDGET: usize = 256_000_000;
const OPTIONS: CorpusOptions = CorpusOptions {
    per_scenario_limit: 8_000_000,
    memo: MemoMode::Canonical,
};
/// Scenarios in the shipped corpus.
pub const SCENARIOS: usize = 64;

/// One corpus scenario: its name, a serial check into a report, and a
/// round-robin replay returning the steps it took.
pub struct Member {
    pub name: String,
    check: Box<dyn Fn(&mut CorpusReport)>,
    replay: Box<dyn Fn() -> u64>,
}

impl Member {
    fn is_tower(&self) -> bool {
        self.name.starts_with("thm1/tower_")
    }

    fn family(&self) -> &str {
        self.name.split('/').next().unwrap_or("")
    }
}

/// Splits `corpus` into one single-scenario member per entry, so each
/// check can be timed on its own through the serial driver.
fn add<S, A, F>(out: &mut Vec<Member>, corpus: ScenarioCorpus<S>, make: F)
where
    S: Spec + 'static,
    A: Algorithm<Spec = S> + 'static,
    F: Fn(&mut SimMemory) -> A + Clone + 'static,
{
    for (name, scenario) in corpus.entries() {
        let mut one = ScenarioCorpus::without_dedup();
        one.push(name.clone(), scenario.clone());
        let check_make = make.clone();
        let replay_make = make.clone();
        let scenario = scenario.clone();
        out.push(Member {
            name: name.clone(),
            check: Box::new(move |report| one.run_into(&check_make, &OPTIONS, report)),
            replay: Box::new(move || {
                let mut mem = SimMemory::new();
                let alg = replay_make(&mut mem);
                let n = scenario.processes();
                let exec = sched::run(
                    &alg,
                    mem,
                    &scenario,
                    &mut RoundRobin::default(),
                    &CrashPlan::none(n),
                );
                exec.proc_steps.iter().sum()
            }),
        });
    }
}

fn max_register_corpus() -> ScenarioCorpus<MaxRegisterSpec> {
    let alphabet = [MaxOp::Write(1), MaxOp::Write(3), MaxOp::Read];
    let mut corpus = ScenarioCorpus::new();
    corpus.symmetric_family("thm1", &[2], &alphabet, 2);
    corpus.fan_in_family("thm1", &alphabet, 2, &[MaxOp::Read]);
    corpus.tower_family(
        "thm1",
        &[MaxOp::Write(2), MaxOp::Read],
        &[4, 6],
        &[vec![MaxOp::Write(5)]],
    );
    corpus.tower_family("thm1", &[MaxOp::Write(2), MaxOp::Read], &[1100], &[]);
    corpus
}

fn fetch_inc_corpus() -> ScenarioCorpus<FetchIncSpec> {
    let alphabet = [FetchIncOp::FetchInc, FetchIncOp::Read];
    let mut corpus = ScenarioCorpus::new();
    corpus.symmetric_family("thm9", &[2], &alphabet, 2);
    corpus.fan_in_family("thm9", &alphabet, 2, &[FetchIncOp::Read]);
    corpus
}

fn stack_corpus(prefix: &str) -> ScenarioCorpus<StackSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("{prefix}/witness_scenario"),
        Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2)],
            vec![StackOp::Pop, StackOp::Pop],
        ]),
    );
    corpus.push(
        format!("{prefix}/single_pusher"),
        Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Pop, StackOp::Pop],
        ]),
    );
    corpus
}

fn sharded_corpus(tag: &str, shards: usize) -> ScenarioCorpus<MaxRegisterSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("{tag}_s{shards}/frontier_safe"),
        frontier_safe_max_scenario(shards),
    );
    corpus.push(
        format!("{tag}_s{shards}/fan_in"),
        fan_in_max_scenario(shards),
    );
    corpus
}

fn counter_corpus(prefix: &str) -> ScenarioCorpus<CounterSpec> {
    let mut corpus = ScenarioCorpus::without_dedup();
    corpus.push(
        format!("{prefix}/fan_in"),
        fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]),
    );
    corpus.push(
        format!("{prefix}/inc_read_pair"),
        Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]),
    );
    corpus
}

fn combining_corpus(shards: usize, mode: ReadMode) -> ScenarioCorpus<MaxRegisterSpec> {
    let tag = match mode {
        ReadMode::Cached => "cached",
        ReadMode::Stable => "stable",
    };
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("combining_{tag}_s{shards}/frontier_safe"),
        combining_frontier_safe_scenario(shards),
    );
    corpus.push(
        format!("combining_{tag}_s{shards}/fan_in"),
        cached_fan_in_max_scenario(),
    );
    corpus
}

fn service_corpus(tag: &str) -> ScenarioCorpus<KeyedMaxSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(format!("service_{tag}/cross_key"), cross_key_scenario());
    corpus.push(format!("service_{tag}/fan_in"), same_key_fan_in_scenario());
    corpus
}

fn service_lagging_corpus() -> ScenarioCorpus<LaggingKeyedMaxSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push("service_lagging_k2/cross_key", cross_key_lagging_scenario());
    corpus.push(
        "service_lagging_k2/fan_in",
        same_key_fan_in_lagging_scenario(),
    );
    corpus
}

/// Treiber answers the same stack scenarios as AGM; a newtype keeps
/// the two runs' algorithms apart.
#[derive(Debug, Clone)]
struct StackVsTreiber(TreiberStackAlg);

impl Algorithm for StackVsTreiber {
    type Spec = StackSpec;
    type Machine = <TreiberStackAlg as Algorithm>::Machine;
    fn spec(&self) -> StackSpec {
        StackSpec
    }
    fn machine(&self, p: usize, op: &StackOp) -> Self::Machine {
        self.0.machine(p, op)
    }
}

/// Every corpus member, in the corpus suite's order.
pub fn members() -> Vec<Member> {
    let mut m = Vec::new();
    add(&mut m, max_register_corpus(), |mem: &mut SimMemory| {
        MaxRegAlg::new(mem, 3)
    });
    add(&mut m, fetch_inc_corpus(), FetchIncAlg::new);
    add(&mut m, stack_corpus("agm"), AgmStackAlg::new);
    add(&mut m, stack_corpus("treiber"), |mem: &mut SimMemory| {
        StackVsTreiber(TreiberStackAlg::new(mem))
    });
    for shards in [1usize, 2, 4] {
        add(
            &mut m,
            sharded_corpus("sharded", shards),
            move |mem: &mut SimMemory| ShardedMaxRegAlg::new(mem, 3, shards),
        );
    }
    for shards in [1usize, 2, 4] {
        add(
            &mut m,
            sharded_corpus("sharded_binary", shards),
            move |mem: &mut SimMemory| ShardedMaxRegAlg::binary(mem, 3, shards),
        );
    }
    add(
        &mut m,
        counter_corpus("counter_naive"),
        |mem: &mut SimMemory| ShardedCounterAlg::naive(mem, 3, 2),
    );
    add(
        &mut m,
        counter_corpus("counter_exact"),
        |mem: &mut SimMemory| ShardedCounterAlg::exact(mem, 3, 2),
    );
    for shards in [1usize, 2] {
        for mode in [ReadMode::Stable, ReadMode::Cached] {
            add(
                &mut m,
                combining_corpus(shards, mode),
                move |mem: &mut SimMemory| CombiningMaxRegAlg::new(mem, 3, shards, mode),
            );
        }
    }
    add(
        &mut m,
        counter_corpus("combining_counter_stable"),
        |mem: &mut SimMemory| CombiningCounterAlg::stable(mem, 3, 1),
    );
    add(
        &mut m,
        counter_corpus("combining_counter_cached"),
        |mem: &mut SimMemory| CombiningCounterAlg::cached(mem, 3, 1),
    );
    add(&mut m, service_corpus("exact"), |mem: &mut SimMemory| {
        KeyedDispatchAlg::new(mem, 3, &[1, 2], RouteMode::Exact)
    });
    add(&mut m, service_corpus("cached"), |mem: &mut SimMemory| {
        KeyedDispatchAlg::new(mem, 3, &[1, 2], RouteMode::Cached)
    });
    add(&mut m, service_lagging_corpus(), |mem: &mut SimMemory| {
        LaggingKeyedDispatchAlg::new(mem, 3, &[1, 2], 2)
    });
    let mut q = ScenarioCorpus::<QueueSpec>::new();
    q.push(
        "cas_queue/witness_scenario",
        Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]),
    );
    add(&mut m, q, CasQueueAlg::new);
    m
}

/// `(name, certified?)` for every individually pinned record, copied
/// from the corpus suite; the `thm1/` and `thm9/` families are
/// additionally required certified.
pub const PINNED: &[(&str, bool)] = &[
    ("thm1/tower_h1100", true),
    ("agm/witness_scenario", false),
    ("agm/single_pusher", true),
    ("treiber/witness_scenario", true),
    ("treiber/single_pusher", true),
    ("cas_queue/witness_scenario", true),
    ("sharded_s1/frontier_safe", true),
    ("sharded_s1/fan_in", true),
    ("sharded_s2/frontier_safe", true),
    ("sharded_s2/fan_in", false),
    ("sharded_s4/frontier_safe", true),
    ("sharded_s4/fan_in", false),
    ("sharded_binary_s1/frontier_safe", true),
    ("sharded_binary_s1/fan_in", true),
    ("sharded_binary_s2/frontier_safe", true),
    ("sharded_binary_s2/fan_in", false),
    ("sharded_binary_s4/frontier_safe", true),
    ("sharded_binary_s4/fan_in", false),
    ("counter_naive/fan_in", false),
    ("counter_naive/inc_read_pair", true),
    ("counter_exact/fan_in", false),
    ("counter_exact/inc_read_pair", true),
    ("combining_stable_s1/frontier_safe", true),
    ("combining_stable_s1/fan_in", true),
    ("combining_stable_s2/frontier_safe", true),
    ("combining_stable_s2/fan_in", false),
    ("combining_cached_s1/frontier_safe", false),
    ("combining_cached_s1/fan_in", false),
    ("combining_cached_s2/frontier_safe", false),
    ("combining_cached_s2/fan_in", false),
    ("combining_counter_stable/fan_in", true),
    ("combining_counter_stable/inc_read_pair", true),
    ("combining_counter_cached/fan_in", false),
    ("combining_counter_cached/inc_read_pair", false),
    ("service_exact/cross_key", true),
    ("service_exact/fan_in", true),
    ("service_cached/cross_key", false),
    ("service_cached/fan_in", false),
    ("service_lagging_k2/cross_key", true),
    ("service_lagging_k2/fan_in", true),
];

/// Whether `rec` reproduces its pinned verdict: never `Bounded`,
/// `nodes == memo_misses`, pinned records and the `thm1/`/`thm9/`
/// families as pinned, refutations with a witness.
fn record_ok(rec: &CorpusRecord) -> bool {
    let pinned = PINNED.iter().find(|(n, _)| *n == rec.name).map(|p| p.1);
    let family = (rec.name.starts_with("thm1/") || rec.name.starts_with("thm9/")).then_some(true);
    let want = match pinned.or(family) {
        Some(true) => Some(CorpusVerdict::Certified),
        Some(false) => Some(CorpusVerdict::Refuted),
        None => None,
    };
    rec.verdict != CorpusVerdict::Bounded
        && rec.nodes == rec.stats.memo_misses
        && want.is_none_or(|w| rec.verdict == w)
        && (rec.verdict != CorpusVerdict::Refuted || rec.witness_steps > 0)
}

/// The corpus part: the members, and what the passes found.
pub struct Corpus {
    members: Vec<Member>,
    /// Per member: its fastest check over the passes, in seconds. A
    /// check is deterministic work, so the fastest pass is the one the
    /// host disturbed least.
    best: Vec<f64>,
    /// Per member: its record from the first pass.
    records: Vec<CorpusRecord>,
    passes: u64,
    failed: u64,
}

impl Corpus {
    pub fn new() -> Self {
        let members = members();
        Corpus {
            best: vec![f64::INFINITY; members.len()],
            members,
            records: Vec::new(),
            passes: 0,
            failed: 0,
        }
    }

    /// Sum of the best times of the members `pick` selects.
    fn secs(&self, pick: impl Fn(&Member) -> bool) -> f64 {
        self.members
            .iter()
            .zip(&self.best)
            .filter(|(m, _)| pick(m))
            .map(|(_, s)| s)
            .sum()
    }
}

impl Part for Corpus {
    /// One serial pass over every member, each timed on its own.
    fn slice(&mut self) {
        let mut rep = CorpusReport::new(NODE_BUDGET);
        for (m, best) in self.members.iter().zip(&mut self.best) {
            let t = Instant::now();
            (m.check)(&mut rep);
            *best = best.min(t.elapsed().as_secs_f64());
        }
        for rec in rep.records.iter().filter(|r| !record_ok(r)) {
            eprintln!(
                "checker_corpus: {} does not reproduce its pin: {rec:?}",
                rec.name
            );
            self.failed += 1;
        }
        self.failed += (SCENARIOS as u64).saturating_sub(rep.records.len() as u64);
        if self.passes == 0 {
            self.records = rep.records;
        }
        self.passes += 1;
    }

    /// Reports the towers' and the rest's time from the members' best
    /// times.
    fn finish(self: Box<Self>, report: &mut Report, _spans: &mut Vec<Span>) {
        report.count(SCENARIOS as u64 * self.passes, self.failed);
        for (tag, tower) in [("tower", true), ("rest", false)] {
            let secs = self.secs(|m| m.is_tower() == tower);
            report.layer(&format!("verify_s.{tag}"), secs, "s");
            if !TRACED {
                continue;
            }
            let recs = || {
                self.members
                    .iter()
                    .zip(&self.records)
                    .filter(|(m, _)| m.is_tower() == tower)
                    .map(|(_, r)| r)
            };
            let nodes: usize = recs().map(|r| r.nodes).sum();
            let hits: usize = recs().map(|r| r.stats.memo_hits).sum();
            let misses: usize = recs().map(|r| r.stats.memo_misses).sum();
            let depth = recs().map(|r| r.stats.max_depth).max().unwrap_or(0);
            report.layer(&format!("checker.nodes.{tag}"), nodes as f64, "count");
            report.layer(
                &format!("checker.memo_hit_rate.{tag}"),
                hits as f64 / (hits + misses).max(1) as f64,
                "frac",
            );
            report.layer(
                &format!("checker.ns_per_node.{tag}"),
                secs * 1e9 / nodes.max(1) as f64,
                "ns",
            );
            report.layer(&format!("checker.max_depth.{tag}"), depth as f64, "count");
        }
        if !TRACED {
            return;
        }
        let mut families: Vec<&str> = self.members.iter().map(Member::family).collect();
        families.dedup();
        for f in families {
            let secs = self.secs(|m| m.family() == f);
            report.layer(&format!("checker.family_s.{f}"), secs, "s");
        }
        // Step execution outside the search: round-robin replays of
        // every scenario, repeated for at least 200 ms.
        let (mut steps, t) = (0u64, Instant::now());
        while t.elapsed() < Duration::from_millis(200) {
            steps += self.members.iter().map(|m| (m.replay)()).sum::<u64>();
        }
        report.layer(
            "checker.step_ns",
            t.elapsed().as_secs_f64() * 1e9 / steps as f64,
            "ns",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `("name", bool)` tuples of `pinned_verdicts()` in the corpus
    /// suite.
    fn suite_pinned() -> Vec<(String, bool)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/corpus.rs");
        let src = std::fs::read_to_string(path).expect("corpus suite readable");
        let body = src
            .split("fn pinned_verdicts()")
            .nth(1)
            .and_then(|s| s.split("\n}\n").next())
            .expect("pinned_verdicts() in the corpus suite");
        body.lines()
            .filter_map(|l| {
                let l = l.trim().strip_prefix("(\"")?;
                let (name, rest) = l.split_once("\", ")?;
                Some((name.to_string(), rest.starts_with("true")))
            })
            .collect()
    }

    #[test]
    fn corpus_copy_matches_the_pinned_list() {
        let names: Vec<String> = members().into_iter().map(|m| m.name).collect();
        assert_eq!(names.len(), SCENARIOS);
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), SCENARIOS, "scenario names are distinct");
        let pinned = suite_pinned();
        assert_eq!(pinned.len(), PINNED.len());
        for ((n, v), (pn, pv)) in pinned.iter().zip(PINNED) {
            assert_eq!((n.as_str(), *v), (*pn, *pv));
        }
        for (n, _) in PINNED {
            assert!(names.iter().any(|m| m == n), "{n} missing from the copy");
        }
        // Everything unpinned belongs to the blanket-certified families.
        for n in &names {
            assert!(
                PINNED.iter().any(|(p, _)| p == n)
                    || n.starts_with("thm1/")
                    || n.starts_with("thm9/"),
                "{n} is neither pinned nor in a certified family"
            );
        }
        assert!(names.iter().any(|n| n == "thm1/tower_h1100"));
    }
}
