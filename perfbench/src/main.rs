//! The sl2 benchmark binary. Four parts — `svc_call`, `obj_hot`,
//! `svc_open`, `checker_corpus`; the first two are the benchmark's
//! workloads, and the other two are measured in the traced run.
//!
//! ```text
//! sl2_perfbench --part <workload|all> --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]
//! ```
//!
//! `--part <workload>` sets up and measures that part alone and reports
//! the end-to-end metrics every workload shares: `setup_s`, `ops_s`
//! and `p50_us`, each with the part's own meaning (see `NOTES.md`).
//! `--part all` measures every part in interleaved slices and reports
//! only the per-part figures; the traced run uses it, so that one run
//! covers every layer.
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, the
//! end-to-end metrics and the per-part figures, plus, in the traced
//! build (feature `traced`), the per-layer metrics. `run.py` turns it
//! into the benchmark's result line.

mod checker;
mod cpu;
mod gen;
mod obj;
mod stats;
mod svc;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Whether this build is the traced one (obs probes armed, per-layer
/// timings taken).
pub const TRACED: bool = cfg!(feature = "traced");

const PARTS: [&str; 4] = ["svc_call", "obj_hot", "svc_open", "checker_corpus"];
/// The parts `--part` can name alone: the benchmark's workloads. The
/// open loop's and the checker's figures follow the host by more than
/// any bound (see `NOTES.md`), so they run only with the others, in
/// the traced run.
const WORKLOADS: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken under `SETUP_BUDGET`, up to `MAX_SETUPS`. `setup_s` is their
/// median, so one slow set-up does not move it.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Metrics and op counts gathered by the parts.
#[derive(Default)]
pub struct Report {
    e2e: Vec<(String, f64, &'static str)>,
    layer: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An end-to-end metric: `ops_s` or `p50_us`.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), value, unit));
    }

    /// A per-part figure or per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self) -> String {
        let section = |ms: &[(String, f64, &str)]| {
            let mut s = String::from("{");
            for (i, (n, v, u)) in ms.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(s, "{sep}\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}");
            }
            s + "}"
        };
        let finite = self.e2e.iter().chain(&self.layer).all(|m| m.1.is_finite());
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted,
            self.failed,
            section(&self.e2e),
            section(&self.layer)
        )
    }
}

/// One request's spans in the traced run: the request span from its
/// scheduled instant to its observed completion, its `submit`/`call`
/// child span, and the replayed registry and backend durations.
pub struct Span {
    pub part: &'static str,
    pub id: u64,
    pub phase: &'static str,
    pub scheduled_ns: u64,
    pub submit_ns: (u64, u64),
    pub completed_ns: u64,
    pub replay_registry_ns: u64,
    pub replay_backend_ns: u64,
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "part,id,phase,scheduled_ns,submit_start_ns,submit_end_ns,completed_ns,replay_registry_ns,replay_backend_ns"
    )?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{}",
            s.part,
            s.id,
            s.phase,
            s.scheduled_ns,
            s.submit_ns.0,
            s.submit_ns.1,
            s.completed_ns,
            s.replay_registry_ns,
            s.replay_backend_ns
        )?;
    }
    w.flush()
}

struct Args {
    /// Index into [`PARTS`]; `None` for every part.
    part: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut part, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--part" if value == "all" => part = Some(None),
            "--part" => {
                part = Some(Some(
                    PARTS[..WORKLOADS]
                        .iter()
                        .position(|w| *w == value)
                        .ok_or(format!(
                            "unknown part {value}; one of {:?} or all",
                            &PARTS[..WORKLOADS]
                        ))?,
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        part: part.ok_or("--part is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// One measured part of the benchmark, measured in slices of under a
/// second.
pub trait Part {
    /// Measures one more slice.
    fn slice(&mut self);
    /// Checks the outputs and reports the part's metrics.
    fn finish(self: Box<Self>, report: &mut Report, spans: &mut Vec<Span>);
}

fn setup_one(part: usize, seed: u64) -> Box<dyn Part> {
    match part {
        0 => Box::new(svc::Call::new(seed)),
        1 => Box::new(obj::Hot::new(seed)),
        2 => Box::new(svc::Open::new(seed)),
        _ => Box::new(checker::Corpus::new()),
    }
}

/// Sets up the parts `which` names, in [`PARTS`] order.
fn setup(which: Option<usize>, seed: u64) -> Vec<Box<dyn Part>> {
    match which {
        Some(p) => vec![setup_one(p, seed)],
        None => (0..PARTS.len()).map(|p| setup_one(p, seed)).collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sl2_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // An untraced run must measure the program as shipped: armed
    // instrumentation leaking in through feature unification fails the
    // run instead of skewing it.
    if args.trace != TRACED || sl2::obs::armed() != TRACED || sl2::trace::armed() {
        eprintln!(
            "sl2_perfbench: --trace {} on a build with obs armed = {}, trace armed = {}",
            u8::from(args.trace),
            sl2::obs::armed(),
            sl2::trace::armed()
        );
        return ExitCode::from(3);
    }
    let total = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    let stall_before = TRACED.then(|| stats::stall_ms_per_s(Duration::from_millis(100)));

    let mut setup_s = Vec::new();
    let mut parts = Vec::new();
    let setups = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setups.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        drop(std::mem::take(&mut parts));
        let t = Instant::now();
        parts = setup(args.part, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup_s);

    // One slice of every part per round, until the measuring time is
    // spent; interleaving makes drift in the host hit every part alike.
    let t = Instant::now();
    loop {
        for part in parts.iter_mut() {
            part.slice();
        }
        if t.elapsed() >= total {
            break;
        }
    }
    let mut spans = Vec::new();
    for part in parts {
        part.finish(&mut report, &mut spans);
    }
    match args.part {
        Some(_) => report.e2e.insert(0, ("setup_s".into(), setup_s, "s")),
        // Every part reported its own `ops_s` and `p50_us`; with all of
        // them measured only the per-part figures mean anything.
        None => {
            report.e2e.clear();
            report.layer("setup_s.all", setup_s, "s");
        }
    }
    if let Some(before) = stall_before {
        let after = stats::stall_ms_per_s(Duration::from_millis(100));
        report.layer("env.stall_ms_per_s", (before + after) / 2.0, "ms/s");
        report.layer("env.timer_ns", stats::timer_ns(), "ns");
    }
    if let Some(dir) = args.spans.filter(|_| TRACED) {
        let name = args.part.map_or("all", |p| PARTS[p]);
        let path = dir.join(format!("spans-{name}-{}.csv", args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| write_spans(&path, &spans)) {
            eprintln!("sl2_perfbench: writing {}: {e}", path.display());
            return ExitCode::from(4);
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
