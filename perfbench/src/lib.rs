//! End-to-end and per-layer benchmark of the detdiv experiment report
//! and ingest service.
//!
//! One process runs one workload (see [`Workload`]) for a fixed time and
//! prints one JSON result line: whether every output checked out, how
//! many operations were attempted and failed, and the end-to-end metrics
//! (or, with `--trace 1`, the per-layer table of [`layers`]). Inputs are
//! a pure function of `--seed`; every check compares the program's
//! output with a computation made by this crate, never with a stored
//! copy of an earlier output. See `README.md` for the workloads.

use std::time::{Duration, Instant};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::{
    HmmConfig, HmmDetector, LaneBrodley, MarkovDetector, NeuralConfig, NeuralDetector,
    RipperConfig, RipperDetector, Stide, TStide,
};
use detdiv_synth::{Corpus, SynthesisConfig};

pub mod alloc;
pub mod checks;
pub mod ingest;
pub mod layers;
pub mod paced;
pub mod report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full experiment report, closed batch.
    Report,
    /// Closed-loop saturating ingest through gated tiering.
    IngestGated,
    /// Open-loop paced ingest through full tiering.
    IngestPaced,
    /// Wave-shaped overload through gated tiering with the guard.
    IngestOverload,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "report" => Some(Workload::Report),
            "ingest-gated" => Some(Workload::IngestGated),
            "ingest-paced" => Some(Workload::IngestPaced),
            "ingest-overload" => Some(Workload::IngestOverload),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
///
/// # Errors
///
/// Names the first missing, unknown or malformed argument.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that were lost or answered wrongly.
    pub failed: u64,
    /// Descriptions of every failed check (empty when correct).
    pub errors: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Folds a round's checks into the run: `attempted` operations, of
    /// which those named in `errors` failed.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// The result line: one JSON object.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the chosen workload end to end, or its per-layer table under
/// `--trace 1`. `process_start` is taken first thing in `main`.
///
/// # Errors
///
/// Returns set-up failures (synthesis, spill directories); output
/// mismatches are reported through [`Outcome::errors`] instead.
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    detdiv_obs::set_max_level(detdiv_obs::Level::Warn);
    let mut outcome = if args.trace {
        layers::run(args)?
    } else {
        match args.workload {
            Workload::Report => report::run(args, process_start)?,
            Workload::IngestGated => ingest::run_gated(args, process_start)?,
            Workload::IngestPaced => paced::run(args, process_start)?,
            Workload::IngestOverload => ingest::run_overload(args, process_start)?,
        }
    };
    if !args.trace {
        outcome.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    }
    Ok(outcome)
}

/// Set-ups per run: `setup_s` is the median of this many.
pub const SETUP_REPEATS: usize = 9;

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median duration. The first repetition is timed from
/// `process_start`, so process start-up counts as set-up.
///
/// # Errors
///
/// Propagates the first failing set-up.
pub fn timed_setup<T>(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&mut times)))
}

/// Runs `round` until `seconds` have passed (at least once), returning
/// each round's result. Rounds are whole: the run never stops inside
/// one, so every run attempts the same operations per round.
pub fn timed_rounds<T>(seconds: f64, mut round: impl FnMut(u64) -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(round(out.len() as u64));
        if started.elapsed() >= budget {
            return out;
        }
    }
}

/// Training length of every workload's corpus.
pub const TRAINING_LEN: usize = 60_000;

/// Synthesizes the benchmark corpus: the default shape (AS 2–9 × DW
/// 2–15, 4096-element backgrounds) on a [`TRAINING_LEN`]-element training
/// stream with the default synthesis seed.
///
/// # Errors
///
/// Synthesis failures.
pub fn synthesize() -> Result<Corpus, String> {
    let config = SynthesisConfig::builder()
        .training_len(TRAINING_LEN)
        .build()
        .map_err(|e| format!("synthesis config: {e}"))?;
    Corpus::synthesize(&config).map_err(|e| format!("synthesis: {e}"))
}

/// The seven trained families, in the order of the tier-2 bank, with
/// the hyperparameters the report uses (`DetectorKind::neural_default`
/// and the HMM and RIPPER defaults).
pub const FAMILIES: [&str; 7] = [
    "stide",
    "t-stide",
    "markov",
    "lane-brodley",
    "neural-network",
    "hmm",
    "ripper",
];

/// An untrained, uninstrumented detector of `family` at `window`.
///
/// # Panics
///
/// Panics on a name outside [`FAMILIES`].
pub fn build_family(family: &str, window: usize) -> Box<dyn SequenceAnomalyDetector> {
    match family {
        "stide" => Box::new(Stide::new(window)),
        "t-stide" => Box::new(TStide::new(window)),
        "markov" => Box::new(MarkovDetector::new(window)),
        "lane-brodley" => Box::new(LaneBrodley::new(window)),
        "neural-network" => Box::new(NeuralDetector::with_config(
            window,
            NeuralConfig {
                min_count: 2,
                ..NeuralConfig::default()
            },
        )),
        "hmm" => Box::new(HmmDetector::with_config(window, HmmConfig::default())),
        "ripper" => Box::new(RipperDetector::with_config(window, RipperConfig::default())),
        other => panic!("unknown family {other}"),
    }
}

/// splitmix64: derives every per-stream identity and draw from the seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Appends the timing metrics of an ingest workload: the median set-up,
/// the median round wall time and delivery rate, and the median latency
/// of `latency_ns`.
pub fn ingest_metrics(
    outcome: &mut Outcome,
    setup_s: f64,
    walls: &mut [f64],
    rates: &mut [f64],
    latency_ns: &mut [u64],
) {
    latency_ns.sort_unstable();
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("work_s", median(walls), "s");
    outcome.metric("events_per_s", median(rates), "1/s");
    outcome.metric("latency_p50_us", percentile_us(latency_ns, 50.0), "us");
}

/// Median of `values` (sorts them); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of sorted nanosecond samples, in µs.
pub fn percentile_us(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// The process's peak resident set, from `VmHWM` in `/proc/self/status`.
///
/// # Errors
///
/// When the field cannot be read (non-Linux hosts).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The process's user and system CPU time in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz clock ticks).
pub fn cpu_times_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')' the state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// The binaries' `main`: parses the arguments, runs, prints the result
/// line. Exit code 2 on bad arguments, 1 on set-up failure.
pub fn main_with(process_start: Instant) -> std::process::ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds N --trace 0|1");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", outcome.render());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
