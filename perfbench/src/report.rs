//! The `report` workload: the paper's full experiment report.

use std::time::Instant;

use detdiv_eval::FullReport;
use detdiv_synth::Corpus;

use crate::checks::{check_report, report_operations};
use crate::{median, timed_rounds, timed_setup, Args, Outcome};

/// Pool workers of the report workload.
pub const REPORT_THREADS: usize = 2;

/// Generates one report the way `regenerate` does on a fresh process:
/// the model cache on but empty, so every model is trained once and
/// shared from then on.
///
/// # Errors
///
/// The first failing experiment.
pub fn fresh_report(corpus: &Corpus) -> Result<FullReport, String> {
    detdiv_cache::set_enabled(true);
    detdiv_cache::global().clear();
    detdiv_cache::global().reset_stats();
    FullReport::generate_on(corpus).map_err(|e| format!("report: {e}"))
}

/// The `report` workload.
///
/// # Errors
///
/// Synthesis failures.
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (corpus, setup_s) = timed_setup(process_start, crate::synthesize)?;
    detdiv_par::global().set_threads(Some(REPORT_THREADS));
    let mut outcome = Outcome::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    timed_rounds(args.seconds, |_| {
        let started = Instant::now();
        let report = fresh_report(&corpus);
        let wall = started.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                let operations = report_operations(&report);
                let (failed, errors) = check_report(&report);
                outcome.absorb(operations, failed, errors);
                walls.push(wall);
                rates.push(operations as f64 / wall);
            }
            Err(e) => outcome.absorb(1, 1, vec![e]),
        }
    });
    let mut latencies: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("work_s", median(&mut walls), "s");
    outcome.metric("events_per_s", median(&mut rates), "1/s");
    outcome.metric("latency_p50_us", median(&mut latencies), "us");
    Ok(outcome)
}
