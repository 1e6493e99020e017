//! Correctness checks, each computed apart from the code under test:
//! from the paper's stated results, from the benchmark's own counts, or
//! from a second computation (batch scoring) of the same models.
//!
//! Every check returns the list of what it found wrong; an empty list
//! means the output passed. `tests/bench.rs` plants one wrong output per
//! check and asserts it is caught.

use detdiv_core::{CellStatus, CoverageMap};
use detdiv_eval::FullReport;
use detdiv_guard::DegradationLevel;

/// Report steps, in report order, as the traced run names them.
pub const REPORT_STEPS: [&str; 15] = [
    "fig2", "fig3_6", "fig7", "comb1", "comb2", "comb3", "abl1", "abl2", "abl3", "nat1", "ext1",
    "div1", "masq1", "fn1", "ana1",
];

/// The coverage maps of a report whose cells count as operations:
/// Figures 3–6 and the three EXT1 maps.
pub fn report_maps(report: &FullReport) -> [&CoverageMap; 7] {
    [
        &report.fig3,
        &report.fig4,
        &report.fig5,
        &report.fig6,
        &report.ext1.tstide_map,
        &report.ext1.hmm_map,
        &report.ext1.ripper_map,
    ]
}

/// Operations one report attempts: its steps plus its map cells.
pub fn report_operations(report: &FullReport) -> u64 {
    let cells: usize = report_maps(report)
        .iter()
        .map(|m| m.anomaly_sizes().len() * m.windows().len())
        .sum();
    (REPORT_STEPS.len() + cells) as u64
}

fn detects(map: &CoverageMap, anomaly_size: usize, window: usize) -> bool {
    map.get(anomaly_size, window)
        .map(CellStatus::is_detection)
        .unwrap_or(false)
}

/// Checks a report against the paper's results. Returns the number of
/// failed operations (wrong or failed cells, wrong worked examples) and
/// a description of each.
pub fn check_report(report: &FullReport) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let (lb, markov, stide, nn) = (&report.fig3, &report.fig4, &report.fig5, &report.fig6);
    for &window in stide.windows() {
        for &size in stide.anomaly_sizes() {
            if size < 2 {
                continue; // AS = 1 is undefined (§6)
            }
            let mut wrong = Vec::new();
            if detects(stide, size, window) != (window >= size) {
                wrong.push("Stide must detect iff DW >= AS");
            }
            if detects(lb, size, window) {
                wrong.push("L&B registered a maximal response");
            }
            if !detects(markov, size, window) {
                wrong.push("Markov must detect every defined cell");
            }
            if !detects(nn, size, window) {
                wrong.push("NN must detect every defined cell");
            }
            if detects(stide, size, window) && !detects(markov, size, window) {
                wrong.push("Stide is not a subset of Markov");
            }
            if (detects(stide, size, window) || detects(lb, size, window))
                != detects(stide, size, window)
            {
                wrong.push("Stide union L&B differs from Stide");
            }
            if !wrong.is_empty() {
                failed += 1;
                errors.push(format!("cell AS {size} DW {window}: {}", wrong.join("; ")));
            }
        }
    }
    for map in report_maps(report) {
        for (size, window, status) in map.iter() {
            if status == CellStatus::Failed {
                failed += 1;
                errors.push(format!(
                    "{} cell AS {size} DW {window} is marked failed",
                    map.detector()
                ));
            }
        }
    }
    let fig2 = &report.fig2;
    if fig2.boundary_sequences_per_side != fig2.window - 1
        || fig2.span_len != fig2.anomaly_size + fig2.window - 1
    {
        failed += 1;
        errors.push(format!(
            "FIG2 at DW {} AS {}: {} boundary sequences per side, span {}",
            fig2.window, fig2.anomaly_size, fig2.boundary_sequences_per_side, fig2.span_len
        ));
    }
    // L&B similarity of two identical sequences of length w is
    // 1 + 2 + … + w: each position extends the run of matches.
    let fig7 = &report.fig7;
    let identical = (fig7.window * (fig7.window + 1) / 2) as u64;
    if fig7.window != 5 || fig7.sim_identical != identical || identical != 15 {
        failed += 1;
        errors.push(format!(
            "FIG7: Sim of identical size-{} sequences is {}, expected 15",
            fig7.window, fig7.sim_identical
        ));
    }
    (failed, errors)
}

/// Compares served scores with batch scores bit for bit. Returns the
/// number of mismatching positions (a length difference counts each
/// missing or extra position).
pub fn check_scores_bit_equal(label: &str, served: &[f64], batch: &[f64]) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut wrong = served.len().abs_diff(batch.len()) as u64;
    if wrong > 0 {
        errors.push(format!(
            "{label}: {} served scores, {} batch scores",
            served.len(),
            batch.len()
        ));
    }
    for (i, (s, b)) in served.iter().zip(batch).enumerate() {
        if s.to_bits() != b.to_bits() {
            wrong += 1;
            if errors.len() < 8 {
                errors.push(format!("{label}: position {i} served {s:e}, batch {b:e}"));
            }
        }
    }
    (wrong, errors)
}

/// The incident span of an anomaly of `anomaly_size` injected at
/// `injection` into a stream of `len`, as window start positions: every
/// window of `window` elements that overlaps the anomaly (§5.5).
pub fn incident_span(
    len: usize,
    window: usize,
    injection: usize,
    anomaly_size: usize,
) -> std::ops::Range<usize> {
    let first = injection.saturating_sub(window - 1);
    let last = (injection + anomaly_size - 1).min(len.saturating_sub(window));
    first..last + 1
}

/// The largest response inside `span`, or 0 for an empty span.
pub fn span_max(scores: &[f64], span: std::ops::Range<usize>) -> f64 {
    scores
        .get(span)
        .unwrap_or(&[])
        .iter()
        .copied()
        .fold(0.0, f64::max)
}

/// One paced test case's largest in-span responses, by family.
#[derive(Debug, Clone, Copy)]
pub struct CaseResponses {
    /// Anomaly size.
    pub anomaly_size: usize,
    /// Detector window.
    pub window: usize,
    /// Stide's largest in-span response.
    pub stide: f64,
    /// t-stide's.
    pub tstide: f64,
    /// Markov's.
    pub markov: f64,
    /// Markov's maximal-response floor.
    pub markov_floor: f64,
    /// Lane & Brodley's.
    pub lane_brodley: f64,
}

/// Classifies a served case as the paper does: Stide detects iff
/// DW ≥ AS, Markov detects, L&B is never maximal, and t-stide detects
/// wherever Stide does.
pub fn check_case(case: &CaseResponses) -> Vec<String> {
    let mut errors = Vec::new();
    let label = format!("case AS {} DW {}", case.anomaly_size, case.window);
    let stide_detects = case.stide >= 1.0;
    if stide_detects != (case.window >= case.anomaly_size) {
        errors.push(format!("{label}: Stide max {} breaks DW >= AS", case.stide));
    }
    if case.markov < case.markov_floor {
        errors.push(format!(
            "{label}: Markov max {} is not maximal",
            case.markov
        ));
    }
    if case.lane_brodley >= 1.0 {
        errors.push(format!("{label}: L&B registered a maximal response"));
    }
    if stide_detects && case.tstide < 1.0 {
        errors.push(format!("{label}: t-stide misses a Stide detection"));
    }
    errors
}

/// Checks an overload round: no silent drop (counted at the producer
/// and the sink), every ladder back at `Full`, and the guard's resident
/// peak within its budget.
pub fn check_overload(
    offered: u64,
    delivered: u64,
    shed: u64,
    levels: &[DegradationLevel],
    resident_peak: u64,
    budget: u64,
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0;
    if offered != delivered + shed {
        failed += offered.abs_diff(delivered + shed);
        errors.push(format!(
            "offered {offered} != delivered {delivered} + shed {shed}"
        ));
    }
    let stuck = levels
        .iter()
        .filter(|l| **l != DegradationLevel::Full)
        .count();
    if stuck > 0 {
        failed += 1;
        errors.push(format!("{stuck} ladder(s) not back at Full"));
    }
    if resident_peak > budget {
        failed += 1;
        errors.push(format!(
            "resident peak {resident_peak} B over the {budget} B budget"
        ));
    }
    (failed, errors)
}
