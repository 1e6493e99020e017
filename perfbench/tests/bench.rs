//! The benchmark's own tests, at a reduced shape: width invariance of
//! the outputs it measures, and checks that each correctness check
//! catches a planted wrong output.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use detdiv_core::CellStatus;
use detdiv_eval::FullReport;
use detdiv_guard::DegradationLevel;
use detdiv_perfbench::checks::{self, check_report};
use detdiv_perfbench::ingest::{
    check_gated, check_overload_round, closed_loop_round, gated_service, overload_round,
    overload_service, spiked_streams, Bank, CheckingSink, GatedShape, OverloadShape, Streams,
};
use detdiv_perfbench::report::fresh_report;
use detdiv_serve::{VerdictEvent, VerdictSink};
use detdiv_synth::{Corpus, SynthesisConfig};

/// The pool width and the model cache are process-wide: tests that set
/// or use them run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let config = SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=4)
            .windows(2..=5)
            .background_len(512)
            .build()
            .unwrap();
        Corpus::synthesize(&config).unwrap()
    })
}

fn bank() -> &'static Bank {
    static BANK: OnceLock<Bank> = OnceLock::new();
    BANK.get_or_init(|| Bank::train(corpus()))
}

fn report_at(width: usize) -> FullReport {
    detdiv_par::global().set_threads(Some(width));
    let mut report = fresh_report(corpus()).unwrap();
    report.telemetry = Default::default();
    report
}

fn report() -> &'static FullReport {
    static REPORT: OnceLock<FullReport> = OnceLock::new();
    REPORT.get_or_init(|| report_at(1))
}

const GATED: GatedShape = GatedShape {
    streams: 3000,
    events: 8,
    shards: 16,
    queue: 256,
    threads: 1,
};

fn streams(count: usize) -> Streams {
    Streams::new(7, count, corpus().alphabet().size())
}

/// One gated round at `width` workers, optionally dropping the verdicts
/// of one `(stream, seq)` event on their way to the sink.
fn gated_round(width: usize, drop: Option<(u64, u64)>) -> (CheckingSink, u64, Vec<String>) {
    detdiv_par::global().set_threads(Some(width));
    let streams = streams(GATED.streams);
    let kept = spiked_streams(&streams);
    let sink = CheckingSink::new(&streams.ids, GATED.shards, &kept, 0).unwrap();
    let service = gated_service(bank(), &GATED);
    let stats = match drop {
        Some((stream, seq)) => {
            let dropping = Dropping {
                inner: &sink,
                stream,
                seq,
            };
            closed_loop_round(&service, &streams, GATED.events, &dropping, false)
        }
        None => closed_loop_round(&service, &streams, GATED.events, &sink, false),
    };
    assert!(
        stats.rejects > 0,
        "the reduced shape must exercise backpressure"
    );
    let (failed, errors) = check_gated(&service, &streams, GATED.events, &sink, bank(), &kept);
    (sink, failed, errors)
}

/// Forwards every verdict except those of one (stream, seq) event.
struct Dropping<'a> {
    inner: &'a CheckingSink,
    stream: u64,
    seq: u64,
}

impl VerdictSink for Dropping<'_> {
    fn on_verdict(&self, event: &VerdictEvent) {
        if event.stream_hash != self.stream || event.seq != self.seq {
            self.inner.on_verdict(event);
        }
    }
}

const OVERLOAD: OverloadShape = OverloadShape {
    streams: 2000,
    events: 16,
    shards: 8,
    queue: 128,
    threads: 1,
    budget: Some(2000 * 64 / 4),
};

fn spill_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

/// One overload round; returns (digest, shed, hibernated, failed, errors).
fn overload_at(
    width: usize,
    shape: &OverloadShape,
    name: &str,
) -> (u64, u64, u64, u64, Vec<String>) {
    detdiv_par::global().set_threads(Some(width));
    let streams = streams(shape.streams);
    let sink = CheckingSink::new(&streams.ids, shape.shards, &[], 0).unwrap();
    let dir = spill_dir(name);
    let spill = shape.budget.map(|_| dir.clone());
    let service = overload_service(bank(), shape, spill).unwrap();
    let stats = overload_round(&service, &streams, shape, &sink);
    let (failed, errors) = check_overload_round(&service, &stats, &sink, shape.budget);
    let hibernated = service
        .guard_stats()
        .unwrap()
        .shards
        .iter()
        .map(|s| s.hibernated.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    (
        sink.digest(),
        stats.shed_guard + stats.shed_queue,
        hibernated,
        failed,
        errors,
    )
}

#[test]
fn ingest_digests_are_equal_at_one_and_two_workers() {
    let _serial = serial();
    let (one, failed_one, errors_one) = gated_round(1, None);
    let (two, failed_two, errors_two) = gated_round(2, None);
    assert_eq!(
        (failed_one, failed_two),
        (0, 0),
        "{errors_one:?} {errors_two:?}"
    );
    assert_eq!(one.digest(), two.digest());
    assert_eq!(one.delivered(), GATED.streams as u64 * GATED.events);
}

#[test]
fn report_is_byte_equal_at_one_and_two_workers() {
    let _serial = serial();
    let one = report().clone();
    let two = report_at(2);
    assert_eq!(one.render_text(), two.render_text());
    assert_eq!(
        serde_json::to_string(&one).unwrap(),
        serde_json::to_string(&two).unwrap()
    );
}

#[test]
fn overload_digest_is_equal_with_and_without_a_byte_budget() {
    let _serial = serial();
    let budgeted = overload_at(2, &OVERLOAD, "budgeted");
    let lifted = overload_at(
        2,
        &OverloadShape {
            budget: None,
            ..OVERLOAD
        },
        "lifted",
    );
    let narrow = overload_at(1, &OVERLOAD, "narrow");
    for (failed, errors) in [
        (budgeted.3, &budgeted.4),
        (lifted.3, &lifted.4),
        (narrow.3, &narrow.4),
    ] {
        assert_eq!(failed, 0, "{errors:?}");
    }
    assert!(budgeted.2 > 0, "the budget must force hibernation");
    assert_eq!(lifted.2, 0);
    assert!(budgeted.1 > 0, "the waves must force shedding");
    assert_eq!((budgeted.0, budgeted.1), (lifted.0, lifted.1));
    assert_eq!((budgeted.0, budgeted.1), (narrow.0, narrow.1));
}

#[test]
fn report_check_catches_a_flipped_stide_cell() {
    let _serial = serial();
    let good = report();
    assert_eq!(check_report(good), (0, Vec::new()));
    // DW >= AS: Stide must detect. Flip one such cell to blind.
    let mut bad = good.clone();
    bad.fig5.set(3, 4, CellStatus::Blind).unwrap();
    let (failed, errors) = check_report(&bad);
    assert_eq!(failed, 1, "{errors:?}");
    // DW < AS: Stide must stay blind. Flip one such cell to detect.
    let mut bad = good.clone();
    bad.fig5.set(4, 3, CellStatus::Detect).unwrap();
    assert_eq!(check_report(&bad).0, 1);
    // A failed cell anywhere is a failure.
    let mut bad = good.clone();
    bad.ext1.hmm_map.set(2, 2, CellStatus::Failed).unwrap();
    assert_eq!(check_report(&bad).0, 1);
}

#[test]
fn gated_check_catches_an_event_missing_at_the_sink() {
    let _serial = serial();
    let (_, failed, errors) = gated_round(1, None);
    assert_eq!(failed, 0, "{errors:?}");
    let victim = streams(GATED.streams).ids[42];
    let (sink, failed, errors) = gated_round(1, Some((victim, 5)));
    assert_eq!(sink.delivery(42).delivered, GATED.events - 1);
    assert!(failed >= 1 && !errors.is_empty(), "{errors:?}");
}

#[test]
fn score_check_catches_one_ulp() {
    let _serial = serial();
    let (sink, failed, _) = gated_round(1, None);
    assert_eq!(failed, 0);
    let streams = streams(GATED.streams);
    let i = spiked_streams(&streams)[0];
    let suffix: Vec<_> = (2..GATED.events).map(|q| streams.symbol(i, q)).collect();
    let batch = bank().models[2].scores(&suffix);
    let mut served = sink.kept_scores(0, 2);
    assert!(!served.is_empty());
    assert_eq!(
        checks::check_scores_bit_equal("markov", &served, &batch).0,
        0
    );
    let last = served.len() - 1;
    served[last] = f64::from_bits(served[last].to_bits() + 1);
    let (wrong, errors) = checks::check_scores_bit_equal("markov", &served, &batch);
    assert_eq!(wrong, 1, "{errors:?}");
}

#[test]
fn overload_check_catches_a_ladder_left_at_shedding() {
    let full = [DegradationLevel::Full; 4];
    assert_eq!(checks::check_overload(10, 7, 3, &full, 100, 100).0, 0);
    let mut stuck = full;
    stuck[2] = DegradationLevel::Shedding;
    let (failed, errors) = checks::check_overload(10, 7, 3, &stuck, 100, 100);
    assert_eq!(failed, 1, "{errors:?}");
    assert_eq!(checks::check_overload(10, 6, 3, &full, 100, 100).0, 1);
    assert_eq!(checks::check_overload(10, 7, 3, &full, 101, 100).0, 1);
}

#[test]
fn paced_case_check_follows_the_paper() {
    let case = checks::CaseResponses {
        anomaly_size: 4,
        window: 5,
        stide: 1.0,
        tstide: 1.0,
        markov: 1.0,
        markov_floor: 0.995,
        lane_brodley: 0.4,
    };
    assert!(checks::check_case(&case).is_empty());
    assert_eq!(
        checks::check_case(&checks::CaseResponses {
            anomaly_size: 6,
            ..case
        })
        .len(),
        1
    );
    assert_eq!(
        checks::check_case(&checks::CaseResponses {
            tstide: 0.5,
            ..case
        })
        .len(),
        1
    );
    assert_eq!(
        checks::check_case(&checks::CaseResponses {
            lane_brodley: 1.0,
            ..case
        })
        .len(),
        1
    );
    // The span covers AS + DW - 1 windows.
    assert_eq!(checks::incident_span(100, 5, 40, 4), 36..44);
}
