//! The `ingest-paced` workload: an open loop offering the corpus's test
//! cases on a fixed schedule to a fully tiered service, one thread
//! producing and one draining.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use detdiv_sequence::Symbol;
use detdiv_serve::{IngestService, ServeConfig, VerdictEvent, VerdictSink};
use detdiv_stream::SignalContext;

use crate::checks::{self, check_case, incident_span, span_max, CaseResponses};
use crate::ingest::{ingest_setup, IngestSetup, BANK_WINDOW, MARKER_SLOT};
use crate::{ingest_metrics, mix, timed_rounds, timed_setup, Args, Outcome, FAMILIES};

/// Offered rate in events per second, below the service's capacity.
pub const PACED_RATE: f64 = 16_000.0;

/// Service shards.
pub const PACED_SHARDS: usize = 8;

/// Per-shard queue bound: far above what the rate ever queues.
pub const PACED_QUEUE: usize = 4096;

/// One test case: background plus an injected MFS, and the batch scores
/// every bank family gives it.
#[derive(Debug, Clone)]
pub struct Case {
    /// Anomaly size.
    pub anomaly_size: usize,
    /// The test stream.
    pub test: Vec<Symbol>,
    /// Where the anomaly starts.
    pub injection: usize,
    /// `scores()` of each bank family over the whole stream.
    pub batch: Vec<Vec<f64>>,
}

/// Paced set-up: corpus, bank and the batch-scored cases.
#[derive(Debug)]
pub struct PacedSetup {
    /// Corpus and bank.
    pub ingest: IngestSetup,
    /// One case per anomaly size, at [`BANK_WINDOW`].
    pub cases: Vec<Case>,
    /// `(case, position)` of every event in offer order: positions
    /// advance together across the cases.
    pub schedule: Vec<(u8, u32)>,
    /// Offer index of each case's positions.
    pub index: Vec<Vec<u32>>,
}

/// Builds the cases and their schedule.
///
/// # Errors
///
/// Synthesis failures or missing cases.
pub fn paced_setup() -> Result<PacedSetup, String> {
    let ingest = ingest_setup()?;
    let mut cases = Vec::new();
    for anomaly_size in ingest.corpus.config().anomaly_sizes() {
        let case = ingest
            .corpus
            .case(anomaly_size, BANK_WINDOW)
            .map_err(|e| format!("case AS {anomaly_size}: {e}"))?;
        use detdiv_core::LabeledCase;
        let test = case.test_stream().to_vec();
        let batch = ingest.bank.models.iter().map(|m| m.scores(&test)).collect();
        cases.push(Case {
            anomaly_size,
            injection: case.injection_position(),
            test,
            batch,
        });
    }
    let longest = cases.iter().map(|c| c.test.len()).max().unwrap_or(0);
    let mut schedule = Vec::new();
    let mut index: Vec<Vec<u32>> = cases.iter().map(|c| vec![0; c.test.len()]).collect();
    for pos in 0..longest {
        for (c, offers) in index.iter_mut().enumerate() {
            if let Some(slot) = offers.get_mut(pos) {
                *slot = schedule.len() as u32;
                schedule.push((c as u8, pos as u32));
            }
        }
    }
    Ok(PacedSetup {
        ingest,
        cases,
        schedule,
        index,
    })
}

struct Records {
    /// Served tier-2 scores per case and family, in arrival order.
    scores: Vec<Vec<Vec<f64>>>,
    /// Last delivered position + 1 per case (0: none).
    last: Vec<u64>,
    delivered: Vec<u64>,
    disorder: u64,
    unknown: u64,
    /// Time of the latest delivery, ns from the first scheduled offer.
    last_ns: u64,
    /// Scheduled-offer-to-verdict time of each delivered event, ns.
    latency: Vec<u64>,
    queue_wait: Vec<u64>,
    service: Vec<u64>,
}

/// The sink: records every verdict against the schedule.
struct PacedSink<'a> {
    setup: &'a PacedSetup,
    ids: Vec<u64>,
    start: Instant,
    period_ns: f64,
    traced: bool,
    drain_start_ns: AtomicU64,
    enqueued_ns: Vec<AtomicU64>,
    records: Mutex<Records>,
}

impl PacedSink<'_> {
    fn case_of(&self, hash: u64) -> Option<usize> {
        self.ids.iter().position(|&id| id == hash)
    }
}

impl VerdictSink for PacedSink<'_> {
    fn on_verdict(&self, event: &VerdictEvent) {
        let now = self.start.elapsed().as_nanos() as u64;
        let mut r = self.records.lock().expect("records lock poisoned");
        let Some(c) = self.case_of(event.stream_hash) else {
            r.unknown += 1;
            return;
        };
        if event.slot < MARKER_SLOT {
            r.scores[c][event.slot].push(event.result.score);
            return;
        }
        // The marker slot closes the event: every slot has answered.
        if event.seq < r.last[c] {
            r.disorder += 1;
            return;
        }
        r.last[c] = event.seq + 1;
        r.delivered[c] += 1;
        r.last_ns = r.last_ns.max(now);
        let Some(&k) = self.setup.index[c].get(event.seq as usize) else {
            r.unknown += 1;
            return;
        };
        let due = (f64::from(k) * self.period_ns) as u64;
        r.latency.push(now.saturating_sub(due));
        if self.traced {
            let drain = self.drain_start_ns.load(Ordering::Relaxed);
            let enqueued = self.enqueued_ns[k as usize].load(Ordering::Relaxed);
            // An event enqueued after its drain call began waited for
            // nothing; its service starts at its enqueue.
            r.queue_wait.push(drain.saturating_sub(enqueued));
            r.service.push(now.saturating_sub(drain.max(enqueued)));
        }
    }
}

/// What one paced round measured and found.
#[derive(Debug, Default, Clone)]
pub struct PacedRound {
    /// First scheduled offer to the last verdict.
    pub wall_s: f64,
    /// Events offered.
    pub offered: u64,
    /// Events delivered (marker verdicts).
    pub delivered: u64,
    /// Scheduled-offer-to-verdict times, ns.
    pub latency: Vec<u64>,
    /// Enqueue-to-drain-start times, ns (traced only).
    pub queue_wait: Vec<u64>,
    /// Drain-start (or later enqueue) to verdict times, ns (traced only).
    pub service: Vec<u64>,
    /// How late the generator offered its latest event, ns.
    pub late_max_ns: u64,
    /// Failed operations.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
}

/// Runs one paced round: every case as its own stream (fresh ids per
/// round), offered at [`PACED_RATE`] by this thread while a second
/// thread drains continuously.
pub fn paced_round(setup: &PacedSetup, seed: u64, round: u64, traced: bool) -> PacedRound {
    let service = IngestService::new(
        ServeConfig::new(PACED_SHARDS, PACED_QUEUE),
        setup.ingest.bank.factory(),
    );
    let ids: Vec<u64> = (0..setup.cases.len() as u64)
        .map(|c| mix(mix(seed ^ 0x9ace_d00d) ^ (round << 8 | c)))
        .collect();
    let total = setup.schedule.len();
    let sink = PacedSink {
        setup,
        ids,
        start: Instant::now(),
        period_ns: 1e9 / PACED_RATE,
        traced,
        drain_start_ns: AtomicU64::new(0),
        enqueued_ns: (0..if traced { total } else { 0 })
            .map(|_| AtomicU64::new(0))
            .collect(),
        records: Mutex::new(Records {
            scores: setup
                .cases
                .iter()
                .map(|c| vec![Vec::with_capacity(c.test.len()); FAMILIES.len()])
                .collect(),
            last: vec![0; setup.cases.len()],
            delivered: vec![0; setup.cases.len()],
            disorder: 0,
            unknown: 0,
            last_ns: 0,
            latency: Vec::with_capacity(total),
            queue_wait: Vec::with_capacity(if traced { total } else { 0 }),
            service: Vec::with_capacity(if traced { total } else { 0 }),
        }),
    };
    let done = AtomicBool::new(false);
    let mut refused = 0u64;
    let mut late_max_ns = 0u64;
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            // Drain as soon as anything is queued. An empty drain call
            // costs tens of microseconds, so draining only when work is
            // pending keeps each verdict to one wake-up and one call.
            while !done.load(Ordering::Relaxed) {
                if service.pending() == 0 {
                    std::hint::spin_loop();
                    continue;
                }
                if traced {
                    let at = sink.start.elapsed().as_nanos() as u64;
                    sink.drain_start_ns.store(at, Ordering::Relaxed);
                }
                service.drain(&sink);
            }
            service.drain(&sink);
        });
        for (k, &(c, pos)) in setup.schedule.iter().enumerate() {
            let due = (k as f64 * sink.period_ns) as u64;
            let mut now = sink.start.elapsed().as_nanos() as u64;
            while now < due {
                if due - now > 200_000 {
                    std::thread::sleep(Duration::from_nanos(due - now - 100_000));
                } else {
                    std::hint::spin_loop();
                }
                now = sink.start.elapsed().as_nanos() as u64;
            }
            late_max_ns = late_max_ns.max(now - due);
            let case = &setup.cases[c as usize];
            let ctx = SignalContext::from_symbol(
                u64::from(pos),
                sink.ids[c as usize],
                case.test[pos as usize],
            );
            // Stamped before the call: the shard lock the enqueue takes
            // then publishes the stamp to the drainer that pops the event.
            if traced {
                let at = sink.start.elapsed().as_nanos() as u64;
                sink.enqueued_ns[k].store(at, Ordering::Relaxed);
            }
            if service.enqueue(ctx).is_err() {
                refused += 1;
            }
        }
        // Wait for the last verdict, then stop the drainer.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let delivered: u64 = sink
                .records
                .lock()
                .expect("records lock poisoned")
                .delivered
                .iter()
                .sum();
            if delivered + refused >= total as u64 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        done.store(true, Ordering::Relaxed);
        drainer.join().expect("drain thread panicked");
    });
    let records = sink.records.into_inner().expect("records lock poisoned");
    let mut out = PacedRound {
        wall_s: records.last_ns as f64 / 1e9,
        offered: total as u64,
        delivered: records.delivered.iter().sum(),
        late_max_ns,
        ..PacedRound::default()
    };
    check_paced(setup, &records, refused, &mut out);
    out.latency = records.latency;
    out.queue_wait = records.queue_wait;
    out.service = records.service;
    out
}

fn check_paced(setup: &PacedSetup, records: &Records, refused: u64, out: &mut PacedRound) {
    if refused > 0 {
        out.failed += refused;
        out.errors.push(format!("{refused} events refused"));
    }
    if records.disorder + records.unknown > 0 {
        out.failed += records.disorder + records.unknown;
        out.errors.push(format!(
            "{} verdicts out of order, {} for unknown streams",
            records.disorder, records.unknown
        ));
    }
    for (c, case) in setup.cases.iter().enumerate() {
        let missing = (case.test.len() as u64).saturating_sub(records.delivered[c]);
        if missing > 0 {
            out.failed += missing;
            out.errors.push(format!(
                "case AS {}: {missing} events never delivered",
                case.anomaly_size
            ));
        }
        for (f, family) in FAMILIES.iter().enumerate() {
            let label = format!("case AS {} {family}", case.anomaly_size);
            let (wrong, errors) =
                checks::check_scores_bit_equal(&label, &records.scores[c][f], &case.batch[f]);
            out.failed += wrong;
            out.errors.extend(errors);
        }
        let span = incident_span(
            case.test.len(),
            BANK_WINDOW,
            case.injection,
            case.anomaly_size,
        );
        let served = |f: usize| span_max(&records.scores[c][f], span.clone());
        let responses = CaseResponses {
            anomaly_size: case.anomaly_size,
            window: BANK_WINDOW,
            stide: served(0),
            tstide: served(1),
            markov: served(2),
            markov_floor: setup.ingest.bank.models[2].maximal_response_floor(),
            lane_brodley: served(3),
        };
        let errors = check_case(&responses);
        if !errors.is_empty() {
            out.failed += 1;
            out.errors.extend(errors);
        }
    }
}

/// The `ingest-paced` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (setup, setup_s) = timed_setup(process_start, paced_setup)?;
    detdiv_par::global().set_threads(Some(1));
    let mut outcome = Outcome::default();
    let mut latency = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    timed_rounds(args.seconds, |round| {
        let r = paced_round(&setup, args.seed, round, false);
        outcome.absorb(r.offered, r.failed, r.errors);
        walls.push(r.wall_s);
        rates.push(r.delivered as f64 / r.wall_s);
        latency.extend(r.latency);
    });
    ingest_metrics(&mut outcome, setup_s, &mut walls, &mut rates, &mut latency);
    Ok(outcome)
}
