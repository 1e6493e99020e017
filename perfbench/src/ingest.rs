//! The closed-loop ingest workloads, `ingest-gated` and
//! `ingest-overload`, and what they share with `ingest-paced`: the
//! trained tier-2 bank, the stream table and the checking sink.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use detdiv_core::TrainedModel;
use detdiv_guard::{BreakerConfig, DegradationLevel, GuardConfig};
use detdiv_sequence::Symbol;
use detdiv_serve::{
    IngestService, RejectReason, ServeConfig, Tier, Tier1Config, VerdictEvent, VerdictSink,
};
use detdiv_stream::{Ewma, ModelAdapter, SignalContext, StreamDetector};
use detdiv_synth::Corpus;

use crate::checks;
use crate::{
    build_family, ingest_metrics, mix, timed_rounds, timed_setup, Args, Outcome, FAMILIES,
};

/// Detector window of the tier-2 bank: the report's mid-grid window
/// (mid anomaly size 5 of AS 2–9), where Stide's DW ≥ AS rule gives both
/// outcomes over the anomaly sizes.
pub const BANK_WINDOW: usize = 5;

/// Slot of the bank's online EWMA. It has no warmup and sits last, so
/// every event a bank scores yields exactly one verdict from it, after
/// the seven trained slots: the sink counts deliveries by it.
pub const MARKER_SLOT: usize = FAMILIES.len();

/// The seven trained families at [`BANK_WINDOW`], shared by every
/// stream's bank.
#[derive(Clone)]
pub struct Bank {
    /// Trained models, in [`FAMILIES`] order.
    pub models: Vec<Arc<dyn TrainedModel>>,
}

impl std::fmt::Debug for Bank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bank")
            .field("models", &self.models.len())
            .finish()
    }
}

impl Bank {
    /// Trains every family at [`BANK_WINDOW`] on the corpus.
    pub fn train(corpus: &Corpus) -> Bank {
        let models = FAMILIES
            .iter()
            .map(|family| {
                let mut detector = build_family(family, BANK_WINDOW);
                detector.train(corpus.training());
                Arc::from(detector as Box<dyn TrainedModel>)
            })
            .collect();
        Bank { models }
    }

    /// The per-stream bank recipe: one adapter per trained family, then
    /// the marker EWMA.
    pub fn factory(&self) -> impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + 'static {
        let models = self.models.clone();
        move || {
            let mut bank: Vec<Box<dyn StreamDetector>> = models
                .iter()
                .map(|m| Box::new(ModelAdapter::new(Arc::clone(m))) as Box<dyn StreamDetector>)
                .collect();
            bank.push(Box::new(Ewma::new(0.3, 0)));
            bank
        }
    }
}

/// The tier-1 gate of both gated workloads. No warmup, so every event
/// of a quiet stream yields one gate verdict.
pub const TIER1: Tier1Config = Tier1Config {
    alpha: 0.3,
    warmup: 0,
    escalate_score: 0.5,
};

/// One stream in this many carries a planted spike that escalates it to
/// tier 2.
pub const SPIKE_PERIOD: u64 = 257;

/// Sequence number of the planted spike.
pub const SPIKE_SEQ: u64 = 2;

/// Seeded synthetic keyed streams: random 64-bit stream ids, symbols
/// drawn from the corpus alphabet, a constant per-stream value, and a
/// spike on every [`SPIKE_PERIOD`]th stream (from a seeded offset).
#[derive(Debug, Clone)]
pub struct Streams {
    /// Stream id hash of each stream index.
    pub ids: Vec<u64>,
    spike_offset: u64,
    alphabet: u32,
}

impl Streams {
    /// `count` streams from `seed` over an alphabet of `alphabet` symbols.
    pub fn new(seed: u64, count: usize, alphabet: u32) -> Streams {
        let base = mix(seed ^ 0x5ee5_0bad_c0de);
        Streams {
            ids: (0..count as u64).map(|i| mix(base ^ mix(i))).collect(),
            spike_offset: mix(base) % SPIKE_PERIOD,
            alphabet,
        }
    }

    /// Whether stream `i` carries the planted spike.
    pub fn spiked(&self, i: usize) -> bool {
        (i as u64 + self.spike_offset).is_multiple_of(SPIKE_PERIOD)
    }

    /// The symbol of stream `i` at `seq`.
    pub fn symbol(&self, i: usize, seq: u64) -> Symbol {
        Symbol::new((mix(self.ids[i] ^ seq) % u64::from(self.alphabet)) as u32)
    }

    /// The event of stream `i` at `seq`.
    pub fn event(&self, i: usize, seq: u64) -> SignalContext {
        let id = self.ids[i];
        let value = if seq == SPIKE_SEQ && self.spiked(i) {
            1000.0
        } else {
            1.0 + (id % 8) as f64 * 0.125
        };
        SignalContext::new(seq, id, self.symbol(i, seq), value)
    }
}

/// Maps stream id hashes to stream indices: open addressing over a
/// power-of-two table, read-only once built.
#[derive(Debug)]
pub struct StreamTable {
    keys: Vec<u64>,
    slots: Vec<u32>,
    shift: u32,
}

impl StreamTable {
    /// A table over `ids`; index `i` maps back to `ids[i]`.
    ///
    /// # Errors
    ///
    /// When two streams share an id.
    pub fn new(ids: &[u64]) -> Result<StreamTable, String> {
        let bits = (ids.len().max(1) * 2)
            .next_power_of_two()
            .trailing_zeros()
            .max(1);
        let mut table = StreamTable {
            keys: vec![0; 1 << bits],
            slots: vec![u32::MAX; 1 << bits],
            shift: 64 - bits,
        };
        for (i, &id) in ids.iter().enumerate() {
            let mut at = table.home(id);
            while table.slots[at] != u32::MAX {
                if table.keys[at] == id {
                    return Err(format!("streams {} and {i} share an id", table.slots[at]));
                }
                at = (at + 1) & (table.keys.len() - 1);
            }
            table.keys[at] = id;
            table.slots[at] = i as u32;
        }
        Ok(table)
    }

    fn home(&self, id: u64) -> usize {
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The index of stream `id`, if it is in the table.
    pub fn get(&self, id: u64) -> Option<usize> {
        let mut at = self.home(id);
        loop {
            match self.slots[at] {
                u32::MAX => return None,
                i if self.keys[at] == id => return Some(i as usize),
                _ => at = (at + 1) & (self.keys.len() - 1),
            }
        }
    }
}

#[derive(Debug, Default)]
struct StreamCell {
    /// Order key of the last verdict + 1 (0: none yet).
    last: AtomicU64,
    delivered: AtomicU64,
    disorder: AtomicU64,
    /// Bit 0: a tier-2 verdict arrived; bit 1: a nonzero gate score.
    flags: AtomicU64,
}

const ESCALATED: u64 = 1;
const GATE_NONZERO: u64 = 2;

/// Order of a verdict within its stream: sequence number, then tier
/// (gate before model), then slot.
fn order_key(event: &VerdictEvent) -> u64 {
    let tier = match event.tier {
        Tier::Gate => 0,
        Tier::Model => 1,
    };
    (event.seq << 8) | (tier << 7) | (event.slot as u64 & 0x7f)
}

/// A verdict sink that checks delivery as verdicts arrive: each stream's
/// verdicts must come in strictly increasing (seq, tier, slot) order,
/// and the first verdict of a new seq counts that event as delivered.
/// It also keeps the tier-2 scores of selected streams, per-shard
/// digests (for the width-invariance tests) and sampled latencies.
#[derive(Debug)]
pub struct CheckingSink {
    table: StreamTable,
    cells: Vec<StreamCell>,
    kept: Vec<u32>,
    scores: Vec<Mutex<Vec<(u64, u8, u64)>>>,
    digests: Vec<AtomicU64>,
    unknown: AtomicU64,
    latency_every: usize,
    latencies: Mutex<Vec<u64>>,
}

/// What one stream's verdicts showed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Distinct events delivered.
    pub delivered: u64,
    /// Verdicts out of order (or repeated).
    pub disorder: u64,
    /// Sequence number of the last event delivered, if any.
    pub last_seq: Option<u64>,
    /// Whether a tier-2 verdict arrived.
    pub escalated: bool,
    /// Whether a gate verdict scored above 0.
    pub gate_nonzero: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl CheckingSink {
    /// A sink over `ids` for a service of `shards` shards, keeping the
    /// tier-2 scores of the streams in `keep` and the latency of every
    /// `latency_every`th stream's deliveries (0: none).
    ///
    /// # Errors
    ///
    /// When two streams share an id.
    pub fn new(
        ids: &[u64],
        shards: usize,
        keep: &[usize],
        latency_every: usize,
    ) -> Result<CheckingSink, String> {
        let mut kept = vec![u32::MAX; ids.len()];
        for (k, &i) in keep.iter().enumerate() {
            kept[i] = k as u32;
        }
        Ok(CheckingSink {
            table: StreamTable::new(ids)?,
            cells: (0..ids.len()).map(|_| StreamCell::default()).collect(),
            kept,
            scores: keep.iter().map(|_| Mutex::new(Vec::new())).collect(),
            digests: (0..shards).map(|_| AtomicU64::new(FNV_OFFSET)).collect(),
            unknown: AtomicU64::new(0),
            latency_every,
            latencies: Mutex::new(Vec::new()),
        })
    }

    /// Clears every record for the next round.
    pub fn reset(&mut self) {
        for cell in &mut self.cells {
            *cell = StreamCell::default();
        }
        for s in &mut self.scores {
            s.get_mut().expect("score lock poisoned").clear();
        }
        for d in &mut self.digests {
            *d.get_mut() = FNV_OFFSET;
        }
        *self.unknown.get_mut() = 0;
        self.latencies
            .get_mut()
            .expect("latency lock poisoned")
            .clear();
    }

    /// What stream `i`'s verdicts showed.
    pub fn delivery(&self, i: usize) -> Delivery {
        let cell = &self.cells[i];
        let last = cell.last.load(Ordering::Relaxed);
        let flags = cell.flags.load(Ordering::Relaxed);
        Delivery {
            delivered: cell.delivered.load(Ordering::Relaxed),
            disorder: cell.disorder.load(Ordering::Relaxed),
            last_seq: (last > 0).then(|| (last - 1) >> 8),
            escalated: flags & ESCALATED != 0,
            gate_nonzero: flags & GATE_NONZERO != 0,
        }
    }

    /// Events delivered over all streams.
    pub fn delivered(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.delivered.load(Ordering::Relaxed))
            .sum()
    }

    /// Verdicts for streams outside the table.
    pub fn unknown(&self) -> u64 {
        self.unknown.load(Ordering::Relaxed)
    }

    /// Tier-2 scores of the `k`th kept stream for `slot`, in seq order.
    pub fn kept_scores(&self, k: usize, slot: usize) -> Vec<f64> {
        let mut rows: Vec<(u64, u8, u64)> = self.scores[k]
            .lock()
            .expect("score lock poisoned")
            .iter()
            .copied()
            .filter(|&(_, s, _)| usize::from(s) == slot)
            .collect();
        rows.sort_unstable();
        rows.into_iter()
            .map(|(_, _, bits)| f64::from_bits(bits))
            .collect()
    }

    /// The per-shard digests folded in shard order: equal at every
    /// worker count, because each shard's verdict order is.
    pub fn digest(&self) -> u64 {
        self.digests
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv(h, d.load(Ordering::Relaxed)))
    }

    /// Sampled enqueue-to-verdict latencies, in nanoseconds.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.latencies.lock().expect("latency lock poisoned"))
    }
}

impl VerdictSink for CheckingSink {
    fn on_verdict(&self, event: &VerdictEvent) {
        // One worker drains a shard at a time and the pool joins between
        // drains, so each shard digest and stream cell has one writer at
        // a time: plain loads and stores suffice.
        let digest = &self.digests[event.shard];
        let mut h = digest.load(Ordering::Relaxed);
        for word in [
            event.stream_hash,
            event.seq,
            event.slot as u64,
            event.result.score.to_bits(),
        ] {
            h = fnv(h, word);
        }
        digest.store(h, Ordering::Relaxed);
        let Some(i) = self.table.get(event.stream_hash) else {
            self.unknown.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let cell = &self.cells[i];
        let key = order_key(event) + 1;
        let last = cell.last.load(Ordering::Relaxed);
        if key <= last {
            cell.disorder.fetch_add(1, Ordering::Relaxed);
            return;
        }
        cell.last.store(key, Ordering::Relaxed);
        let new_event = last == 0 || (last - 1) >> 8 != event.seq;
        if new_event {
            cell.delivered.fetch_add(1, Ordering::Relaxed);
            if self.latency_every > 0 && i.is_multiple_of(self.latency_every) {
                self.latencies
                    .lock()
                    .expect("latency lock poisoned")
                    .push(event.latency.as_nanos() as u64);
            }
        }
        match event.tier {
            Tier::Gate if event.result.score != 0.0 => {
                cell.flags.fetch_or(GATE_NONZERO, Ordering::Relaxed);
            }
            Tier::Gate => {}
            Tier::Model => {
                cell.flags.fetch_or(ESCALATED, Ordering::Relaxed);
                let k = self.kept[i];
                if k != u32::MAX && event.slot < MARKER_SLOT {
                    self.scores[k as usize]
                        .lock()
                        .expect("score lock poisoned")
                        .push((event.seq, event.slot as u8, event.result.score.to_bits()));
                }
            }
        }
    }
}

/// Shape of the `ingest-gated` workload.
#[derive(Debug, Clone, Copy)]
pub struct GatedShape {
    /// Distinct streams.
    pub streams: usize,
    /// Events per stream per round.
    pub events: u64,
    /// Service shards.
    pub shards: usize,
    /// Per-shard queue bound.
    pub queue: usize,
    /// Pool workers.
    pub threads: usize,
}

/// The benchmark's gated shape: 100,000 streams keep about 8 MB of gate
/// state and up to 256k queued events (12 MB) live, far beyond L2.
pub const GATED: GatedShape = GatedShape {
    streams: 100_000,
    events: 8,
    shards: 64,
    queue: 4096,
    threads: 2,
};

/// Sample the latency of every this-many-th stream's deliveries.
pub const LATENCY_EVERY: usize = 61;

/// Ingest set-up: corpus, trained bank and seeded streams.
#[derive(Debug)]
pub struct IngestSetup {
    /// The corpus the bank was trained on.
    pub corpus: Corpus,
    /// The trained bank.
    pub bank: Bank,
}

/// Synthesizes the corpus and trains the bank.
///
/// # Errors
///
/// Synthesis failures.
pub fn ingest_setup() -> Result<IngestSetup, String> {
    let corpus = crate::synthesize()?;
    let bank = Bank::train(&corpus);
    Ok(IngestSetup { corpus, bank })
}

/// Timing and counters of one closed-loop round.
#[derive(Debug, Default, Clone)]
pub struct RoundStats {
    /// First offer to last verdict.
    pub wall_s: f64,
    /// Events offered.
    pub offered: u64,
    /// Refusals absorbed by draining and retrying.
    pub rejects: u64,
    /// Drain calls.
    pub drains: u64,
    /// Time inside drain calls.
    pub drain_s: f64,
    /// Time inside enqueue calls (traced rounds only).
    pub enqueue_s: f64,
    /// Enqueue calls (traced rounds only).
    pub enqueues: u64,
}

/// Offers every event of `streams` (seq-major, as a log shipper
/// round-robins its sources) from one thread, draining whenever an
/// enqueue is refused, then drains the rest. `timed` adds per-call
/// timing of enqueue and drain for the traced run.
pub fn closed_loop_round(
    service: &IngestService,
    streams: &Streams,
    events: u64,
    sink: &impl VerdictSink,
    timed: bool,
) -> RoundStats {
    let mut stats = RoundStats::default();
    let drain = |stats: &mut RoundStats| {
        let t = timed.then(Instant::now);
        service.drain(sink);
        stats.drains += 1;
        if let Some(t) = t {
            stats.drain_s += t.elapsed().as_secs_f64();
        }
    };
    let started = Instant::now();
    for seq in 0..events {
        for i in 0..streams.ids.len() {
            let ctx = streams.event(i, seq);
            stats.offered += 1;
            loop {
                let t = timed.then(Instant::now);
                let accepted = service.enqueue(ctx).is_ok();
                if let Some(t) = t {
                    stats.enqueue_s += t.elapsed().as_secs_f64();
                    stats.enqueues += 1;
                }
                if accepted {
                    break;
                }
                stats.rejects += 1;
                drain(&mut stats);
            }
        }
    }
    drain(&mut stats);
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

/// A gated service over the bank.
pub fn gated_service(bank: &Bank, shape: &GatedShape) -> IngestService {
    let config = ServeConfig::new(shape.shards, shape.queue).gated(TIER1);
    IngestService::new(config, bank.factory())
}

/// The streams that carry a spike.
pub fn spiked_streams(streams: &Streams) -> Vec<usize> {
    (0..streams.ids.len())
        .filter(|&i| streams.spiked(i))
        .collect()
}

/// Checks a gated round: every event delivered once and in order, the
/// escalated set equal to the spiked streams, quiet gates at 0, and
/// every kept stream's tier-2 scores bit-equal to the same models'
/// batch scores over its escalated suffix. Returns (failed events,
/// errors).
pub fn check_gated(
    service: &IngestService,
    streams: &Streams,
    events: u64,
    sink: &CheckingSink,
    bank: &Bank,
    kept: &[usize],
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0u64;
    if service.pending() > 0 {
        errors.push(format!("{} events left queued", service.pending()));
    }
    if sink.unknown() > 0 {
        failed += sink.unknown();
        errors.push(format!("{} verdicts for unknown streams", sink.unknown()));
    }
    for i in 0..streams.ids.len() {
        let d = sink.delivery(i);
        let mut wrong = Vec::new();
        if d.delivered != events || d.last_seq != Some(events - 1) {
            wrong.push(format!(
                "{} of {events} events delivered (last seq {:?})",
                d.delivered, d.last_seq
            ));
        }
        if d.disorder > 0 {
            wrong.push(format!("{} verdicts out of order", d.disorder));
        }
        if d.escalated != streams.spiked(i) {
            wrong.push(format!(
                "escalated {} but spiked {}",
                d.escalated,
                streams.spiked(i)
            ));
        }
        if !streams.spiked(i) && d.gate_nonzero {
            wrong.push("quiet stream has a nonzero gate score".to_owned());
        }
        if !wrong.is_empty() {
            failed += events.abs_diff(d.delivered).max(1) + d.disorder;
            if errors.len() < 16 {
                errors.push(format!("stream {i}: {}", wrong.join("; ")));
            }
        }
    }
    // Tier-2 scores: the bank sees the stream from the spike on.
    for (k, &i) in kept.iter().enumerate() {
        let suffix: Vec<Symbol> = (SPIKE_SEQ..events).map(|q| streams.symbol(i, q)).collect();
        for (slot, model) in bank.models.iter().enumerate() {
            let label = format!("stream {i} {}", FAMILIES[slot]);
            let (wrong, errs) = checks::check_scores_bit_equal(
                &label,
                &sink.kept_scores(k, slot),
                &model.scores(&suffix),
            );
            failed += wrong;
            errors.extend(errs);
        }
    }
    (failed, errors)
}

/// The `ingest-gated` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run_gated(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let shape = GATED;
    let ((setup, streams, mut sink, mut service), setup_s) = timed_setup(process_start, || {
        let setup = ingest_setup()?;
        let streams = Streams::new(args.seed, shape.streams, setup.corpus.alphabet().size());
        let kept = spiked_streams(&streams);
        let sink = CheckingSink::new(&streams.ids, shape.shards, &kept, LATENCY_EVERY)?;
        let service = gated_service(&setup.bank, &shape);
        Ok((setup, streams, sink, service))
    })?;
    detdiv_par::global().set_threads(Some(shape.threads));
    let kept = spiked_streams(&streams);
    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let rounds = timed_rounds(args.seconds, |round| {
        if round > 0 {
            sink.reset();
            service = gated_service(&setup.bank, &shape);
        }
        let stats = closed_loop_round(&service, &streams, shape.events, &sink, false);
        let (failed, errors) =
            check_gated(&service, &streams, shape.events, &sink, &setup.bank, &kept);
        outcome.absorb(stats.offered, failed, errors);
        latencies.extend(sink.take_latencies());
        stats
    });
    let mut walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let mut rates: Vec<f64> = rounds.iter().map(|r| r.offered as f64 / r.wall_s).collect();
    ingest_metrics(
        &mut outcome,
        setup_s,
        &mut walls,
        &mut rates,
        &mut latencies,
    );
    Ok(outcome)
}

/// Shape of the `ingest-overload` workload.
#[derive(Debug, Clone, Copy)]
pub struct OverloadShape {
    /// Distinct streams.
    pub streams: usize,
    /// Events per stream per round.
    pub events: u64,
    /// Service shards.
    pub shards: usize,
    /// Per-shard queue bound.
    pub queue: usize,
    /// Pool workers.
    pub threads: usize,
    /// Guard byte budget; `None` lifts it (no hibernation).
    pub budget: Option<u64>,
}

/// The benchmark's overload shape. The budget holds a quarter of the
/// streams' gate state (64 B each in the guard's model), so idle
/// streams hibernate and rehydrate throughout.
pub const OVERLOAD: OverloadShape = OverloadShape {
    streams: 20_000,
    events: 16,
    shards: 16,
    queue: 1024,
    threads: 2,
    budget: Some(20_000 * 64 / 4),
};

/// Counts of one overload round, taken at the benchmark's producer.
#[derive(Debug, Default, Clone)]
pub struct OverloadStats {
    /// First offer to the end of recovery.
    pub wall_s: f64,
    /// Events offered.
    pub offered: u64,
    /// Refused with a typed `Shedding`.
    pub shed_guard: u64,
    /// Refused with a typed `QueueFull`.
    pub shed_queue: u64,
    /// Drain calls, including recovery.
    pub drains: u64,
    /// Recovery drains after the offered load ended.
    pub recovery_cycles: u64,
    /// Events accepted per stream.
    pub accepted: Vec<u32>,
}

/// A guarded gated service spilling to `spill_dir`.
///
/// # Errors
///
/// Spill directory creation failures.
pub fn overload_service(
    bank: &Bank,
    shape: &OverloadShape,
    spill_dir: Option<PathBuf>,
) -> Result<IngestService, String> {
    let config = ServeConfig::new(shape.shards, shape.queue).gated(TIER1);
    let guard = GuardConfig {
        budget_bytes: shape.budget,
        spill_dir,
        breaker: BreakerConfig {
            failure_threshold: 1,
            open_cycles: 2,
        },
        ..GuardConfig::default()
    };
    IngestService::with_guard(config, guard, bank.factory()).map_err(|e| format!("guard: {e}"))
}

/// Offers load in deterministic waves, as `loadgen --overload` does:
/// eight paced quarter-fill waves, each drained at once, then two
/// bursts of two queue generations per drain with a cool-down to
/// `Full`, repeated until every event is offered; then drains until
/// every queue is empty and every ladder is `Full`. Refused events are
/// counted, never retried.
pub fn overload_round(
    service: &IngestService,
    streams: &Streams,
    shape: &OverloadShape,
    sink: &CheckingSink,
) -> OverloadStats {
    let total = streams.ids.len() as u64 * shape.events;
    let capacity = (shape.shards * shape.queue) as u64;
    let mut stats = OverloadStats {
        accepted: vec![0; streams.ids.len()],
        ..OverloadStats::default()
    };
    let all_full = |s: &IngestService| {
        s.guard_levels()
            .iter()
            .all(|l| *l == DegradationLevel::Full)
    };
    let started = Instant::now();
    let mut k = 0u64;
    let mut wave = 0u64;
    while k < total {
        let burst = wave % 2 == 1;
        let rounds: &[u64] = if burst {
            &[2 * capacity, 2 * capacity]
        } else {
            &[capacity / 4; 8]
        };
        for &round in rounds {
            let end = (k + round).min(total);
            while k < end {
                let (seq, i) = (
                    k / streams.ids.len() as u64,
                    (k % streams.ids.len() as u64) as usize,
                );
                stats.offered += 1;
                match service.enqueue(streams.event(i, seq)) {
                    Ok(()) => stats.accepted[i] += 1,
                    Err(RejectReason::Shedding { .. }) => stats.shed_guard += 1,
                    Err(RejectReason::QueueFull { .. }) => stats.shed_queue += 1,
                }
                k += 1;
            }
            service.drain(sink);
            stats.drains += 1;
        }
        if burst {
            let mut cool = 0;
            while !all_full(service) && cool < 64 {
                service.drain(sink);
                stats.drains += 1;
                cool += 1;
            }
        }
        wave += 1;
    }
    while (service.pending() > 0 || !all_full(service)) && stats.recovery_cycles < 4096 {
        service.drain(sink);
        stats.drains += 1;
        stats.recovery_cycles += 1;
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

/// Checks an overload round: per stream, every accepted event delivered
/// once and in order; in total, offered = delivered + shed; every ladder
/// at `Full`; the resident peak within budget.
pub fn check_overload_round(
    service: &IngestService,
    stats: &OverloadStats,
    sink: &CheckingSink,
    budget: Option<u64>,
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0u64;
    for (i, &accepted) in stats.accepted.iter().enumerate() {
        let d = sink.delivery(i);
        if d.delivered != u64::from(accepted) || d.disorder > 0 {
            failed += u64::from(accepted).abs_diff(d.delivered) + d.disorder;
            if errors.len() < 16 {
                errors.push(format!(
                    "stream {i}: {} of {accepted} accepted events delivered, {} out of order",
                    d.delivered, d.disorder
                ));
            }
        }
    }
    let peak = service
        .guard_stats()
        .map(|g| g.resident_peak.load(Ordering::Relaxed))
        .unwrap_or(0);
    let (f, errs) = checks::check_overload(
        stats.offered,
        sink.delivered(),
        stats.shed_guard + stats.shed_queue,
        &service.guard_levels(),
        peak,
        budget.unwrap_or(u64::MAX),
    );
    errors.extend(errs);
    (failed + f, errors)
}

/// A per-process spill directory inside the working directory.
pub fn spill_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("spill-{}", std::process::id()))
}

/// Removes a [`spill_root`], and its parent once no other run uses it.
pub fn remove_spill_root(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// The `ingest-overload` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run_overload(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let shape = OVERLOAD;
    let root = spill_root();
    let ((setup, streams, mut sink), setup_s) = timed_setup(process_start, || {
        let setup = ingest_setup()?;
        let streams = Streams::new(args.seed, shape.streams, setup.corpus.alphabet().size());
        let sink = CheckingSink::new(&streams.ids, shape.shards, &[], LATENCY_EVERY)?;
        remove_spill_root(&root);
        drop(overload_service(
            &setup.bank,
            &shape,
            Some(root.join("setup")),
        )?);
        Ok((setup, streams, sink))
    })?;
    detdiv_par::global().set_threads(Some(shape.threads));
    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut setup_error = None;
    timed_rounds(args.seconds, |round| {
        sink.reset();
        let dir = root.join(format!("round-{round}"));
        let service = match overload_service(&setup.bank, &shape, Some(dir)) {
            Ok(s) => s,
            Err(e) => {
                setup_error = Some(e);
                return;
            }
        };
        let stats = overload_round(&service, &streams, &shape, &sink);
        let (failed, errors) = check_overload_round(&service, &stats, &sink, shape.budget);
        outcome.absorb(stats.offered, failed, errors);
        walls.push(stats.wall_s);
        rates.push(sink.delivered() as f64 / stats.wall_s);
        latencies.extend(sink.take_latencies());
        drop(service);
        let _ = std::fs::remove_dir_all(root.join(format!("round-{round}")));
    });
    remove_spill_root(&root);
    if let Some(e) = setup_error {
        return Err(e);
    }
    ingest_metrics(
        &mut outcome,
        setup_s,
        &mut walls,
        &mut rates,
        &mut latencies,
    );
    Ok(outcome)
}
