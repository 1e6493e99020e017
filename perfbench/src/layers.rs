//! The traced run: the per-layer table.
//!
//! Every layer is timed from this crate, around calls into the layer's
//! public functions, so the program under test is unchanged. The table
//! is the same whichever workload is named: each layer metric belongs
//! to one workload (see `README.md`), and one traced run measures them
//! all. Allocation counts need the `perfbench-traced` binary, which
//! installs [`crate::alloc::CountingAlloc`].

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

use detdiv_eval::{
    abl1_maximal_response_semantics, abl2_locality_frame_count, abl3_nn_sensitivity,
    ana1_response_map, comb1_stide_markov_subset, comb2_stide_lb_union, comb3_suppression,
    div1_diversity_matrix, ext1_extended_families, fig2_incident_span, fig7_similarity,
    fn1_threshold_sweeps, masq1_lane_brodley_masquerade, nat1_census, paper_coverage_maps,
    DetectorKind, FullReport, HarnessError, SuppressionConfig,
};
use detdiv_obs::TelemetrySnapshot;
use detdiv_stream::{Ewma, StreamDetector, StreamEngine};
use detdiv_synth::Corpus;

use crate::alloc;
use crate::checks::{check_report, report_operations};
use crate::ingest::{
    check_gated, check_overload_round, closed_loop_round, gated_service, overload_round,
    overload_service, remove_spill_root, spiked_streams, spill_root, CheckingSink, Streams,
    BANK_WINDOW, GATED, OVERLOAD,
};
use crate::paced::{paced_round, paced_setup};
use crate::report::REPORT_THREADS;
use crate::{build_family, percentile_us, Args, Outcome, FAMILIES};

/// Runs every layer probe and returns the per-layer table.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let corpus = crate::synthesize()?;
    out.metric("synth.synthesize_s", started.elapsed().as_secs_f64(), "s");
    report_steps(&corpus, &mut out)?;
    detector_table(&corpus, &mut out);
    let setup = paced_setup()?;
    serve_gated(args, &setup.ingest, &mut out)?;
    stream_replay(args, &setup.ingest.corpus, &mut out);
    serve_paced(args, &setup, &mut out);
    for (f, model) in setup.ingest.bank.models.iter().enumerate() {
        let mut calls = 0u64;
        let t = Instant::now();
        for case in &setup.cases {
            for window in case.test.windows(BANK_WINDOW) {
                black_box(model.score_one(black_box(window)));
                calls += 1;
            }
        }
        out.metric(
            format!("detectors.{}.score_one_ns", FAMILIES[f]),
            t.elapsed().as_nanos() as f64 / calls as f64,
            "ns",
        );
    }
    serve_overload(args, &setup.ingest, &mut out)?;
    Ok(out)
}

fn timed<T>(
    out: &mut Outcome,
    step: &str,
    f: impl FnOnce() -> Result<T, HarnessError>,
) -> Result<T, String> {
    let t = Instant::now();
    let result = f();
    out.metric(format!("eval.{step}_s"), t.elapsed().as_secs_f64(), "s");
    result.map_err(|e| format!("{step}: {e}"))
}

/// Calls each report step on its own, in report order and with the
/// report's arguments, on a fresh cache at the report's width; then
/// checks the assembled report like the `report` workload does.
fn report_steps(corpus: &Corpus, out: &mut Outcome) -> Result<(), String> {
    detdiv_par::global().set_threads(Some(REPORT_THREADS));
    detdiv_par::global().reset_stats();
    detdiv_obs::reset();
    detdiv_cache::set_enabled(true);
    detdiv_cache::global().clear();
    detdiv_cache::global().reset_stats();
    let config = corpus.config().clone();
    let mid_anomaly = (config.min_anomaly() + config.max_anomaly()) / 2;
    let mid_window = mid_anomaly
        .max(config.min_window() + 1)
        .min(config.max_window());
    let suppression = SuppressionConfig {
        windows: vec![config.min_window(), mid_window],
        anomaly_sizes: vec![config.min_anomaly(), mid_anomaly],
        ..SuppressionConfig::default()
    };
    let fig2 = timed(out, "fig2", || fig2_incident_span(5, 8))?;
    let mut maps = timed(out, "fig3_6", || paper_coverage_maps(corpus))?;
    let fig7 = timed(out, "fig7", || Ok(fig7_similarity()))?;
    let comb1 = timed(out, "comb1", || comb1_stide_markov_subset(corpus))?;
    let comb2 = timed(out, "comb2", || comb2_stide_lb_union(corpus))?;
    let comb3 = timed(out, "comb3", || comb3_suppression(corpus, &suppression))?;
    let abl1 = timed(out, "abl1", || abl1_maximal_response_semantics(corpus))?;
    let abl2 = timed(out, "abl2", || {
        abl2_locality_frame_count(corpus, mid_window, mid_anomaly, 4096, 3)
    })?;
    let abl3 = timed(out, "abl3", || {
        abl3_nn_sensitivity(corpus, mid_window, mid_anomaly)
    })?;
    let nat1 = timed(out, "nat1", || {
        nat1_census(100, 200, config.max_anomaly().min(8))
    })?;
    let ext1 = timed(out, "ext1", || ext1_extended_families(corpus))?;
    let div1 = timed(out, "div1", || div1_diversity_matrix(corpus))?;
    let masq1 = timed(out, "masq1", || masq1_lane_brodley_masquerade(5, 11))?;
    let fn1 = timed(out, "fn1", || {
        fn1_threshold_sweeps(corpus, mid_anomaly, mid_window)
    })?;
    let ana1_lb = timed(out, "ana1", || {
        ana1_response_map(corpus, &DetectorKind::LaneBrodley)
    })?;
    let cache = detdiv_cache::global().stats();
    out.metric("cache.hits", cache.hits as f64, "count");
    out.metric("cache.misses", cache.misses as f64, "count");
    out.metric("cache.waits", cache.inflight_waits as f64, "count");
    let pool = detdiv_par::global().stats();
    out.metric("par.busy_s", pool.total_busy_nanos() as f64 / 1e9, "s");
    out.metric("par.jobs", pool.total_jobs() as f64, "count");
    out.metric("par.steals", pool.total_steals() as f64, "count");
    out.metric("par.idle_parks", pool.total_idle_parks() as f64, "count");
    let fig6 = maps.pop().ok_or("fig3_6 returned no maps")?;
    let fig5 = maps.pop().ok_or("fig3_6 returned no maps")?;
    let fig4 = maps.pop().ok_or("fig3_6 returned no maps")?;
    let fig3 = maps.pop().ok_or("fig3_6 returned no maps")?;
    let report = FullReport {
        anomalies: corpus
            .anomalies()
            .map(|a| (a.len(), a.to_string()))
            .collect(),
        config,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        comb1,
        comb2,
        comb3,
        abl1,
        abl2,
        abl3,
        nat1,
        ext1,
        div1,
        masq1,
        fn1,
        ana1_lb,
        telemetry: TelemetrySnapshot::default(),
    };
    let (failed, errors) = check_report(&report);
    out.absorb(report_operations(&report), failed, errors);
    Ok(())
}

/// Trains every family at every window of the grid and batch-scores
/// every case, bypassing the model cache.
fn detector_table(corpus: &Corpus, out: &mut Outcome) {
    let windows: Vec<usize> = corpus.config().windows().collect();
    let sizes: Vec<usize> = corpus.config().anomaly_sizes().collect();
    for family in FAMILIES {
        let (mut train_s, mut score_s) = (0.0, 0.0);
        let mut train_allocs = 0;
        for &window in &windows {
            let mut detector = build_family(family, window);
            let before = alloc::allocs();
            let t = Instant::now();
            detector.train(corpus.training());
            train_s += t.elapsed().as_secs_f64();
            train_allocs += alloc::allocs() - before;
            let t = Instant::now();
            for &size in &sizes {
                if let Ok(case) = corpus.case(size, window) {
                    use detdiv_core::LabeledCase;
                    black_box(detector.scores(case.test_stream()));
                }
            }
            score_s += t.elapsed().as_secs_f64();
        }
        out.metric(format!("detectors.{family}.train_s"), train_s, "s");
        out.metric(format!("detectors.{family}.score_s"), score_s, "s");
        if matches!(family, "neural-network" | "hmm") {
            out.metric(
                format!("detectors.{family}.train_allocs"),
                train_allocs as f64,
                "count",
            );
        }
    }
}

/// One traced `ingest-gated` round: per-call enqueue and drain timing,
/// allocations per event and heap per stream.
fn serve_gated(
    args: &Args,
    setup: &crate::ingest::IngestSetup,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = GATED;
    detdiv_par::global().set_threads(Some(shape.threads));
    let streams = Streams::new(args.seed, shape.streams, setup.corpus.alphabet().size());
    let kept = spiked_streams(&streams);
    let sink = CheckingSink::new(&streams.ids, shape.shards, &kept, 0)?;
    let live_before = alloc::live_bytes();
    let service = gated_service(&setup.bank, &shape);
    let allocs_before = alloc::allocs();
    let stats = closed_loop_round(&service, &streams, shape.events, &sink, true);
    let allocs = alloc::allocs() - allocs_before;
    let service_heap = alloc::live_bytes().saturating_sub(live_before);
    let (failed, errors) = check_gated(&service, &streams, shape.events, &sink, &setup.bank, &kept);
    out.absorb(stats.offered, failed, errors);
    out.metric("serve.round_s", stats.wall_s, "s");
    out.metric(
        "serve.enqueue_ns",
        stats.enqueue_s * 1e9 / stats.enqueues as f64,
        "ns",
    );
    out.metric("serve.rejects", stats.rejects as f64, "count");
    out.metric("serve.drain_calls", stats.drains as f64, "count");
    out.metric("serve.drain_s", stats.drain_s, "s");
    out.metric(
        "serve.events_per_drain",
        stats.offered as f64 / stats.drains as f64,
        "count",
    );
    out.metric(
        "serve.allocs_per_event",
        allocs as f64 / stats.offered as f64,
        "count",
    );
    out.metric(
        "serve.heap_bytes_per_stream",
        service_heap as f64 / shape.streams as f64,
        "B",
    );
    Ok(())
}

/// Replays the gated events through a bare EWMA gate per stream and
/// through a [`StreamEngine`] holding one EWMA per stream.
fn stream_replay(args: &Args, corpus: &Corpus, out: &mut Outcome) {
    let shape = GATED;
    let streams = Streams::new(args.seed, shape.streams, corpus.alphabet().size());
    let mut gates: Vec<Ewma> = (0..shape.streams).map(|_| Ewma::new(0.3, 0)).collect();
    let events = shape.streams as f64 * shape.events as f64;
    let t = Instant::now();
    for seq in 0..shape.events {
        for (i, gate) in gates.iter_mut().enumerate() {
            black_box(gate.update(&streams.event(i, seq)));
        }
    }
    out.metric(
        "stream.gate_update_ns",
        t.elapsed().as_nanos() as f64 / events,
        "ns",
    );
    let mut engine =
        StreamEngine::new(|| vec![Box::new(Ewma::new(0.3, 0)) as Box<dyn StreamDetector>]);
    let mut slots = Vec::new();
    let t = Instant::now();
    for seq in 0..shape.events {
        for i in 0..shape.streams {
            slots.clear();
            engine.push(&streams.event(i, seq), &mut slots);
            black_box(&slots);
        }
    }
    out.metric(
        "stream.engine_push_ns",
        t.elapsed().as_nanos() as f64 / events,
        "ns",
    );
}

/// One traced `ingest-paced` round: queue wait and service time apart,
/// the reference tail and the generator's lateness.
fn serve_paced(args: &Args, setup: &crate::paced::PacedSetup, out: &mut Outcome) {
    detdiv_par::global().set_threads(Some(1));
    let mut r = paced_round(setup, args.seed, 0, true);
    out.absorb(r.offered, r.failed, std::mem::take(&mut r.errors));
    r.queue_wait.sort_unstable();
    r.service.sort_unstable();
    r.latency.sort_unstable();
    out.metric(
        "serve.queue_wait_us_p50",
        percentile_us(&r.queue_wait, 50.0),
        "us",
    );
    out.metric(
        "serve.service_us_p50",
        percentile_us(&r.service, 50.0),
        "us",
    );
    out.metric(
        "serve.latency_p99_us",
        percentile_us(&r.latency, 99.0),
        "us",
    );
    out.metric("serve.latency_samples", r.latency.len() as f64, "count");
    out.metric("gen.late_ms_max", r.late_max_ns as f64 / 1e6, "ms");
}

/// One traced `ingest-overload` round: the guard's counters, system
/// time, and the heap peak beside the guard's own resident estimate.
fn serve_overload(
    args: &Args,
    setup: &crate::ingest::IngestSetup,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = OVERLOAD;
    detdiv_par::global().set_threads(Some(shape.threads));
    let streams = Streams::new(args.seed, shape.streams, setup.corpus.alphabet().size());
    let sink = CheckingSink::new(&streams.ids, shape.shards, &[], 0)?;
    let root = spill_root();
    let service = overload_service(&setup.bank, &shape, Some(root.join("traced")))?;
    alloc::reset_peak();
    let live_before = alloc::live_bytes();
    let (_, sys_before) = crate::cpu_times_s();
    let stats = overload_round(&service, &streams, &shape, &sink);
    let (_, sys_after) = crate::cpu_times_s();
    let heap_peak = alloc::peak_bytes().saturating_sub(live_before);
    let (failed, errors) = check_overload_round(&service, &stats, &sink, shape.budget);
    out.absorb(stats.offered, failed, errors);
    let guard = service
        .guard_stats()
        .ok_or("overload service has no guard")?;
    let sum = |f: fn(&detdiv_guard::introspect::GuardShardStats) -> u64| -> f64 {
        guard.shards.iter().map(f).sum::<u64>() as f64
    };
    out.metric(
        "guard.hibernated",
        sum(|s| s.hibernated.load(Ordering::Relaxed)),
        "count",
    );
    out.metric(
        "guard.rehydrated",
        sum(|s| s.rehydrated.load(Ordering::Relaxed)),
        "count",
    );
    out.metric(
        "guard.shed",
        sum(|s| s.shed.load(Ordering::Relaxed)),
        "count",
    );
    out.metric(
        "guard.ladder_transitions",
        sum(|s| s.ladder_transitions.load(Ordering::Relaxed)),
        "count",
    );
    out.metric("proc.sys_s", sys_after - sys_before, "s");
    out.metric("guard.heap_peak_bytes", heap_peak as f64, "B");
    out.metric(
        "guard.model_peak_bytes",
        guard.resident_peak.load(Ordering::Relaxed) as f64,
        "B",
    );
    drop(service);
    remove_spill_root(&root);
    Ok(())
}
