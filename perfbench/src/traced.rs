//! The traced run (`--trace 1`): the same workload and seed, with the
//! per-layer wrappers of [`crate::layers`] around calls into each
//! layer's public functions. Every per-layer metric comes from here.

use crate::inputs::{Inputs, Kind, RANKS};
use crate::layers::{Busy, CoreAcc, HookBusy, SpanLog, TimedMonitor, TimedStore, TrackedOnly};
use crate::report::{median, quantile, Metrics};
use crate::served::{self, Tally};
use rma_apps::{Method, MethodRun};
use rma_core::StoreStats;
use rma_monitor::{AnalyzerCfg, OnRace};
use rma_must::Completeness;
use rma_served::{
    verdict_body, Durability, ServeCfg, ServedStats, Service, Spool, StreamReport, Tier, WalRecord,
    WalWriter,
};
use rma_substrate::fs::Fs;
use rma_trace::trace::fnv1a;
use rma_trace::{
    replay_trace, verdict_line, ReplayOutcome, StoreTarget, StreamDecoder, Trace, TraceWriter,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Bytes per decoder feed and per service feed, as the daemon does.
const CHUNK: usize = 4096;
/// Uninstrumented and untraced program runs measured for the floors.
const FLOOR_RUNS: usize = 3;

/// The store configuration `MethodRun::new(Method::Contribution, _)`
/// gives its analyzer: the measured live path.
fn live_store_cfg() -> AnalyzerCfg {
    AnalyzerCfg {
        on_race: OnRace::Collect,
        ..AnalyzerCfg::default()
    }
}

/// The store configuration the service replays every stream under:
/// `ServeCfg::default().analyzer` with the detector's algorithm forced.
fn served_store_cfg() -> AnalyzerCfg {
    let serve = ServeCfg::default();
    let mut cfg = serve.analyzer;
    if let Some(algo) = serve.detector.algorithm() {
        cfg.algorithm = algo;
    }
    cfg
}

/// Replays `trace` through stores built by `cfg`, timed into `acc`
/// when given.
fn replay_with(trace: &Trace, cfg: AnalyzerCfg, acc: Option<&Arc<CoreAcc>>) -> ReplayOutcome {
    match acc {
        Some(acc) => {
            let acc = acc.clone();
            replay_trace(
                trace,
                Box::new(StoreTarget::new(move || {
                    TimedStore::boxed(cfg.build_store(None), &acc)
                })),
            )
        }
        None => replay_trace(
            trace,
            Box::new(StoreTarget::new(move || cfg.build_store(None))),
        ),
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Store-layer metrics from a timed replay.
fn core_metrics(m: &mut Metrics, acc: &CoreAcc, stats: &StoreStats, races: usize) {
    let calls = acc.record_calls.load(Ordering::Relaxed);
    m.count("core.record_calls", calls);
    m.secs(
        "core.record_busy_s",
        secs(acc.record_ns.load(Ordering::Relaxed)),
    );
    m.push("core.record_ns_p50", acc.hist.quantile_ns(0.50), "ns");
    m.push("core.record_ns_p99", acc.hist.quantile_ns(0.99), "ns");
    m.secs(
        "core.clear_busy_s",
        secs(acc.clear_ns.load(Ordering::Relaxed)),
    );
    m.count("core.fragments", stats.fragments as u64);
    m.count("core.merges", stats.merges as u64);
    m.count("core.fast_hits", stats.fast_hits as u64);
    m.push(
        "core.fast_hit_ratio",
        stats.fast_hits as f64 / calls.max(1) as f64,
        "ratio",
    );
    m.count("core.peak_nodes", stats.peak_len as u64);
    m.count("core.races", races as u64);
}

/// Per-stream replica of the daemon's protocol at batch durability:
/// WAL admit, chunked decode with watermarks and epoch checkpoints,
/// replay, idempotent verdict publish, WAL published record, cleanup.
struct Replica {
    wal: Busy,
    publish: Busy,
    decode: BTreeMap<Kind, Busy>,
    record: BTreeMap<Kind, u64>,
    decode_bytes: u64,
    events: u64,
    replay_self_ns: u64,
    /// (events, races) per tenant, to compare with the daemon's totals.
    tenants: BTreeMap<String, (u64, u64)>,
    /// Decode plus replay time of the timed cycle, for the overhead ratio.
    analysis_ns: u64,
}

fn replica(
    inputs: &Inputs,
    dir: &Path,
    log: &mut SpanLog,
    root: usize,
    tally: &mut Tally,
) -> Result<Replica, String> {
    let spool = Spool::create(dir, Fs::real())?;
    let cfg = served_store_cfg();
    let mut r = Replica {
        wal: Busy::default(),
        publish: Busy::default(),
        decode: BTreeMap::new(),
        record: BTreeMap::new(),
        decode_bytes: 0,
        events: 0,
        replay_self_ns: 0,
        tenants: BTreeMap::new(),
        analysis_ns: 0,
    };
    let io = |e: std::io::Error| e.to_string();
    for s in &inputs.cycle {
        let t_stream = Instant::now();
        let span = log.open(&s.name, "stream", Some(root), t_stream);
        let mut wal_busy = Busy::default();
        let mut dec_busy = Busy::default();

        let t = Instant::now();
        let wal = WalWriter::create(
            Fs::real(),
            spool.wal_path(s.tenant, &s.name),
            Durability::Batch,
        )
        .map_err(io)?;
        wal.append(&WalRecord::Admit {
            bytes_len: s.bytes.len() as u64,
            bytes_fnv: fnv1a(&s.bytes),
        })
        .map_err(io)?;
        wal_busy.add_since(t);
        wal_busy.calls += 1; // create + admit

        let mut dec = StreamDecoder::new();
        let mut fed = 0u64;
        let mut last_epochs = 0;
        for piece in s.bytes.chunks(CHUNK) {
            let t = Instant::now();
            dec.feed(piece).map_err(|e| format!("{}: {e}", s.name))?;
            dec_busy.add_since(t);
            fed += piece.len() as u64;
            let t = Instant::now();
            wal.append(&WalRecord::Watermark { offset: fed })
                .map_err(io)?;
            wal_busy.add_since(t);
            if dec.epoch_marks() > last_epochs {
                last_epochs = dec.epoch_marks();
                let t = Instant::now();
                wal.append(&WalRecord::Epoch {
                    epochs: last_epochs as u64,
                    offset: fed,
                })
                .map_err(io)?;
                wal_busy.add_since(t);
            }
        }
        let t = Instant::now();
        let end = dec.finish().map_err(|e| format!("{}: {e}", s.name))?;
        dec_busy.add_since(t);

        let acc = CoreAcc::new();
        let t_replay = Instant::now();
        let outcome = replay_with(&end.trace, cfg, Some(&acc));
        let t_replayed = Instant::now();
        let replay_busy = Busy {
            calls: 1,
            ns: (t_replayed - t_replay).as_nanos() as u64,
        };
        let replay_span = log.leaf(
            &s.name,
            "trace.replay",
            span,
            t_replay,
            t_replayed,
            replay_busy,
        );
        let record = Busy {
            calls: acc.record_calls.load(Ordering::Relaxed),
            ns: acc.record_ns.load(Ordering::Relaxed),
        };
        log.leaf(
            &s.name,
            "core.record",
            replay_span,
            t_replay,
            t_replayed,
            record,
        );
        log.leaf(
            &s.name,
            "core.clear",
            replay_span,
            t_replay,
            t_replayed,
            Busy {
                calls: 0,
                ns: acc.clear_ns.load(Ordering::Relaxed),
            },
        );
        r.replay_self_ns +=
            ((t_replayed - t_replay).as_nanos() as u64).saturating_sub(acc.store_ns());
        r.analysis_ns += dec_busy.ns + (t_replayed - t_replay).as_nanos() as u64;

        let verdict = verdict_line(&outcome.races);
        tally.attempted += 1;
        if verdict != s.verdict || !end.complete {
            eprintln!(
                "perfbench: replica {}: verdict {verdict:?}, expected {:?}",
                s.name, s.verdict
            );
            tally.failed += 1;
        }
        let report = StreamReport {
            tenant: s.tenant.to_string(),
            stream: s.name.clone(),
            tier: if outcome.races.is_empty() {
                Tier::Clean
            } else {
                Tier::Racy
            },
            verdict,
            races: outcome.races.len(),
            events: outcome.events,
            epochs_kept: end.epochs_kept,
            completeness: Completeness::Complete,
            respawns: 0,
            degraded: outcome.stats.coalesced > 0,
            brownout: outcome.stats.brownouts > 0,
        };
        let body = verdict_body(&report);
        let t = Instant::now();
        wal.append(&WalRecord::Epoch {
            epochs: end.epochs_kept as u64,
            offset: fed,
        })
        .map_err(io)?;
        wal_busy.add_since(t);
        let t = Instant::now();
        let file = Spool::stream_file(s.tenant, &s.name, "verdict");
        spool
            .publish_idempotent(&spool.outbox, &file, body.as_bytes(), Durability::Batch)
            .map_err(io)?;
        let publish = Busy {
            calls: 1,
            ns: t.elapsed().as_nanos() as u64,
        };
        let t = Instant::now();
        wal.append(&WalRecord::Published {
            verdict_len: body.len() as u64,
            verdict_fnv: fnv1a(body.as_bytes()),
        })
        .map_err(io)?;
        spool.fs().remove_file(wal.path()).map_err(io)?;
        wal_busy.add_since(t);
        let t_end = Instant::now();

        log.leaf(&s.name, "served.wal", span, t_stream, t_end, wal_busy);
        log.leaf(&s.name, "trace.decode", span, t_stream, t_end, dec_busy);
        log.leaf(&s.name, "served.publish", span, t, t_end, publish);
        log.close(span, t_end);

        r.wal.absorb(wal_busy);
        r.publish.absorb(publish);
        r.decode.entry(s.kind).or_default().absorb(dec_busy);
        *r.record.entry(s.kind).or_default() += record.ns;
        r.decode_bytes += s.bytes.len() as u64;
        r.events += outcome.events as u64;
        let t = r.tenants.entry(s.tenant.to_string()).or_default();
        t.0 += outcome.events as u64;
        t.1 += outcome.races.len() as u64;
    }
    Ok(r)
}

/// The single-threaded decode + replay of one cycle with no wrappers:
/// the no-service floor.
fn direct(inputs: &Inputs) -> Result<f64, String> {
    let cfg = served_store_cfg();
    let t0 = Instant::now();
    for s in &inputs.cycle {
        let mut dec = StreamDecoder::new();
        for piece in s.bytes.chunks(CHUNK) {
            dec.feed(piece).map_err(|e| format!("{}: {e}", s.name))?;
        }
        let end = dec.finish().map_err(|e| format!("{}: {e}", s.name))?;
        std::hint::black_box(replay_with(&end.trace, cfg, None));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Time the client spends in each service call, one stream at a time.
struct ServiceReplica {
    submit: Busy,
    feed: Busy,
    finish: Busy,
}

fn service_replica(
    inputs: &Inputs,
    log: &mut SpanLog,
    root: usize,
    tally: &mut Tally,
) -> Result<ServiceReplica, String> {
    let svc = Service::new(ServeCfg::default());
    let mut r = ServiceReplica {
        submit: Busy::default(),
        feed: Busy::default(),
        finish: Busy::default(),
    };
    for s in &inputs.cycle {
        let t_stream = Instant::now();
        let span = log.open(&s.name, "service", Some(root), t_stream);
        let mut submit = Busy::default();
        let mut feed = Busy::default();
        let mut finish = Busy::default();
        let t = Instant::now();
        let handle = svc
            .submit(s.tenant, &s.name)
            .map_err(|e| format!("submit {}: {e}", s.name))?;
        submit.add_since(t);
        for piece in s.bytes.chunks(CHUNK) {
            let t = Instant::now();
            handle
                .feed(piece)
                .map_err(|e| format!("feed {}: {e}", s.name))?;
            feed.add_since(t);
        }
        let t = Instant::now();
        let report = handle
            .finish()
            .map_err(|e| format!("finish {}: {e}", s.name))?;
        finish.add_since(t);
        tally.attempted += 1;
        if report.verdict != s.verdict {
            tally.failed += 1;
        }
        let t_end = Instant::now();
        log.leaf(&s.name, "served.submit", span, t_stream, t_end, submit);
        log.leaf(&s.name, "served.feed", span, t_stream, t_end, feed);
        log.leaf(&s.name, "served.finish", span, t_stream, t_end, finish);
        log.close(span, t_end);
        r.submit.absorb(submit);
        r.feed.absorb(feed);
        r.finish.absorb(finish);
    }
    let (_, outcome) = svc.shutdown();
    if let rma_served::DrainOutcome::Wedged { pending } = outcome {
        tally.failed += pending.len().max(1) as u64;
    }
    Ok(r)
}

/// Counts from a daemon's final telemetry, summed (or maxed) over tenants.
fn served_counts(m: &mut Metrics, stats: &ServedStats) {
    let t = stats.tenants.values();
    m.count(
        "served.peak_live",
        t.clone().map(|t| t.peak_live as u64).max().unwrap_or(0),
    );
    m.count(
        "served.peak_queue_depth",
        t.clone()
            .map(|t| t.peak_queue_depth as u64)
            .max()
            .unwrap_or(0),
    );
    m.count(
        "served.blocked_sends",
        t.clone().map(|t| t.blocked_sends).sum(),
    );
    m.count("served.respawns", t.clone().map(|t| t.respawns).sum());
    m.count("served.degraded", t.map(|t| t.degraded_stores).sum());
}

/// The traced run. Returns the per-layer metrics and the verdict tally.
pub fn run(inputs: &Inputs, work: &Path) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut log = SpanLog::new();
    let program = &inputs.program;

    // sim: the program's own floor, no tool attached.
    let baseline: Vec<_> = (0..FLOOR_RUNS)
        .map(|_| program.run(&MethodRun::new(Method::Baseline, RANKS)))
        .collect();
    m.secs(
        "sim.baseline_epoch_s",
        median(baseline.iter().map(|r| r.epoch_s)),
    );
    m.secs(
        "sim.baseline_run_s",
        median(baseline.iter().map(|r| r.run_s)),
    );

    // The untraced twin of the traced live run, for the overhead ratio.
    let twins: Vec<_> = (0..FLOOR_RUNS)
        .map(|_| {
            let r = program.run(&MethodRun::new(Method::Contribution, RANKS));
            inputs.check_live(&r, &mut tally);
            r
        })
        .collect();
    let untraced_run = median(twins.iter().map(|r| r.run_s));
    m.secs("epoch_s", median(twins.iter().map(|r| r.epoch_s)));
    m.secs("run_s", untraced_run);

    // served: the daemon itself, as in the untraced run (counts and the
    // generator's own behaviour); the per-stream replicas come later,
    // inside the traced wall.
    let stash = served::Stash::write(inputs, &work.join("stash"))?;
    let cpu0 = crate::process_cpu_s();
    let open = served::open_loop(
        inputs,
        &inputs.schedules[0],
        &stash,
        &work.join("open-loop"),
    )?;
    m.secs("serve_cpu_s", crate::process_cpu_s() - cpu0);
    let _ = std::fs::remove_dir_all(work.join("open-loop"));
    tally.absorb(open.tally);
    let burst = served::burst(inputs, &stash, &work.join("burst"))?;
    let _ = std::fs::remove_dir_all(work.join("burst"));
    tally.absorb(burst.tally);
    served_counts(&mut m, &open.stats);
    let mut small = open.small_ms.clone();
    m.push("small_verdict_p50_ms", quantile(&mut small, 0.50), "ms");
    m.push("small_verdict_p99_ms", quantile(&mut small, 0.99), "ms");
    m.push(
        "events_per_s",
        burst.events as f64 / burst.wall_s,
        "events/s",
    );

    // monitor: the detector's hooks, timed per rank-epoch, on a run that
    // is also recorded for the store replay below.
    let root = log.open(inputs.workload.name(), "traced", None, Instant::now());
    let base = MethodRun::new(Method::Contribution, RANKS);
    let analyzer = base
        .analyzer
        .clone()
        .expect("the contribution runs the analyzer");
    let timed = Arc::new(TimedMonitor::new(base.monitor.clone(), RANKS));
    let writer = Arc::new(TraceWriter::new(inputs.workload.name(), 0));
    let method = MethodRun {
        monitor: timed.clone(),
        analyzer: Some(analyzer.clone()),
        must: None,
    }
    .observed(Arc::new(TrackedOnly(writer.clone())));
    let t_live = Instant::now();
    let live = program.run(&method);
    let t_lived = Instant::now();
    inputs.check_live(&live, &mut tally);
    let live_span = log.open("live", "live.run", Some(root), t_live);
    log.close(live_span, t_lived);
    let (epochs, outside) = timed.take();
    let mut hooks = outside;
    let mut covered_ns = outside.ns();
    for e in &epochs {
        let id = format!("r{}e{}", e.rank, e.epoch);
        let ix = log.open(&id, "rank-epoch", Some(live_span), e.start);
        log.close(ix, e.end);
        log.leaf(&id, "monitor.local", ix, e.start, e.end, e.busy.local);
        log.leaf(&id, "monitor.rma", ix, e.start, e.end, e.busy.rma);
        log.leaf(&id, "monitor.sync", ix, e.start, e.end, e.busy.sync);
        hooks.absorb(&e.busy);
        covered_ns += (e.end - e.start).as_nanos() as u64;
    }
    log.leaf(
        "live",
        "monitor.outside",
        live_span,
        t_live,
        t_lived,
        Busy {
            calls: 0,
            ns: outside.ns(),
        },
    );
    monitor_metrics(&mut m, &hooks);
    m.count("monitor.recorded", analyzer.total_recorded() as u64);
    m.count("monitor.peak_nodes", analyzer.total_peak_nodes() as u64);
    m.count(
        "monitor.epoch_end_nodes",
        analyzer.total_epoch_end_nodes() as u64,
    );
    // Rank threads run in parallel: their covered time is thread-seconds.
    let live_unattributed = (live.run_s - secs(covered_ns) / f64::from(RANKS)).max(0.0);

    // core: the same run's recording through stores of the live path's
    // configuration.
    let recording = writer.trace();
    let acc = CoreAcc::new();
    let t_replay = Instant::now();
    let outcome = replay_with(&recording, live_store_cfg(), Some(&acc));
    let t_replayed = Instant::now();
    let replay_span = log.open("live", "live.replay", Some(root), t_replay);
    log.close(replay_span, t_replayed);
    log.leaf(
        "live",
        "core.record",
        replay_span,
        t_replay,
        t_replayed,
        Busy {
            calls: acc.record_calls.load(Ordering::Relaxed),
            ns: acc.record_ns.load(Ordering::Relaxed),
        },
    );
    core_metrics(&mut m, &acc, &outcome.stats, outcome.races.len());
    tally.attempted += 1;
    if outcome.stats.recorded != analyzer.total_recorded() || outcome.races.len() != live.races {
        eprintln!(
            "perfbench: replay recorded {} accesses and {} races, the live analyzer {} and {}",
            outcome.stats.recorded,
            outcome.races.len(),
            analyzer.total_recorded(),
            live.races
        );
        tally.failed += 1;
    }
    let t = Instant::now();
    std::hint::black_box(replay_with(&recording, live_store_cfg(), None));
    let untraced_replay = t.elapsed().as_secs_f64();
    drop(recording);

    let t_rep = Instant::now();
    let rep_span = log.open("replica", "replica", Some(root), t_rep);
    let rep = replica(
        inputs,
        &work.join("replica"),
        &mut log,
        rep_span,
        &mut tally,
    )?;
    log.close(rep_span, Instant::now());
    let _ = std::fs::remove_dir_all(work.join("replica"));
    for (tenant, stats) in &burst.stats.tenants {
        let ours = rep.tenants.get(tenant).copied().unwrap_or_default();
        tally.attempted += 1;
        if ours != (stats.events, stats.races) {
            eprintln!(
                "perfbench: replica {tenant}: (events, races) {ours:?}, daemon ({}, {})",
                stats.events, stats.races
            );
            tally.failed += 1;
        }
    }
    let svc_span = log.open("service", "service-replica", Some(root), Instant::now());
    let svc = service_replica(inputs, &mut log, svc_span, &mut tally)?;
    log.close(svc_span, Instant::now());
    log.close(root, Instant::now());
    let direct_s = direct(inputs)?;

    for kind in Kind::ALL {
        let name = kind.name();
        m.secs(
            &format!("core.record_busy_s.{name}"),
            secs(rep.record.get(&kind).copied().unwrap_or(0)),
        );
        m.secs(
            &format!("trace.decode_busy_s.{name}"),
            rep.decode.get(&kind).map_or(0.0, Busy::secs),
        );
    }
    let decode_ns: u64 = rep.decode.values().map(|b| b.ns).sum();
    m.push("trace.decode_bytes", rep.decode_bytes as f64, "bytes");
    m.secs("trace.decode_busy_s", secs(decode_ns));
    m.push(
        "trace.decode_mb_per_s",
        rep.decode_bytes as f64 / 1e6 / secs(decode_ns).max(1e-9),
        "MB/s",
    );
    m.count("trace.events", rep.events);
    m.secs("trace.replay_self_s", secs(rep.replay_self_ns));
    m.secs("trace.direct_s", direct_s);
    m.count("served.wal_appends", rep.wal.calls);
    m.secs("served.wal_busy_s", rep.wal.secs());
    m.count("served.publish_calls", rep.publish.calls);
    m.secs("served.publish_busy_s", rep.publish.secs());
    m.secs("served.submit_busy_s", svc.submit.secs());
    m.secs("served.feed_busy_s", svc.feed.secs());
    m.secs("served.finish_wait_s", svc.finish.secs());

    // bench: the generator, the tracing overhead and the attribution gap.
    let mut lag = open.lag_ms.clone();
    m.push("bench.generator_lag_p99_ms", quantile(&mut lag, 0.99), "ms");
    m.count("bench.backlog_max", open.backlog_max as u64);
    let traced_s = live.run_s + (t_replayed - t_replay).as_secs_f64() + secs(rep.analysis_ns);
    let untraced_s = untraced_run + untraced_replay + direct_s;
    m.push("bench.trace_overhead_x", traced_s / untraced_s, "ratio");
    // Outside the live run every span's self time is one layer's own
    // (replay scheduling, the replica loop): what is left is the live
    // run's time outside rank-epochs and hooks, plus the gaps between
    // the root's children.
    let children: f64 = [live_span, replay_span, rep_span, svc_span]
        .iter()
        .map(|&ix| log.secs(ix))
        .sum();
    let wall = log.secs(root);
    let unattributed = live_unattributed + (wall - children).max(0.0);
    m.secs("bench.unattributed_s", unattributed);
    m.push("bench.unattributed_share", unattributed / wall, "ratio");

    let spans = work.join(format!("spans-{}.jsonl", inputs.workload.name()));
    std::fs::write(&spans, log.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    println!(
        "attribution: traced wall {wall:.3} s, unattributed {unattributed:.3} s ({:.1}% of wall), trace overhead {:.2}x; spans in {}",
        100.0 * unattributed / wall,
        traced_s / untraced_s,
        spans.display()
    );
    Ok((m, tally))
}

fn monitor_metrics(m: &mut Metrics, hooks: &HookBusy) {
    m.count("monitor.local_calls", hooks.local.calls);
    m.secs("monitor.local_busy_s", hooks.local.secs());
    m.count("monitor.rma_calls", hooks.rma.calls);
    m.secs("monitor.rma_busy_s", hooks.rma.secs());
    m.count("monitor.sync_calls", hooks.sync.calls);
    m.secs("monitor.sync_busy_s", hooks.sync.secs());
}
