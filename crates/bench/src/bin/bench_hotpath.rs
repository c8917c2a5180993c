//! Hot-path detection benchmark with a reproducible baseline:
//! replays the checked-in trace corpus plus synthetic workloads through
//! four store configurations — naive full-history, legacy RMA-Analyzer,
//! fragmentation+merging over the AVL tree (the paper-faithful
//! reference) and the chunked flat engine (production) — and emits
//! `BENCH_hotpath.json` holding, per (workload, config): median
//! events/second, peak node count, and fast-path hit rate.
//!
//! The synthetic workloads cover the access shapes that separate the
//! layouts: ascending interleaved regions (`churn`, 4 regions, and
//! `interleaved`, 16 — the lockstep walk), a dense ascending stream
//! inserted below a sparse one (`two-frontier`, the shape of a miniVite
//! rank's store), and a small dense hotspot where everything merges.
//!
//! Besides the offline replays, the `live/churn` rows drive the full
//! `Messages`-mode analyzer pipeline (origin-side records, notification
//! batching, receiver threads, epoch drain) through a two-rank simulated
//! world with the production engine, unbatched (`flat`) and with
//! `batch_size` = 64 (`flat-batch64`).
//!
//! The JSON is byte-stable modulo the timing fields: `events`,
//! `peak_nodes`, `fast_hit_rate` and `races` are pure functions of the
//! (deterministic) workloads, so two runs differ only in
//! `median_ns`/`best_ns`/`events_per_sec` (and the derived speedup
//! ratios). `events_per_sec` derives from `best_ns`, the fastest
//! sample: the replays are deterministic, so the cost floor is the
//! measurement and scheduler noise is strictly one-sided. Corpus rows
//! also carry `paired_vs_fragmerge`: the median over sample rounds of
//! the config's speed relative to the tree's in the same round.
//!
//! Flags:
//!
//! * `--smoke` — tiny workloads + 3 samples, for CI under `timeout`;
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_hotpath.json` in the current directory);
//! * `--check <path>` — validate an existing report instead of
//!   benchmarking: required keys present, every number finite; exits
//!   non-zero on violation;
//! * `--guard <path> [--tolerance <f>]` — regression guard: on every
//!   workload with a `fragmerge` row, `flat` must reach at least
//!   `tolerance` × the `fragmerge` speed — its `paired_vs_fragmerge`
//!   where the row has one, else the ratio of events/sec — and report
//!   the identical race count. `tolerance` defaults to `1.0` (for the frozen
//!   checked-in baseline); CI passes a slack factor for
//!   freshly-measured smoke runs on noisy machines.

use rma_core::{AccessStore, FlatStore, FragMergeStore, Interval, LegacyStore, NaiveStore, SrcLoc};
use rma_monitor::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_sim::{Monitor, RankId, World, WorldCfg};
use rma_substrate::bench::BenchGroup;
use rma_trace::{replay_trace, ReplayOutcome, StoreTarget, Trace, TraceEvent, TraceHeader};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

/// Regions of the churn workloads (offline and live).
const CHURN_REGIONS: u64 = 4;
/// Regions of the interleaved workload: the lockstep walk's shape.
const INTERLEAVED_REGIONS: u64 = 16;

/// The store configurations compared.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Naive,
    Legacy,
    FragMerge,
    Flat,
}

impl Config {
    const ALL: [Config; 4] = [Config::Naive, Config::Legacy, Config::FragMerge, Config::Flat];

    fn name(self) -> &'static str {
        match self {
            Config::Naive => "naive",
            Config::Legacy => "legacy",
            Config::FragMerge => "fragmerge",
            Config::Flat => "flat",
        }
    }

    fn store(self) -> Box<dyn AccessStore + Send> {
        match self {
            Config::Naive => Box::new(NaiveStore::new()),
            Config::Legacy => Box::new(LegacyStore::new()),
            Config::FragMerge => Box::new(FragMergeStore::new()),
            Config::Flat => FlatStore::boxed(true, None),
        }
    }
}

fn replay_with(trace: &Trace, cfg: Config) -> ReplayOutcome {
    replay_trace(trace, Box::new(StoreTarget::new(move || cfg.store())))
}

/// A single-rank `lock_all` epoch over one window of `len` bytes,
/// holding the given tracked local reads (interval, source line).
fn single_epoch_trace(app: &str, len: u64, reads: impl IntoIterator<Item = (Interval, u32)>) -> Trace {
    let win = rma_sim::WinId(0);
    let mut ev = vec![TraceEvent::WinAllocate { win, base: 0, len }, TraceEvent::LockAll { win }];
    ev.extend(reads.into_iter().map(|(interval, line)| TraceEvent::Local {
        interval,
        write: false,
        on_stack: false,
        tracked: true,
        loc: SrcLoc::synthetic("synthetic.c", line),
    }));
    ev.push(TraceEvent::UnlockAll { win });
    ev.push(TraceEvent::Finish);
    Trace {
        header: TraceHeader { version: 1, nranks: 1, seed: 0, app: app.into() },
        streams: vec![ev],
    }
}

/// A width-2 access at `lo`: with the stride-3 layouts below, neighbours
/// are one byte apart — never adjacent, so nothing merges.
fn pair(lo: u64, line: u32) -> (Interval, u32) {
    (Interval::new(lo, lo + 1), line)
}

/// Synthetic interleaved workload: `regions` ascending scans (region
/// stride 1 MiB) advancing in lockstep, one access per region per step.
/// Only the top region appends at the tail; every other access inserts
/// in front of the regions above it. Per-region source lines keep
/// provenance distinct.
fn synthetic_churn(regions: u64, per_region: u64) -> Trace {
    let reads = (0..per_region)
        .flat_map(|i| (0..regions).map(move |r| pair((r << 20) + i * 3, r as u32 + 1)));
    single_epoch_trace("churn", regions << 20, reads)
}

/// Dense accesses per sparse one in [`synthetic_two_frontier`]. Counted
/// in a 2-rank miniVite-sim recording (nv = 128k): each rank's store took
/// 128000 local loads, 95-97 remote gets spread over the same range, and
/// 95-97 origin-buffer writes of its own gets, all ascending; the writes
/// lie above the loaded range and the first lands before the first load.
const SPARSE_EVERY: u64 = 1333;

/// Synthetic two-frontier workload, the miniVite store shape: a dense
/// ascending stream low in the window and a sparse ascending stream
/// above it, one access per [`SPARSE_EVERY`] dense ones, starting first.
/// Every dense access inserts in front of the sparse entries instead of
/// appending.
fn synthetic_two_frontier(accesses: u64) -> Trace {
    let reads = (0..accesses).map(|i| {
        if i % (SPARSE_EVERY + 1) == 0 {
            pair((1 << 20) + i / (SPARSE_EVERY + 1) * 3, 2)
        } else {
            pair(i * 3, 1)
        }
    });
    single_epoch_trace("two-frontier", 2 << 20, reads)
}

/// Synthetic hotspot workload: overlapping accesses cycling through a
/// small dense region — the merge-friendly extreme.
fn synthetic_hotspot(accesses: u64) -> Trace {
    let reads = (0..accesses).map(|i| {
        let lo = (i % 64) * 2;
        (Interval::new(lo, lo + 3), 1)
    });
    single_epoch_trace("hotspot", 256, reads)
}

/// One live `Messages`-pipeline run of the churn pattern: rank 0 issues
/// `ops` width-2 puts, ascending within [`CHURN_REGIONS`] interleaved
/// 1 MiB regions of rank 1's window, into the production engine.
/// Origin-side records, notification batching, the receiver thread and
/// the epoch drain are all on the measured path. Returns the analyzer
/// for stats inspection.
fn live_churn_run(batch_size: usize, ops: u64) -> Arc<RmaAnalyzer> {
    let cfg = AnalyzerCfg {
        algorithm: Algorithm::FragMerge,
        on_race: OnRace::Collect,
        delivery: Delivery::Messages,
        node_budget: None,
        max_respawns: 3,
        batch_size,
    };
    let mon = Arc::new(RmaAnalyzer::new(cfg));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone() as Arc<dyn Monitor>, move |ctx| {
        let win = ctx.win_allocate(CHURN_REGIONS << 20);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            for i in 0..ops {
                let off = ((i % CHURN_REGIONS) << 20) + (i / CHURN_REGIONS) * 3;
                ctx.put(&buf, 0, 2, RankId(1), off, win);
            }
        }
        ctx.win_unlock_all(win);
    });
    assert!(out.is_clean(), "live churn run not clean: {:?} {:?}", out.aborts, out.panics);
    assert!(mon.races().is_empty(), "live churn workload must be race-free");
    mon
}

/// Checked-in corpus recordings (walk up from cwd to the workspace).
fn checked_in_corpus() -> Vec<(String, Trace)> {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        let corpus = dir.join("tests/corpus");
        if corpus.is_dir() {
            let mut out = Vec::new();
            let Ok(entries) = std::fs::read_dir(&corpus) else { return out };
            let mut paths: Vec<_> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rmatrc"))
                .collect();
            paths.sort();
            for p in paths {
                let name = format!(
                    "corpus/{}",
                    p.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
                );
                match std::fs::read(&p).map_err(|_| ()).and_then(|b| Trace::decode(&b).map_err(|_| ())) {
                    Ok(t) => out.push((name, t)),
                    Err(()) => eprintln!("skipping unreadable corpus file {}", p.display()),
                }
            }
            return out;
        }
        if !dir.pop() {
            return Vec::new();
        }
    }
}

/// Paired measurement for the sub-microsecond corpus replays: every
/// config's batch size is calibrated up front, then the sample rounds
/// interleave round-robin over the configs so slow machine drift hits
/// all of them equally. Returns `(median_ns, best_ns, paired)` per
/// config, in `Config::ALL` order, where `paired` is the median over
/// rounds of `fragmerge_ns / config_ns` within the round: drift and
/// co-tenant bursts that span a round cancel in its ratio.
fn bench_interleaved(
    trace: &Trace,
    samples: usize,
    mut report: impl FnMut(Config, (f64, f64)),
) -> Vec<(f64, f64, f64)> {
    use std::time::{Duration, Instant};
    const TARGET_SAMPLE: Duration = Duration::from_millis(2);
    // Calibrate (and warm) each config: double the batch until one
    // batch takes TARGET_SAMPLE.
    let iters: Vec<u64> = Config::ALL
        .iter()
        .map(|&cfg| {
            let mut iters: u64 = 1;
            loop {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(replay_with(trace, cfg).events);
                }
                let elapsed = t0.elapsed();
                if elapsed >= TARGET_SAMPLE || iters >= 1 << 24 {
                    break iters;
                }
                if elapsed >= TARGET_SAMPLE / 8 {
                    let per_iter = elapsed.as_secs_f64() / iters as f64;
                    break ((TARGET_SAMPLE.as_secs_f64() / per_iter).ceil() as u64)
                        .max(iters + 1);
                }
                iters *= 2;
            }
        })
        .collect();
    let mut samples_ns: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); Config::ALL.len()];
    for _ in 0..samples {
        for (c, &cfg) in Config::ALL.iter().enumerate() {
            let n = iters[c];
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(replay_with(trace, cfg).events);
            }
            samples_ns[c].push(t0.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    let median_and_best = |mut s: Vec<f64>| {
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        (s[s.len() / 2], s[0])
    };
    let tree = Config::ALL.iter().position(|&c| c == Config::FragMerge).expect("tree config");
    let tree_ns = samples_ns[tree].clone();
    Config::ALL
        .iter()
        .zip(samples_ns)
        .map(|(&cfg, s)| {
            let ratios = tree_ns.iter().zip(&s).map(|(t, c)| t / c).collect();
            let (paired, _) = median_and_best(ratios);
            let out = median_and_best(s);
            report(cfg, out);
            (out.0, out.1, paired)
        })
        .collect()
}

/// The fastest sample of a finished benchmark (falls back to the median
/// for a pathological empty sample set).
fn best_sample(res: &rma_substrate::bench::BenchResult) -> f64 {
    res.samples_ns.iter().copied().fold(f64::INFINITY, f64::min).min(res.median_ns)
}

/// One (workload, config) measurement row of the report.
struct Row {
    workload: String,
    config: &'static str,
    events: usize,
    peak_nodes: usize,
    fast_hit_rate: f64,
    races: usize,
    median_ns: f64,
    /// Fastest sample. `events_per_sec` derives from this, not the
    /// median: the replays are deterministic, so their cost floor is the
    /// measurement and scheduler noise is strictly one-sided — a noisy
    /// co-tenant can inflate a whole median block but never deflate the
    /// best sample.
    best_ns: f64,
    events_per_sec: f64,
    /// Corpus rows: median per-round speed relative to `fragmerge`.
    paired_vs_fragmerge: Option<f64>,
}

fn report_json(smoke: bool, rows: &[Row], flat_speedup: f64, batch_speedup: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"flat_speedup_interleaved\": {flat_speedup:.3},\n"));
    out.push_str(&format!("  \"batch_speedup_churn\": {batch_speedup:.3},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let paired = r
            .paired_vs_fragmerge
            .map(|p| format!(", \"paired_vs_fragmerge\": {p:.3}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"events\": {}, \
             \"peak_nodes\": {}, \"fast_hit_rate\": {:.4}, \"races\": {}, \
             \"median_ns\": {:.1}, \"best_ns\": {:.1}, \"events_per_sec\": {:.0}{}}}{}\n",
            r.workload,
            r.config,
            r.events,
            r.peak_nodes,
            r.fast_hit_rate,
            r.races,
            r.median_ns,
            r.best_ns,
            r.events_per_sec,
            paired,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema validation of an existing report: every required key present,
/// every numeric field parseable and finite. No full JSON parser — the
/// report's shape is fixed, so targeted scans are exact enough to catch
/// a truncated, NaN-poisoned, or hand-mangled file.
fn check_report(text: &str) -> Result<(), String> {
    for key in [
        "\"bench\"",
        "\"smoke\"",
        "\"flat_speedup_interleaved\"",
        "\"batch_speedup_churn\"",
        "\"rows\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !text.contains("\"hotpath\"") {
        return Err("bench id is not \"hotpath\"".into());
    }
    let mut rows = 0;
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"workload\"") {
            continue;
        }
        rows += 1;
        for key in [
            "\"workload\"",
            "\"config\"",
            "\"events\"",
            "\"peak_nodes\"",
            "\"fast_hit_rate\"",
            "\"races\"",
            "\"median_ns\"",
            "\"best_ns\"",
            "\"events_per_sec\"",
        ] {
            if !line.contains(key) {
                return Err(format!("row {rows}: missing key {key}"));
            }
        }
    }
    if rows == 0 {
        return Err("no measurement rows".into());
    }
    // Every numeric field — including the top-level speedup — must be a
    // finite number.
    for key in [
        "\"events\":",
        "\"peak_nodes\":",
        "\"fast_hit_rate\":",
        "\"races\":",
        "\"median_ns\":",
        "\"best_ns\":",
        "\"events_per_sec\":",
        "\"paired_vs_fragmerge\":",
        "\"flat_speedup_interleaved\":",
        "\"batch_speedup_churn\":",
    ] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(key) {
            let start = from + pos + key.len();
            let rest = text[start..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'))
                .unwrap_or(rest.len());
            let num: f64 = rest[..end]
                .parse()
                .map_err(|_| format!("{key} followed by non-number {:?}", &rest[..end.min(16)]))?;
            if !num.is_finite() {
                return Err(format!("{key} is not finite: {num}"));
            }
            from = start;
        }
    }
    Ok(())
}

/// Extracts a `"key": <value>` field from one row line (the report's
/// shape is fixed; see [`check_report`]).
fn row_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The bench regression guard: on every workload with a `fragmerge` row,
/// the production engine (`flat`) must reach at least `tolerance` × the
/// tree's speed, and must report the identical race count — losing
/// anywhere, or diverging on a verdict, is the regression it exists to
/// prevent. Speed is the row's `paired_vs_fragmerge` where present (the
/// corpus rows), else the ratio of events/sec.
fn guard_report(text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    // (workload, config, events_per_sec, races, paired_vs_fragmerge)
    let mut measured: Vec<(String, String, f64, u64, Option<f64>)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"workload\"") {
            continue;
        }
        let workload = row_field(line, "workload").ok_or("row without workload")?.to_string();
        let config = row_field(line, "config").ok_or("row without config")?.to_string();
        let eps: f64 = row_field(line, "events_per_sec")
            .ok_or("row without events_per_sec")?
            .parse()
            .map_err(|e| format!("{workload}/{config}: bad events_per_sec: {e}"))?;
        let races: u64 = row_field(line, "races")
            .ok_or("row without races")?
            .parse()
            .map_err(|e| format!("{workload}/{config}: bad races: {e}"))?;
        let paired = row_field(line, "paired_vs_fragmerge")
            .map(|p| p.parse::<f64>())
            .transpose()
            .map_err(|e| format!("{workload}/{config}: bad paired_vs_fragmerge: {e}"))?;
        measured.push((workload, config, eps, races, paired));
    }
    let find = |workload: &str, config: &str| {
        measured.iter().find(|(w, c, ..)| w == workload && c == config)
    };
    let mut workloads: Vec<String> = measured
        .iter()
        .filter(|(_, c, ..)| c == "fragmerge")
        .map(|(w, ..)| w.clone())
        .collect();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no fragmerge rows to guard against".into());
    }
    let mut lines = Vec::new();
    for w in &workloads {
        let (_, _, tree_eps, tree_races, _) =
            find(w, "fragmerge").ok_or_else(|| format!("{w}: missing fragmerge row"))?;
        let (_, _, flat_eps, flat_races, paired) =
            find(w, "flat").ok_or_else(|| format!("{w}: missing flat row"))?;
        if flat_races != tree_races {
            return Err(format!(
                "{w}: flat races {flat_races} != fragmerge races {tree_races} — \
                 verdict divergence"
            ));
        }
        let (ratio, how) = match paired {
            Some(p) => (*p, "paired median"),
            None => (flat_eps / tree_eps, "events/sec"),
        };
        // NaN (from a zero/garbage tree rate) must fail, not pass.
        if ratio.is_nan() || ratio < tolerance {
            return Err(format!(
                "{w}: flat is {ratio:.3}x fragmerge by {how} ({flat_eps:.0} vs \
                 {tree_eps:.0} best events/sec), below tolerance {tolerance}"
            ));
        }
        lines.push(format!("{w}: flat/fragmerge = {ratio:.2}x ({how})"));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };

    if let Some(path) = flag_value("--check") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_hotpath --check: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check_report(&text) {
            Ok(()) => {
                println!("bench_hotpath --check: {path} ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_hotpath --check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = flag_value("--guard") {
        let tolerance: f64 = match flag_value("--tolerance").as_deref().map(str::parse) {
            None => 1.0,
            Some(Ok(t)) => t,
            Some(Err(e)) => {
                eprintln!("bench_hotpath --guard: bad --tolerance: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_hotpath --guard: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match guard_report(&text, tolerance) {
            Ok(lines) => {
                for l in &lines {
                    println!("bench_hotpath --guard: {l}");
                }
                println!("bench_hotpath --guard: {path} ok (tolerance {tolerance})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_hotpath --guard: {path}: REGRESSION: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // Accesses per synthetic workload: all but the hotspot's stay
    // unmerged, in one store.
    let (n, hotspot_n) = if smoke { (512, 512) } else { (65_536, 8192) };
    let mut workloads: Vec<(String, Trace)> = vec![
        ("synthetic/churn".to_string(), synthetic_churn(CHURN_REGIONS, n / CHURN_REGIONS)),
        (
            "synthetic/interleaved".to_string(),
            synthetic_churn(INTERLEAVED_REGIONS, n / INTERLEAVED_REGIONS),
        ),
        ("synthetic/two-frontier".to_string(), synthetic_two_frontier(n)),
        ("synthetic/hotspot".to_string(), synthetic_hotspot(hotspot_n)),
    ];
    workloads.extend(checked_in_corpus());

    let mut group = BenchGroup::new("bench_hotpath");
    let mut rows: Vec<Row> = Vec::new();
    for (name, trace) in &workloads {
        let events = trace.event_count();
        // Deterministic pass per config first: stats and verdict are a
        // pure function of (trace, config), measured outside the timer.
        let outcomes: Vec<_> = Config::ALL
            .iter()
            .map(|&cfg| {
                let out = replay_with(trace, cfg);
                assert!(out.complete, "{name}: replay incomplete under {}", cfg.name());
                out
            })
            .collect();
        // The corpus traces replay in well under a microsecond, so
        // sequential per-config sample blocks pick up machine drift
        // (frequency scaling, co-tenants) as a systematic bias against
        // whichever config is measured last. Their samples interleave
        // round-robin instead — every config sees the same drift — and
        // they get far more samples than the millisecond-scale
        // synthetic workloads.
        let timings: Vec<(f64, f64, Option<f64>)> = if name.starts_with("corpus/") {
            let samples = if smoke { 3 } else { 61 };
            bench_interleaved(trace, samples, |cfg, t| {
                eprintln!("bench_hotpath/{name}/{}: {:.1} ns (interleaved)", cfg.name(), t.1);
            })
            .into_iter()
            .map(|(median, best, paired)| (median, best, Some(paired)))
            .collect()
        } else {
            group.sample_size(if smoke { 3 } else { 7 });
            Config::ALL
                .iter()
                .map(|&cfg| {
                    let id = format!("{name}/{}", cfg.name());
                    group.bench(&id, || black_box(replay_with(trace, cfg).events));
                    let res = group.results().last().expect("just benched");
                    (res.median_ns, best_sample(res), None)
                })
                .collect()
        };
        for ((&cfg, out), (median_ns, best_ns, paired_vs_fragmerge)) in
            Config::ALL.iter().zip(&outcomes).zip(timings)
        {
            let fast_hit_rate = if out.stats.recorded == 0 {
                0.0
            } else {
                out.stats.fast_hits as f64 / out.stats.recorded as f64
            };
            rows.push(Row {
                workload: name.clone(),
                config: cfg.name(),
                events,
                peak_nodes: out.stats.peak_nodes(),
                fast_hit_rate,
                races: out.races.len(),
                median_ns,
                best_ns,
                events_per_sec: events as f64 / (best_ns / 1e9),
                paired_vs_fragmerge,
            });
        }
    }
    // Live `Messages`-pipeline rows: the production engine unbatched and
    // with batch_size 64. One bench iteration is one complete two-rank
    // world run.
    let live_ops: u64 = if smoke { 2_000 } else { 100_000 };
    group.sample_size(if smoke { 3 } else { 7 });
    for (cname, batch) in [("flat", 1usize), ("flat-batch64", 64)] {
        // Deterministic pass for the stats columns, outside the timer.
        let mon = live_churn_run(batch, live_ops);
        let stats: Vec<_> = mon.window_stats().into_iter().flatten().collect();
        let recorded: u64 = stats.iter().map(|s| s.recorded as u64).sum();
        let fast: u64 = stats.iter().map(|s| s.fast_hits as u64).sum();
        let fast_hit_rate = if recorded == 0 { 0.0 } else { fast as f64 / recorded as f64 };
        let peak_nodes = mon.total_peak_nodes();
        group.bench(format!("live/churn/{cname}"), || {
            black_box(live_churn_run(batch, live_ops).races().len())
        });
        let res = group.results().last().expect("just benched");
        let (median_ns, best_ns) = (res.median_ns, best_sample(res));
        rows.push(Row {
            workload: "live/churn".to_string(),
            config: cname,
            events: live_ops as usize,
            peak_nodes,
            fast_hit_rate,
            races: 0,
            median_ns,
            best_ns,
            events_per_sec: live_ops as f64 / (best_ns / 1e9),
            paired_vs_fragmerge: None,
        });
    }
    group.finish();

    let eps = |workload: &str, cfg: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.config == cfg)
            .map(|r| r.events_per_sec)
            .unwrap_or(f64::NAN)
    };
    let flat_speedup = eps("synthetic/interleaved", "flat") / eps("synthetic/interleaved", "fragmerge");
    let batch_speedup = eps("live/churn", "flat-batch64") / eps("live/churn", "flat");
    println!("\nflat vs fragmerge, offline replay of synthetic/interleaved: {flat_speedup:.2}x");
    println!("flat-batch64 vs flat, live pipeline: {batch_speedup:.2}x");

    let json = report_json(smoke, &rows, flat_speedup, batch_speedup);
    if let Err(e) = check_report(&json) {
        eprintln!("bench_hotpath: generated report fails its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("bench_hotpath: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
