//! The served phases: an in-process `run_daemon` over a fresh spool,
//! fed by one generator thread, plus the verdict oracle.
//!
//! The generator writes each stream of the cycle once per run to a
//! synced [`Stash`]. Before a spool starts it hard-links every
//! submission into its own `client-tmp/`; a submission is then only the
//! rename into `inbox/`. (The daemon's `tmp/` is swept by its start-up
//! recovery, so a client must not share it.) Staging ahead keeps the
//! client's bulk writes, and the journal commits they would force on the
//! daemon's fsyncs, out of the measured interval.

use crate::inputs::{Arrival, Inputs, Kind, Stream};
use rma_served::{run_daemon, DaemonCfg, DaemonExit, DrainOutcome, ServedStats, Spool};
use rma_substrate::fs::Fs;
use std::io::Write as _;
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How long the generator waits for outstanding verdicts after its last
/// submission before counting them as failed.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(60);
/// Generator poll interval while waiting for the last verdicts. (Between
/// arrivals it sleeps until the next one is due: a verdict's time is its
/// file's stamp, not when the generator notices it, so polling faster
/// would only take CPU from the daemon.)
const POLL: Duration = Duration::from_millis(5);

/// Failure accounting shared by every phase.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Operations attempted (app runs, submitted streams).
    pub attempted: u64,
    /// Operations that failed (the command then exits non-zero).
    pub failed: u64,
}

impl Tally {
    /// Folds another tally in.
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Checks one published verdict body against the stream's reference:
/// any refusal, non-clean tier or differing `verdict:` line fails.
fn check_body(body: Option<&str>, s: &Stream, tally: &mut Tally) {
    tally.attempted += 1;
    let Some(body) = body else {
        tally.failed += 1;
        return;
    };
    let field = |key: &str| body.lines().find_map(|l| l.strip_prefix(key));
    let tier_ok = matches!(field("tier: "), Some("clean" | "racy"));
    let verdict = body.lines().find(|l| l.starts_with("verdict:"));
    if field("error: ").is_some() || field("shed: ").is_some() || !tier_ok {
        tally.failed += 1;
    } else if verdict != Some(s.verdict.as_str()) {
        eprintln!(
            "perfbench: {}/{}: verdict {verdict:?}, expected {:?}",
            s.tenant, s.name, s.verdict
        );
        tally.failed += 1;
    }
}

/// One synced copy of every stream of the cycle, on the spools'
/// filesystem.
pub struct Stash {
    dir: PathBuf,
}

impl Stash {
    /// Writes and syncs every stream of `inputs` under `dir`.
    pub fn write(inputs: &Inputs, dir: &Path) -> Result<Stash, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (i, s) in inputs.cycle.iter().enumerate() {
            let path = dir.join(i.to_string());
            std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(&s.bytes).and_then(|()| f.sync_all()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(Stash {
            dir: dir.to_path_buf(),
        })
    }
}

/// The client side of a fresh spool: its inbox and a private staging
/// directory.
struct Client<'a> {
    spool: Spool,
    staging: PathBuf,
    stash: &'a Stash,
}

impl Client<'_> {
    fn new<'a>(spool: &Spool, stash: &'a Stash) -> Result<Client<'a>, String> {
        let staging = spool.root.join("client-tmp");
        std::fs::create_dir_all(&staging).map_err(|e| format!("{}: {e}", staging.display()))?;
        Ok(Client {
            spool: Spool::attach(&spool.root)?,
            staging,
            stash,
        })
    }

    /// Stages cycle stream `stream` as `file`.
    fn stage(&self, file: &str, stream: usize) -> Result<(), String> {
        std::fs::hard_link(
            self.stash.dir.join(stream.to_string()),
            self.staging.join(file),
        )
        .map_err(|e| format!("stage {file}: {e}"))
    }

    /// Renames a staged `file` into the inbox: the submission.
    fn release(&self, file: &str) -> Result<(), String> {
        std::fs::rename(self.staging.join(file), self.spool.inbox.join(file))
            .map_err(|e| format!("submit {file}: {e}"))
    }

    /// Drops the shutdown sentinel.
    fn sentinel(&self) -> Result<(), String> {
        std::fs::write(self.staging.join(SENTINEL), b"")
            .map_err(|e| format!("stage {SENTINEL}: {e}"))?;
        self.release(SENTINEL)
    }
}

/// The daemon's shutdown sentinel in `inbox/`.
const SENTINEL: &str = "__shutdown__";

/// A daemon running on its own thread. Dropping it without
/// [`Daemon::stop`] still drops the sentinel, so an error path never
/// leaves the scope joining a daemon that never ends.
struct Daemon<'s, 'c> {
    client: &'c Client<'c>,
    handle: Option<std::thread::ScopedJoinHandle<'s, Result<DaemonExit, String>>>,
}

fn start<'s, 'c>(
    scope: &'s std::thread::Scope<'s, '_>,
    spool: &'s Spool,
    client: &'c Client<'c>,
) -> Daemon<'s, 'c> {
    let handle = scope.spawn(move || run_daemon(spool, &DaemonCfg::default()));
    Daemon {
        client,
        handle: Some(handle),
    }
}

impl Drop for Daemon<'_, '_> {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.client.sentinel();
        }
    }
}

impl Daemon<'_, '_> {
    /// Drops the sentinel (unless already dropped) and waits for the
    /// daemon to return.
    fn stop(mut self, sentinel_dropped: bool, tally: &mut Tally) -> Result<ServedStats, String> {
        if !sentinel_dropped {
            self.client.sentinel()?;
        }
        let handle = self.handle.take().expect("stop runs once");
        match handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??
        {
            DaemonExit::Drained { stats, outcome } => {
                if let DrainOutcome::Wedged { pending } = outcome {
                    tally.failed += pending.len().max(1) as u64;
                }
                Ok(*stats)
            }
            DaemonExit::Crashed => Err("daemon crashed on the real filesystem".into()),
        }
    }
}

/// What one open-loop cycle measured.
pub struct OpenLoop {
    /// Due-to-verdict latency of every small stream, ms.
    pub small_ms: Vec<f64>,
    /// How late the generator submitted each arrival, ms.
    pub lag_ms: Vec<f64>,
    /// Most streams outstanding at once.
    pub backlog_max: usize,
    /// Seconds from the last submission until every verdict existed.
    pub drain_s: f64,
    /// The daemon's final telemetry.
    pub stats: ServedStats,
    /// Verdict accounting.
    pub tally: Tally,
}

struct Outstanding {
    path: PathBuf,
    /// When the stream was due, as nanoseconds of the system clock.
    due_ns: i128,
    stream: usize,
    name: String,
}

/// Nanoseconds since the Unix epoch of a system time.
fn epoch_ns(t: SystemTime) -> i128 {
    t.duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i128)
}

/// Moves every outstanding stream whose verdict exists to `done`,
/// recording small streams' due-to-verdict latency. The verdict appears
/// by the daemon's rename, which stamps the file's status-change time:
/// that stamp, not when this thread noticed, is the completion time.
fn reap(
    inputs: &Inputs,
    outstanding: &mut Vec<Outstanding>,
    done: &mut Vec<(usize, String)>,
    small_ms: &mut Vec<f64>,
) {
    outstanding.retain(|o| {
        let Ok(meta) = std::fs::metadata(&o.path) else {
            return true;
        };
        if inputs.cycle[o.stream].kind == Kind::Small {
            let appeared = i128::from(meta.ctime()) * 1_000_000_000 + i128::from(meta.ctime_nsec());
            small_ms.push((appeared - o.due_ns).max(0) as f64 / 1e6);
        }
        done.push((o.stream, o.name.clone()));
        false
    });
}

/// The spool file name of an open-loop arrival.
fn arrival_name(inputs: &Inputs, a: &Arrival) -> String {
    format!("a{}-{}", a.cycle, inputs.cycle[a.stream].name)
}

/// One open-loop cycle against a daemon on a fresh spool.
pub fn open_loop(
    inputs: &Inputs,
    arrivals: &[Arrival],
    stash: &Stash,
    dir: &Path,
) -> Result<OpenLoop, String> {
    let spool = Spool::create(dir, Fs::real())?;
    let client = Client::new(&spool, stash)?;
    let file_of = |a: &Arrival| {
        let s = &inputs.cycle[a.stream];
        Spool::stream_file(s.tenant, &arrival_name(inputs, a), "rmatrc")
    };
    for a in arrivals {
        client.stage(&file_of(a), a.stream)?;
    }
    let mut small_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut backlog_max = 0;
    let mut tally = Tally::default();
    let mut done: Vec<(usize, String)> = Vec::new();
    let (drain_s, stats) = std::thread::scope(|scope| -> Result<(f64, ServedStats), String> {
        let daemon = start(scope, &spool, &client);
        let mut outstanding: Vec<Outstanding> = Vec::new();
        let lead = Duration::from_millis(20);
        let origin = Instant::now() + lead;
        let origin_ns = epoch_ns(SystemTime::now() + lead);
        for arrival in arrivals {
            let due = origin + arrival.due;
            reap(inputs, &mut outstanding, &mut done, &mut small_ms);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            client.release(&file_of(arrival))?;
            let s = &inputs.cycle[arrival.stream];
            let name = arrival_name(inputs, arrival);
            let path = spool.verdict_path(s.tenant, &name);
            outstanding.push(Outstanding {
                path,
                due_ns: origin_ns + arrival.due.as_nanos() as i128,
                stream: arrival.stream,
                name,
            });
            backlog_max = backlog_max.max(outstanding.len());
        }
        let last = Instant::now();
        while !outstanding.is_empty() && last.elapsed() < VERDICT_TIMEOUT {
            reap(inputs, &mut outstanding, &mut done, &mut small_ms);
            std::thread::sleep(POLL);
        }
        let drain_s = last.elapsed().as_secs_f64();
        for o in &outstanding {
            check_body(None, &inputs.cycle[o.stream], &mut tally);
        }
        Ok((drain_s, daemon.stop(false, &mut tally)?))
    })?;
    for (stream, name) in done {
        let s = &inputs.cycle[stream];
        let body = std::fs::read_to_string(spool.verdict_path(s.tenant, &name)).ok();
        check_body(body.as_deref(), s, &mut tally);
    }
    Ok(OpenLoop {
        small_ms,
        lag_ms,
        backlog_max,
        drain_s,
        stats,
        tally,
    })
}

/// What one burst measured.
pub struct Burst {
    /// Wall time from the first drop to `run_daemon` returning.
    pub wall_s: f64,
    /// Events the daemon analyzed.
    pub events: u64,
    /// The daemon's final telemetry.
    pub stats: ServedStats,
    /// Verdict accounting.
    pub tally: Tally,
}

/// One burst: a full cycle plus the sentinel dropped at once, then the
/// daemon started on it, so its first scan claims the whole cycle.
pub fn burst(inputs: &Inputs, stash: &Stash, dir: &Path) -> Result<Burst, String> {
    let spool = Spool::create(dir, Fs::real())?;
    let client = Client::new(&spool, stash)?;
    let files: Vec<String> = inputs
        .cycle
        .iter()
        .map(|s| Spool::stream_file(s.tenant, &s.name, "rmatrc"))
        .collect();
    for (i, file) in files.iter().enumerate() {
        client.stage(file, i)?;
    }
    let mut tally = Tally::default();
    let (wall_s, stats) = std::thread::scope(|scope| -> Result<(f64, ServedStats), String> {
        let t0 = Instant::now();
        for file in &files {
            client.release(file)?;
        }
        client.sentinel()?;
        let stats = start(scope, &spool, &client).stop(true, &mut tally)?;
        Ok((t0.elapsed().as_secs_f64(), stats))
    })?;
    for s in &inputs.cycle {
        let body = std::fs::read_to_string(spool.verdict_path(s.tenant, &s.name)).ok();
        check_body(body.as_deref(), s, &mut tally);
    }
    if stats.events_total != inputs.cycle_events() {
        eprintln!(
            "perfbench: daemon analyzed {} events, the reference replay {}",
            stats.events_total,
            inputs.cycle_events()
        );
        tally.failed += 1;
    }
    Ok(Burst {
        wall_s,
        events: stats.events_total,
        stats,
        tally,
    })
}
