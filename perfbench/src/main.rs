//! `perfbench` — the repository's end-to-end benchmark (see
//! `BENCHMARK.json` and `perfbench/WORKLOADS.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live-cfd --seed 1 --seconds 36 --trace 0
//! ```
//!
//! A run is a series of rounds. Each round runs a 2-rank program live
//! under the paper's detector (`epoch_s`, `run_s`), then serves the
//! workload's streams through an in-process `rma_served::run_daemon`:
//! one open-loop cycle (`serve_cpu_s`, `small_verdict_*_ms`) and, every
//! third round, one burst (`events_per_s`). A fixed calibration kernel
//! timed in every round tracks the host's speed; the bounded metrics
//! (`epoch_x`, `run_x`, `serve_cpu_x`) are the timings in multiples of it. `--trace 1` runs the same workload with per-layer
//! wrappers and prints the per-layer metrics instead.
//! The last line of standard output is the JSON result; the command
//! exits non-zero on any wrong verdict.
//!
//! Extra flags: `--self-test` checks the seed contract of every
//! workload; `--inject-mismatch` corrupts one reference verdict, which
//! must make the run fail.

mod inputs;
mod layers;
mod report;
mod served;
mod traced;

use inputs::{Inputs, Workload};
use report::{median, quantile, Metrics};
use served::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Least time each round spends on live program runs.
const LIVE_ROUND: Duration = Duration::from_millis(800);
/// Fewest rounds per run.
const MIN_ROUNDS: usize = 5;
/// Every this many rounds, starting with the first, ends with a burst.
const BURST_EVERY: usize = 3;
/// Keys the calibration kernel inserts (about 0.1 s of CPU).
const CALIBRATION_KEYS: u64 = 400_000;
/// Where runs keep their spools and span logs, under the checkout.
const WORK_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_mismatch: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LiveCfd,
        seed: 1,
        seconds: 36.0,
        trace: false,
        inject_mismatch: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--inject-mismatch" => args.inject_mismatch = true,
            "--self-test" => args.self_test = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory, in every arena, to the system.
    fn malloc_trim(pad: usize) -> i32;
    /// POSIX: reads clock `clock` into `tp`.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, all threads included.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Resets `VmHWM` so the peak covers only what follows. Free memory
/// earlier phases left cached in the allocator is released first, so the
/// starting point is the live heap, not whatever happened to be retained.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes no pointers and only hands free pages
    // back to the kernel; it is sound to call from any thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Set-up, repeated: every repetition must build byte-identical inputs.
fn setup(args: &Args) -> Result<(Inputs, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Inputs> = None;
    let reps = if args.trace { 1 } else { SETUPS };
    for _ in 0..reps {
        let t0 = Instant::now();
        let built = inputs::build(args.workload, args.seed);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &kept {
            if prev.fingerprint() != built.fingerprint() {
                return Err(format!(
                    "seed {} built different inputs on two set-ups",
                    args.seed
                ));
            }
        }
        kept = Some(built);
    }
    let mut inputs = kept.expect("at least one set-up");
    if args.inject_mismatch {
        inputs.cycle[0].verdict.push_str(" (injected mismatch)");
    }
    Ok((inputs, times))
}

/// What one round measured.
struct Round {
    live: Vec<inputs::ProgramRun>,
    small_p50: f64,
    small_p99: f64,
    /// CPU seconds the process spent on the open-loop cycle.
    serve_cpu_s: f64,
    /// CPU seconds of the calibration kernel: the median of one run
    /// before the live runs, one before and one after the open loop.
    calib_cpu_s: f64,
    /// The highest peak RSS of the round's units, MiB.
    peak_rss_mb: f64,
    /// Burst throughput, on rounds that end with a burst.
    events_per_s: Option<f64>,
    /// The open loop kept up and met its latency limit.
    met: bool,
}

/// A fixed kernel of the benchmark's own, independent of every crate
/// under test: random inserts into and a walk over an ordered map,
/// allocation- and pointer-bound like decoding and the detector's
/// stores. Returns the CPU seconds it took, which track the host's
/// current speed.
fn calibration_cpu_s() -> f64 {
    let cpu0 = process_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map = std::collections::BTreeMap::new();
    for i in 0..CALIBRATION_KEYS {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    let sum = map.iter().fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v));
    std::hint::black_box(sum);
    drop(map);
    process_cpu_s() - cpu0
}

/// One round: live runs for at least [`LIVE_ROUND`], one open-loop
/// cycle and, every [`BURST_EVERY`] rounds, one burst.
fn round(
    inputs: &Inputs,
    r: usize,
    stash: &served::Stash,
    work: &Path,
    tally: &mut Tally,
) -> Result<Round, String> {
    let mut rss: Vec<f64> = Vec::new();
    let mut calib = vec![calibration_cpu_s()];
    let mut live = Vec::new();
    let t0 = Instant::now();
    while live.is_empty() || t0.elapsed() < LIVE_ROUND {
        reset_peak_rss()?;
        let method = rma_apps::MethodRun::new(rma_apps::Method::Contribution, inputs::RANKS);
        let run = inputs.program.run(&method);
        rss.push(peak_rss_mb()?);
        inputs.check_live(&run, tally);
        live.push(run);
    }

    let dir = work.join(format!("open-loop-{r}"));
    let arrivals = &inputs.schedules[r % inputs.schedules.len()];
    calib.push(calibration_cpu_s());
    reset_peak_rss()?;
    let cpu0 = process_cpu_s();
    let open = served::open_loop(inputs, arrivals, stash, &dir)?;
    let serve_cpu_s = process_cpu_s() - cpu0;
    rss.push(peak_rss_mb()?);
    calib.push(calibration_cpu_s());
    let _ = std::fs::remove_dir_all(&dir);
    tally.absorb(open.tally);
    let mut small = open.small_ms;
    let small_p99 = quantile(&mut small, 0.99);
    // The rate is met when the backlog stayed bounded (everything
    // answered soon after the last arrival) and p99 is within its limit.
    let met = open.drain_s < 2.0
        && open.backlog_max < inputs.cycle.len()
        && small_p99 <= inputs::P99_LIMIT_MS;

    let mut events_per_s = None;
    if r.is_multiple_of(BURST_EVERY) {
        let dir = work.join(format!("burst-{r}"));
        reset_peak_rss()?;
        let burst = served::burst(inputs, stash, &dir)?;
        rss.push(peak_rss_mb()?);
        let _ = std::fs::remove_dir_all(&dir);
        tally.absorb(burst.tally);
        events_per_s = Some(burst.events as f64 / burst.wall_s);
    }

    Ok(Round {
        live,
        small_p50: quantile(&mut small, 0.50),
        small_p99,
        serve_cpu_s,
        calib_cpu_s: median(calib),
        peak_rss_mb: rss.iter().copied().fold(0.0, f64::max),
        events_per_s,
        met,
    })
}

/// The untraced run: rounds until `--seconds` is used up, every
/// end-to-end metric a median over them (see `WORKLOADS.md`).
fn measure(
    args: &Args,
    inputs: &Inputs,
    setup_times: &[f64],
    work: &Path,
) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let stash = served::Stash::write(inputs, &work.join("stash"))?;
    let mut rounds = Vec::new();
    // Stop at the round boundary nearest the budget, so a run measures
    // `--seconds` on average rather than up to one round more.
    let half_round = |n: usize| t0.elapsed() / (2 * n.max(1)) as u32;
    while rounds.len() < MIN_ROUNDS || t0.elapsed() + half_round(rounds.len()) < budget {
        rounds.push(round(
            inputs,
            rounds.len(),
            &stash,
            work,
            &mut tally,
        )?);
    }

    let live = || rounds.iter().flat_map(|r| r.live.iter());
    let mut m = Metrics::default();
    m.secs("setup_s", median(setup_times.iter().copied()));
    // The host's speed shifts by up to 1.8x between and within runs, so
    // every timing is also reported in multiples of the calibration
    // kernel's CPU time in the same round (see WORKLOADS.md).
    let scaled = |f: fn(&inputs::ProgramRun) -> f64| {
        median(
            rounds
                .iter()
                .flat_map(|r| r.live.iter().map(move |p| f(p) / r.calib_cpu_s)),
        )
    };
    m.push("epoch_x", scaled(|p| p.epoch_s), "x");
    m.push("run_x", scaled(|p| p.run_s), "x");
    m.push(
        "serve_cpu_x",
        median(rounds.iter().map(|r| r.serve_cpu_s / r.calib_cpu_s)),
        "x",
    );
    // Each round's highest peak of any unit, each from a trimmed heap.
    m.push(
        "peak_rss_mb",
        median(rounds.iter().map(|r| r.peak_rss_mb)),
        "MiB",
    );

    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    println!(
        "samples: {} set-ups, {} rounds, {} live runs, {} small streams at {} streams/s \
         (p99 limit {} ms met in {} rounds)",
        setup_times.len(),
        rounds.len(),
        live().count(),
        rounds.len()
            * inputs
                .cycle
                .iter()
                .filter(|s| s.kind == inputs::Kind::Small)
                .count(),
        inputs::OPEN_LOOP_RATE,
        inputs::P99_LIMIT_MS,
        rounds.iter().filter(|r| r.met).count(),
    );
    // Too host-sensitive for a bound (see WORKLOADS.md): printed here,
    // reported as per-layer metrics by the traced run.
    println!(
        "small_verdict_p50_ms {:.3} ms, small_verdict_p99_ms {:.3} ms, events_per_s {:.0} events/s \
         (medians over rounds; no bound)",
        median(rounds.iter().map(|r| r.small_p50)),
        median(rounds.iter().map(|r| r.small_p99)),
        median(rounds.iter().filter_map(|r| r.events_per_s)),
    );
    println!(
        "per round: small_verdict_p99_ms {:.1?}",
        per_round(|r| r.small_p99)
    );
    println!(
        "epoch_s {:.6} s, run_s {:.6} s, serve_cpu_s {:.6} s, calibration {:.6} s \
         (medians, as measured; the x metrics divide them by the calibration)",
        median(live().map(|p| p.epoch_s)),
        median(live().map(|p| p.run_s)),
        median(rounds.iter().map(|r| r.serve_cpu_s)),
        median(rounds.iter().map(|r| r.calib_cpu_s)),
    );
    println!(
        "per round: serve_cpu_s {:.3?}",
        per_round(|r| r.serve_cpu_s)
    );
    println!(
        "per round: calibration cpu s {:.4?}",
        per_round(|r| r.calib_cpu_s)
    );
    println!(
        "per burst: events_per_s {:.0?}",
        rounds
            .iter()
            .filter_map(|r| r.events_per_s)
            .collect::<Vec<f64>>()
    );
    println!(
        "per live run: epoch_s {:.4?}",
        live().map(|p| p.epoch_s).collect::<Vec<f64>>()
    );
    println!(
        "per round: serve_cpu_x {:.3?}",
        per_round(|r| r.serve_cpu_s / r.calib_cpu_s)
    );
    Ok((m, tally))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.self_test {
        for w in Workload::ALL {
            inputs::self_test(w, args.seed)?;
            println!("self-test {}: ok", w.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let work = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    println!(
        "workload {} seed {}: {} ranks (direct delivery), daemon {} workers, 1 generator thread, {} cores available",
        args.workload.name(),
        args.seed,
        inputs::RANKS,
        rma_served::ServeCfg::default().workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (inputs, setup_times) = setup(args)?;
    let (metrics, tally) = if args.trace {
        traced::run(&inputs, &work)?
    } else {
        measure(args, &inputs, &setup_times, &work)?
    };
    metrics.print();
    println!(
        "{:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    // Span logs stay for inspection; spools go.
    if !args.trace {
        let _ = std::fs::remove_dir_all(&work);
    }
    let correct = tally.failed == 0;
    println!("{}", metrics.json(correct, tally.attempted, tally.failed));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
