//! Tracing used only by `--trace 1` runs: forwarding wrappers around
//! the monitor and the access stores, log2 latency buckets, and an
//! in-memory span log written out once at the end. Untraced runs never
//! construct any of these.

use rma_core::{AccessStore, MemAccess, RaceReport, StoreStats};
use rma_sim::{AbortView, HookResult, LocalEvent, Monitor, RankId, RmaEvent, WinId};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Call count and busy time of one kind of call.
#[derive(Clone, Copy, Default, Debug)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Busy {
    /// Adds one call that started at `t0`.
    pub fn add_since(&mut self, t0: Instant) {
        self.calls += 1;
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    /// Folds another accumulator in.
    pub fn absorb(&mut self, other: Busy) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Busy seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// One span: a named interval with a parent, plus the aggregated calls
/// and busy time of its layer inside that interval (one span per parent
/// and layer, never one per call).
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier shared by every span of one stream or rank-epoch.
    pub id: String,
    /// Layer or phase name.
    pub name: &'static str,
    /// Index of the parent span in the log.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Calls aggregated into the span.
    pub calls: u64,
    /// Busy nanoseconds aggregated into the span (for leaf layer
    /// spans; equals the duration for spans timing one call).
    pub busy_ns: u64,
}

/// The in-memory span log.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span at `start`; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        id: &str,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let start_ns = ns_since(self.origin, start);
        self.spans.push(Span {
            id: id.to_string(),
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 0,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `ix` at `end`.
    pub fn close(&mut self, ix: usize, end: Instant) {
        self.spans[ix].end_ns = ns_since(self.origin, end);
    }

    /// Records a finished leaf span carrying an aggregate.
    pub fn leaf(
        &mut self,
        id: &str,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
        busy: Busy,
    ) -> usize {
        let ix = self.open(id, name, Some(parent), start);
        self.close(ix, end);
        self.spans[ix].calls = busy.calls;
        self.spans[ix].busy_ns = busy.ns;
        ix
    }

    /// Span `ix`'s duration in seconds.
    pub fn secs(&self, ix: usize) -> f64 {
        let s = &self.spans[ix];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"ix\":{i},\"id\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out
    }
}

/// Log2 latency buckets: bucket `b` counts samples in `[2^b, 2^(b+1))` ns.
pub struct Log2Hist {
    buckets: [AtomicU64; 64],
}

impl Log2Hist {
    /// Empty buckets.
    pub fn new() -> Log2Hist {
        Log2Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Counts one sample.
    pub fn add(&self, ns: u64) {
        let b = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// The upper edge of the bucket holding quantile `q`, in ns.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (b + 1).min(63)) as f64;
            }
        }
        0.0
    }
}

/// What the store wrapper accumulates (statistics only, hence relaxed
/// atomics: the wrapped stores are driven by one thread at a time).
pub struct CoreAcc {
    /// `record` calls.
    pub record_calls: AtomicU64,
    /// Nanoseconds inside `record`.
    pub record_ns: AtomicU64,
    /// Nanoseconds inside `clear`.
    pub clear_ns: AtomicU64,
    /// `record` latency buckets.
    pub hist: Log2Hist,
}

impl CoreAcc {
    /// Zeroed counters.
    pub fn new() -> Arc<CoreAcc> {
        Arc::new(CoreAcc {
            record_calls: AtomicU64::new(0),
            record_ns: AtomicU64::new(0),
            clear_ns: AtomicU64::new(0),
            hist: Log2Hist::new(),
        })
    }

    /// Nanoseconds inside `record` and `clear`.
    pub fn store_ns(&self) -> u64 {
        self.record_ns.load(Ordering::Relaxed) + self.clear_ns.load(Ordering::Relaxed)
    }
}

/// Forwarding [`AccessStore`] that times `record` and `clear`.
pub struct TimedStore {
    inner: Box<dyn AccessStore + Send>,
    acc: Arc<CoreAcc>,
}

impl TimedStore {
    /// Wraps `inner`, accumulating into `acc`.
    pub fn boxed(
        inner: Box<dyn AccessStore + Send>,
        acc: &Arc<CoreAcc>,
    ) -> Box<dyn AccessStore + Send> {
        Box::new(TimedStore {
            inner,
            acc: acc.clone(),
        })
    }
}

impl AccessStore for TimedStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        let t0 = Instant::now();
        let out = self.inner.record(acc);
        let ns = t0.elapsed().as_nanos() as u64;
        self.acc.record_calls.fetch_add(1, Ordering::Relaxed);
        self.acc.record_ns.fetch_add(ns, Ordering::Relaxed);
        self.acc.hist.add(ns);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn clear(&mut self) {
        let t0 = Instant::now();
        self.inner.clear();
        self.acc
            .clear_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.inner.snapshot()
    }
}

/// The three hook classes the monitor wrapper times.
#[derive(Clone, Copy, Default, Debug)]
pub struct HookBusy {
    /// `on_local`.
    pub local: Busy,
    /// `on_rma`.
    pub rma: Busy,
    /// lock_all / unlock_all / fence / barrier / flush hooks.
    pub sync: Busy,
}

impl HookBusy {
    /// Folds another accumulator in.
    pub fn absorb(&mut self, o: &HookBusy) {
        self.local.absorb(o.local);
        self.rma.absorb(o.rma);
        self.sync.absorb(o.sync);
    }

    /// Total busy nanoseconds.
    pub fn ns(&self) -> u64 {
        self.local.ns + self.rma.ns + self.sync.ns
    }
}

/// One closed rank-epoch: from the rank's first `lock_all` hook with no
/// epoch open to the `unlock_all` hook that closes its last one.
#[derive(Clone, Debug)]
pub struct RankEpoch {
    /// The rank.
    pub rank: u32,
    /// Epoch number on that rank.
    pub epoch: u64,
    /// Opened.
    pub start: Instant,
    /// Closed.
    pub end: Instant,
    /// Hook time inside the epoch.
    pub busy: HookBusy,
}

#[derive(Default)]
struct RankAcc {
    open: u32,
    started: Option<Instant>,
    epochs: u64,
    inside: HookBusy,
    outside: HookBusy,
    closed: Vec<RankEpoch>,
}

impl RankAcc {
    fn bucket(&mut self) -> &mut HookBusy {
        if self.open > 0 {
            &mut self.inside
        } else {
            &mut self.outside
        }
    }
}

/// Forwarding [`Monitor`] that times each hook of the wrapped detector,
/// per rank and per rank-epoch.
pub struct TimedMonitor {
    inner: Arc<dyn Monitor>,
    ranks: Vec<Mutex<RankAcc>>,
    /// Collective "last arriver" hooks, which carry no rank.
    collective: Mutex<HookBusy>,
}

impl TimedMonitor {
    /// Wraps `inner` for a world of `nranks` ranks.
    pub fn new(inner: Arc<dyn Monitor>, nranks: u32) -> TimedMonitor {
        TimedMonitor {
            inner,
            ranks: (0..nranks)
                .map(|_| Mutex::new(RankAcc::default()))
                .collect(),
            collective: Mutex::new(HookBusy::default()),
        }
    }

    fn with_rank(&self, rank: RankId, f: impl FnOnce(&mut RankAcc)) {
        if let Some(r) = self.ranks.get(rank.0 as usize) {
            f(&mut r.lock().expect("rank accumulator lock"));
        }
    }

    /// Closed rank-epochs, plus every rank's hook time outside epochs.
    pub fn take(&self) -> (Vec<RankEpoch>, HookBusy) {
        let mut epochs = Vec::new();
        let mut outside = *self.collective.lock().expect("collective lock");
        for r in &self.ranks {
            let mut r = r.lock().expect("rank accumulator lock");
            epochs.append(&mut r.closed);
            outside.absorb(&r.outside);
        }
        (epochs, outside)
    }

    fn sync_hook<T>(&self, rank: RankId, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.with_rank(rank, |r| r.bucket().sync.add_since(t0));
        out
    }
}

impl Monitor for TimedMonitor {
    fn on_world_start(&self, nranks: u32) {
        self.inner.on_world_start(nranks);
    }

    fn on_abort_view(&self, view: AbortView) {
        self.inner.on_abort_view(view);
    }

    fn on_world_end(&self) {
        self.inner.on_world_end();
    }

    fn on_rank_finish(&self, rank: RankId) {
        self.inner.on_rank_finish(rank);
    }

    fn on_local(&self, ev: &LocalEvent) -> HookResult {
        let t0 = Instant::now();
        let out = self.inner.on_local(ev);
        self.with_rank(ev.rank, |r| r.bucket().local.add_since(t0));
        out
    }

    fn on_rma(&self, ev: &RmaEvent) -> HookResult {
        let t0 = Instant::now();
        let out = self.inner.on_rma(ev);
        self.with_rank(ev.origin, |r| r.bucket().rma.add_since(t0));
        out
    }

    fn on_win_allocate(&self, rank: RankId, win: WinId, base: u64, len: u64) {
        self.inner.on_win_allocate(rank, win, base, len);
    }

    fn on_win_free(&self, rank: RankId, win: WinId) {
        self.inner.on_win_free(rank, win);
    }

    fn on_lock_all(&self, rank: RankId, win: WinId) {
        let t0 = Instant::now();
        self.with_rank(rank, |r| {
            if r.open == 0 {
                r.started = Some(t0);
            }
            r.open += 1;
        });
        self.inner.on_lock_all(rank, win);
        self.with_rank(rank, |r| r.inside.sync.add_since(t0));
    }

    fn on_unlock_all(&self, rank: RankId, win: WinId) -> HookResult {
        let t0 = Instant::now();
        let out = self.inner.on_unlock_all(rank, win);
        self.with_rank(rank, |r| {
            r.inside.sync.add_since(t0);
            r.open = r.open.saturating_sub(1);
            if r.open == 0 {
                if let Some(start) = r.started.take() {
                    let busy = std::mem::take(&mut r.inside);
                    r.closed.push(RankEpoch {
                        rank: rank.0,
                        epoch: r.epochs,
                        start,
                        end: Instant::now(),
                        busy,
                    });
                    r.epochs += 1;
                }
            }
        });
        out
    }

    fn on_flush_all(&self, rank: RankId, win: WinId) {
        self.sync_hook(rank, || self.inner.on_flush_all(rank, win));
    }

    fn on_flush(&self, rank: RankId, win: WinId, target: RankId) {
        self.sync_hook(rank, || self.inner.on_flush(rank, win, target));
    }

    fn on_fence(&self, rank: RankId, win: WinId) {
        self.sync_hook(rank, || self.inner.on_fence(rank, win));
    }

    fn on_fence_last(&self, win: WinId) {
        let t0 = Instant::now();
        self.inner.on_fence_last(win);
        self.collective
            .lock()
            .expect("collective lock")
            .sync
            .add_since(t0);
    }

    fn on_barrier(&self, rank: RankId) {
        self.sync_hook(rank, || self.inner.on_barrier(rank));
    }

    fn on_barrier_last(&self) {
        let t0 = Instant::now();
        self.inner.on_barrier_last();
        self.collective
            .lock()
            .expect("collective lock")
            .sync
            .add_since(t0);
    }

    fn on_fault_kill_worker(&self, rank: RankId) -> bool {
        self.inner.on_fault_kill_worker(rank)
    }
}

/// Forwards every hook to a recorder except loads and stores the alias
/// analysis filtered out: the recording then holds exactly what the
/// detector's stores see, without the program's untracked traffic.
pub struct TrackedOnly(pub Arc<dyn Monitor>);

impl Monitor for TrackedOnly {
    fn on_world_start(&self, nranks: u32) {
        self.0.on_world_start(nranks);
    }

    fn on_world_end(&self) {
        self.0.on_world_end();
    }

    fn on_rank_finish(&self, rank: RankId) {
        self.0.on_rank_finish(rank);
    }

    fn on_local(&self, ev: &LocalEvent) -> HookResult {
        if ev.tracked {
            self.0.on_local(ev)
        } else {
            Ok(())
        }
    }

    fn on_rma(&self, ev: &RmaEvent) -> HookResult {
        self.0.on_rma(ev)
    }

    fn on_win_allocate(&self, rank: RankId, win: WinId, base: u64, len: u64) {
        self.0.on_win_allocate(rank, win, base, len);
    }

    fn on_win_free(&self, rank: RankId, win: WinId) {
        self.0.on_win_free(rank, win);
    }

    fn on_lock_all(&self, rank: RankId, win: WinId) {
        self.0.on_lock_all(rank, win);
    }

    fn on_unlock_all(&self, rank: RankId, win: WinId) -> HookResult {
        self.0.on_unlock_all(rank, win)
    }

    fn on_flush_all(&self, rank: RankId, win: WinId) {
        self.0.on_flush_all(rank, win);
    }

    fn on_flush(&self, rank: RankId, win: WinId, target: RankId) {
        self.0.on_flush(rank, win, target);
    }

    fn on_fence(&self, rank: RankId, win: WinId) {
        self.0.on_fence(rank, win);
    }

    fn on_fence_last(&self, win: WinId) {
        self.0.on_fence_last(win);
    }

    fn on_barrier(&self, rank: RankId) {
        self.0.on_barrier(rank);
    }

    fn on_barrier_last(&self) {
        self.0.on_barrier_last();
    }
}
