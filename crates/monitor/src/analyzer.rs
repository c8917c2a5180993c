//! The RMA-Analyzer runtime: glue between the simulator's instrumentation
//! events and the per-(rank, window) access stores of `rma-core`,
//! implementing the paper's Section 5.1 protocol:
//!
//! * one access store ("BST") per window per MPI process, holding the
//!   owner's local accesses and all remote accesses into the window;
//! * every remote access is *notified* to the target — either inserted
//!   directly under the target store's lock ([`Delivery::Direct`]) or
//!   sent as a message to a per-rank receiver thread
//!   ([`Delivery::Messages`], the paper's design: "each time a remote
//!   access is initiated... an MPI_Send is called... a thread is created
//!   to receive all the MPI_Send");
//! * at `MPI_Win_unlock_all`, all processes join a reduction computing
//!   how many remote accesses were issued towards each window, wait for
//!   those notifications to be processed, and clear their store (end of
//!   epoch);
//! * a `MPI_Win_flush_all` followed by a barrier in which *every* rank
//!   participated with no one-sided operation issued in between clears
//!   the stores too (the synchronization pattern recommended in the
//!   paper's Section 6).
//!
//! The alias-analysis stand-in: local events flagged `tracked = false`
//! are skipped, like the loads/stores the LLVM alias analysis proves
//! irrelevant. (The MUST-like detector of `rma-must` processes them all —
//! that difference is a measured overhead source in the paper.)

use crate::reduce::KeyedReduce;
use rma_substrate::channel::{unbounded, Receiver, Sender};
use rma_substrate::sync::{Condvar, Mutex};
use rma_core::{
    AccessStore, FlatStore, FragMergeStore, Interval, LegacyStore, MemAccess, MemGauge,
    MeteredStore, NaiveStore, RaceReport, StoreRebuild, StoreStats,
};
use rma_sim::{AbortView, HookResult, LocalEvent, Monitor, RankId, RmaEvent, WinId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which insertion algorithm backs the per-(rank, window) stores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// The pre-paper RMA-Analyzer (path-bound check, no fragmentation, no
    /// merging).
    Legacy,
    /// The paper's contribution (Algorithm 1).
    FragMerge,
    /// Ablation: fragmentation without the merging pass.
    FragmentOnly,
    /// Ablation: full history kept in a flat vector, `O(n)` checks.
    FullHistory,
    /// The paper's Section 6(3) future-work extension: constant-stride
    /// merging of non-adjacent accesses (prototype, see
    /// `rma_core::stride`).
    StrideExtension,
}

impl Algorithm {
    /// Human-readable name used by the benchmark harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Legacy => "RMA-Analyzer",
            Algorithm::FragMerge => "Our Contribution",
            Algorithm::FragmentOnly => "Fragmentation-only",
            Algorithm::FullHistory => "Full-history",
            Algorithm::StrideExtension => "Stride-merging (Sec. 6 ext.)",
        }
    }

    /// Builds one fresh per-(rank, window) store of this algorithm's
    /// flavour. Public so offline pipelines (trace replay, corpus
    /// benchmarks) can feed recorded event streams through exactly the
    /// store the live analyzer would have used.
    pub fn new_store(self) -> Box<dyn AccessStore + Send> {
        self.new_store_budgeted(None)
    }

    /// Like [`Algorithm::new_store`], with an optional node budget for
    /// graceful degradation under memory pressure. Only the
    /// fragmentation-based stores enforce a budget (they own the
    /// disjointness invariant that makes conservative coalescing sound);
    /// the other flavours ignore it.
    pub fn new_store_budgeted(self, budget: Option<usize>) -> Box<dyn AccessStore + Send> {
        match (self, budget) {
            (Algorithm::Legacy, _) => Box::new(LegacyStore::new()),
            (Algorithm::FragMerge, None) => Box::new(FragMergeStore::new()),
            (Algorithm::FragMerge, Some(cap)) => Box::new(FragMergeStore::with_budget(cap)),
            (Algorithm::FragmentOnly, None) => Box::new(FragMergeStore::without_merging()),
            (Algorithm::FragmentOnly, Some(cap)) => {
                Box::new(FragMergeStore::without_merging_budgeted(cap))
            }
            (Algorithm::FullHistory, _) => Box::new(NaiveStore::new()),
            (Algorithm::StrideExtension, _) => Box::new(rma_core::StrideMergeStore::new()),
        }
    }

    /// Aggregated statistics over a set of per-store stats (uniform
    /// across store flavours — no downcasting).
    pub fn aggregate_stats(stats: impl IntoIterator<Item = StoreStats>) -> StoreStats {
        let mut total = StoreStats::default();
        for s in stats {
            total.absorb(&s);
        }
        total
    }
}

/// What to do when a race is detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnRace {
    /// Abort the world (`MPI_Abort`), like the real tool.
    Abort,
    /// Record the report and keep running (used by the validation suite
    /// and by benchmarks on racy inputs).
    Collect,
}

/// How remote-access records reach the target's store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// The origin thread inserts into the target's store under its lock.
    /// Same detection semantics as `Messages`, minus the threading.
    Direct,
    /// The origin sends a notification to the target's receiver thread,
    /// which performs the insertion — the paper's architecture.
    Messages,
}

/// Analyzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerCfg {
    /// Insertion algorithm.
    pub algorithm: Algorithm,
    /// Race reaction.
    pub on_race: OnRace,
    /// Notification transport.
    pub delivery: Delivery,
    /// Per-store node budget: when set, every per-(rank, window) store
    /// conservatively coalesces its contents whenever the node count
    /// exceeds this cap (graceful degradation — possible false positives,
    /// never false negatives; see [`rma_core::FragMergeStore::with_budget`]).
    pub node_budget: Option<usize>,
    /// How many receiver-thread deaths ([`Delivery::Messages`]) each
    /// rank's supervisor absorbs by checkpoint-restore + journal
    /// redelivery before giving up. Beyond the budget a dead receiver
    /// becomes a structured world abort, never a hang. `0` disables
    /// recovery. Ignored under [`Delivery::Direct`] (no helper threads).
    pub max_respawns: u32,
    /// `Messages`-mode batching: each origin rank coalesces up to this
    /// many per-target notifications into one [`Note::Batch`], flushed at
    /// synchronization points (`unlock_all`, `fence`, `barrier`, world
    /// end) and whenever the buffer reaches the threshold. `1` (the
    /// default) sends each notification immediately — today's behaviour.
    /// Ignored under [`Delivery::Direct`].
    pub batch_size: usize,
}

impl Default for AnalyzerCfg {
    fn default() -> Self {
        AnalyzerCfg {
            algorithm: Algorithm::FragMerge,
            on_race: OnRace::Abort,
            delivery: Delivery::Direct,
            node_budget: None,
            max_respawns: 3,
            batch_size: 1,
        }
    }
}

impl AnalyzerCfg {
    /// Configuration with the given algorithm, aborting on races, direct
    /// delivery.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        AnalyzerCfg { algorithm, ..Self::default() }
    }

    /// The same configuration with a per-store node budget applied.
    pub fn budgeted(self, cap: usize) -> Self {
        AnalyzerCfg { node_budget: Some(cap), ..self }
    }

    /// Builds one per-(rank, window) store: the chunked
    /// [`rma_core::FlatStore`] for the fragmentation-based algorithms —
    /// the production engine, identical in contents and verdicts to the
    /// paper-faithful [`rma_core::FragMergeStore`] — and
    /// [`Algorithm::new_store_budgeted`] for the rest. `_domain` (the
    /// window's address range, when known) is unused.
    pub fn build_store(&self, _domain: Option<Interval>) -> Box<dyn AccessStore + Send> {
        match self.algorithm {
            Algorithm::FragMerge => FlatStore::boxed(true, self.node_budget),
            Algorithm::FragmentOnly => FlatStore::boxed(false, self.node_budget),
            algorithm => algorithm.new_store_budgeted(self.node_budget),
        }
    }

    /// Like [`AnalyzerCfg::build_store`], but the store keeps its node
    /// count synced into `gauge` and retro-coalesces (FP-only, see
    /// [`rma_core::gauge`]) when the gauge crosses its budget and this
    /// store exceeds its fair share. Brownout replacements are built
    /// from this same configuration with `node_budget` set to the cap.
    pub fn build_store_metered(&self, gauge: &MemGauge) -> Box<dyn AccessStore + Send> {
        let cfg = *self;
        let rebuild: StoreRebuild = Box::new(move |cap| cfg.budgeted(cap).build_store(None));
        Box::new(MeteredStore::new(self.build_store(None), rebuild, gauge.clone()))
    }
}

/// Pads (and aligns) `T` to its own pair of cache lines, so that state
/// written by one rank thread never shares a line with another's
/// (adjacent-line prefetch pulls lines in pairs, hence 128 bytes).
#[repr(align(128))]
struct CacheLine<T>(T);

/// Per-target `sent` counters held in one [`CacheLine`].
const SENT_PER_LINE: usize = 16;

/// One rank's share of a window's detector state. Every field but the
/// store lock is written only by the rank itself (or, for `received`,
/// by whoever just inserted into this rank's store under that lock), so
/// a hook on rank `r` touches no other rank's lines except the target
/// store of a remote access (DESIGN §11.4).
#[repr(align(128))]
struct RankSlot {
    store: Mutex<Box<dyn AccessStore + Send>>,
    epoch_open: AtomicBool,
    /// Has the rank called `flush_all` with no one-sided operation issued
    /// since?
    flushed: AtomicBool,
    epoch_seq: AtomicU64,
    /// Cumulative count of remote-access records processed at this rank.
    received: AtomicU64,
    /// Cumulative count of remote accesses this rank issued towards each
    /// target `t`, at `sent[t / SENT_PER_LINE].0[t % SENT_PER_LINE]`.
    sent: Box<[CacheLine<[AtomicU64; SENT_PER_LINE]>]>,
}

impl RankSlot {
    fn sent_to(&self, target: RankId) -> &AtomicU64 {
        let t = target.index();
        &self.sent[t / SENT_PER_LINE].0[t % SENT_PER_LINE]
    }

    /// This rank's cumulative per-target counts, `nranks` of them.
    fn sent_counts(&self, nranks: usize) -> impl Iterator<Item = u64> + '_ {
        self.sent.iter().flat_map(|l| &l.0).take(nranks).map(|c| c.load(Ordering::Relaxed))
    }
}

/// Per-window detector state shared by all ranks.
struct WinDet {
    slots: Box<[RankSlot]>,
    /// Ranks inside [`WinDet::wait_received`]: `received` bumps take the
    /// gate and notify only while this is non-zero.
    waiters: AtomicUsize,
    /// Wakes ranks waiting for `received` to advance.
    recv_gate: (Mutex<()>, Condvar),
}

impl WinDet {
    fn new(nranks: u32, cfg: &AnalyzerCfg) -> Self {
        let n = nranks as usize;
        let slot = || RankSlot {
            store: Mutex::new(cfg.build_store(None)),
            epoch_open: AtomicBool::new(false),
            flushed: AtomicBool::new(false),
            epoch_seq: AtomicU64::new(0),
            received: AtomicU64::new(0),
            sent: (0..n.div_ceil(SENT_PER_LINE))
                .map(|_| CacheLine(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        };
        WinDet {
            slots: (0..n).map(|_| slot()).collect(),
            waiters: AtomicUsize::new(0),
            recv_gate: (Mutex::new(()), Condvar::new()),
        }
    }

    fn slot(&self, rank: RankId) -> &RankSlot {
        &self.slots[rank.index()]
    }

    /// Publishes one more processed record at `target` and wakes any
    /// rank waiting on it.
    fn bump_received(&self, target: RankId) {
        self.slot(target).received.fetch_add(1, Ordering::SeqCst);
        self.wake_waiters();
    }

    /// Notifies the gate, but only while a waiter is registered: with
    /// nobody in [`WinDet::wait_received`] — always under
    /// [`Delivery::Direct`] until epoch end — a bump is one atomic add.
    /// Both sides use SeqCst: the waiter counts itself in before it
    /// checks `received`, the bumper adds before it checks `waiters`, so
    /// at least one of them sees the other's write.
    fn wake_waiters(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            let _g = self.recv_gate.0.lock();
            self.recv_gate.1.notify_all();
        }
    }

    /// Waits until `rank` has processed `expected` records; `false` on
    /// cancel/timeout. The 2 ms timed wait stays as a backstop.
    fn wait_received(&self, rank: RankId, expected: u64, cancelled: impl Fn() -> bool) -> bool {
        let received = &self.slot(rank).received;
        if received.load(Ordering::SeqCst) >= expected {
            return true;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.recv_gate.0.lock();
        let done = loop {
            if received.load(Ordering::SeqCst) >= expected {
                break true;
            }
            if cancelled() || Instant::now() >= deadline {
                break false;
            }
            self.recv_gate.1.wait_for(&mut guard, Duration::from_millis(2));
        };
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        done
    }

    /// Notifications issued towards any rank of this window, and records
    /// processed at their targets.
    fn notifications(&self) -> (u64, u64) {
        let n = self.slots.len();
        let sent = self.slots.iter().flat_map(|s| s.sent_counts(n)).sum();
        let received = self.slots.iter().map(|s| s.received.load(Ordering::Acquire)).sum();
        (sent, received)
    }

    /// Polls until every notification issued on this window has been
    /// processed (only `Messages` mode can lag); `false` on a 5 s
    /// timeout or cancellation. Callers hold every rank thread parked in
    /// a collective, so `sent` no longer moves.
    fn drain(&self, cancelled: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (sent, received) = self.notifications();
            if received >= sent {
                return true;
            }
            if Instant::now() >= deadline || cancelled() {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Buckets of the window table: bucket `b` holds windows
/// `2^b - 1 .. 2^(b+1) - 1`, enough buckets for every `u32` window id.
const WIN_BUCKETS: usize = u32::BITS as usize + 1;

/// Append-only table of per-window state with no fixed capacity.
/// Buckets double in size and are never moved once allocated, so a
/// lookup is two acquire loads (bucket, then slot) and hands out a plain
/// `&WinDet`: no lock, no refcount. Appends are serialized by `grown`.
struct WinTable {
    buckets: [OnceLock<Box<[OnceLock<WinDet>]>>; WIN_BUCKETS],
    /// Windows appended so far; slots are filled in index order.
    grown: Mutex<usize>,
}

impl WinTable {
    fn new() -> Self {
        WinTable { buckets: std::array::from_fn(|_| OnceLock::new()), grown: Mutex::new(0) }
    }

    /// (bucket, offset) of window index `i`.
    fn locate(i: usize) -> (usize, usize) {
        let k = i + 1;
        let b = (usize::BITS - 1 - k.leading_zeros()) as usize;
        (b, k - (1 << b))
    }

    fn get(&self, win: WinId) -> &WinDet {
        let (b, off) = Self::locate(win.index());
        self.buckets[b]
            .get()
            .and_then(|bucket| bucket[off].get())
            .unwrap_or_else(|| panic!("RMA-Analyzer hook on unallocated window {win:?}"))
    }

    /// Appends windows until `win` exists.
    fn ensure(&self, win: WinId, make: impl Fn() -> WinDet) {
        let mut grown = self.grown.lock();
        while *grown <= win.index() {
            let (b, off) = Self::locate(*grown);
            let bucket =
                self.buckets[b].get_or_init(|| (0..1usize << b).map(|_| OnceLock::new()).collect());
            let _ = bucket[off].set(make());
            *grown += 1;
        }
    }

    /// Every window allocated so far, in id order.
    fn iter(&self) -> impl Iterator<Item = (WinId, &WinDet)> {
        self.buckets
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|bucket| bucket.iter())
            .map_while(OnceLock::get)
            .enumerate()
            .map(|(i, w)| (WinId(i as u32), w))
    }
}

/// A remote-access notification (the payload of the paper's `MPI_Send`).
/// `seq` numbers the notifications towards one target rank monotonically
/// (assigned under that rank's journal lock, so channel order equals
/// sequence order): redelivery after a receiver recovery is at-least-once
/// on the wire and the watermark check in `deliver_remote_recv` makes it
/// exactly-once in analysis effect.
enum Note {
    Remote { seq: u64, win: WinId, acc: MemAccess },
    /// A coalesced run of notifications from one origin, numbered
    /// `base_seq..base_seq + items.len()` in order. The receiver applies
    /// items one at a time with the same watermark discipline as
    /// [`Note::Remote`], so a crash mid-batch leaves the watermark
    /// mid-batch and recovery re-delivers exactly the unprocessed tail.
    Batch { base_seq: u64, items: Vec<(WinId, MemAccess)> },
    Stop,
}

/// One supervised journal entry (`Messages` mode): an access bound for
/// rank `r`'s stores, retained since `r`'s last checkpoint so a receiver
/// death can be recovered by restore + redelivery.
enum RecvEntry {
    /// Inserted inline by a rank thread (a local access or the
    /// origin-side record of an operation): already applied, so a
    /// recovery replays it *silently* — its race, if any, was reported
    /// when first recorded.
    Applied { win: WinId, acc: MemAccess },
    /// Sent to the receiver as a notification. On recovery the
    /// watermark decides: at or below it the entry was processed
    /// (silent replay); above it the entry is still owed and is re-sent
    /// through the fresh channel and the normal reporting path.
    Sent { seq: u64, win: WinId, acc: MemAccess },
}

/// A live receiver thread plus its abrupt-kill switch. The flag is
/// checked before each note: setting it makes the receiver abandon its
/// backlog, which is how a *crash* differs from a clean `Note::Stop`
/// (FIFO delivery would let a queued Stop drain the backlog first).
struct RecvWorker {
    die: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Supervision journal of one rank's receiver (guarded state).
#[derive(Default)]
struct RecvJournal {
    /// Everything bound for this rank's stores since the checkpoint.
    entries: Vec<RecvEntry>,
    /// Notifications sent towards this rank so far (seqs `1..=sent_seq`).
    sent_seq: u64,
    /// Per-window snapshots of this rank's stores, taken at the last
    /// quiescent epoch boundary (windows created later restore empty).
    checkpoint: Vec<Vec<MemAccess>>,
    /// Recoveries performed for this rank so far.
    respawns: u32,
    /// The receiver thread; `None` once dead beyond the budget.
    worker: Option<RecvWorker>,
    /// The live receiver's channel (replaced on recovery, dropped at
    /// world end): every send happens under this journal lock.
    tx: Option<Sender<Note>>,
}

impl RecvJournal {
    /// Sends through the live channel; `false` if the receiver is gone.
    fn send(&self, note: Note) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(note).is_ok())
    }
}

/// Per-rank receiver supervision (`Messages` mode).
///
/// Lock order: `journal` → store lock. The receiver itself never takes
/// `journal`, so killing and joining it while holding the journal lock
/// cannot deadlock.
#[repr(align(128))]
struct RecvSup {
    journal: Mutex<RecvJournal>,
    /// Highest notification seq fully processed at this rank (the
    /// redelivery watermark). Advanced only by the receiver, under the
    /// target store's lock; read by recovery after joining the dead
    /// receiver, so it is exact there.
    processed: AtomicU64,
}

/// One origin rank's unflushed notification batch towards one target:
/// the window and access of every buffered `Note` item, in issue order.
type BatchBuf = CacheLine<Mutex<Vec<(WinId, MemAccess)>>>;

/// Shared innards of the analyzer (receiver threads hold a second Arc).
struct Inner {
    cfg: AnalyzerCfg,
    nranks: AtomicU64,
    wins: WinTable,
    collected: Mutex<Vec<RaceReport>>,
    reduce: KeyedReduce<(u32, u64, u8)>,
    poisoned: AtomicBool,
    abort_view: Mutex<Option<AbortView>>,
    /// Per-rank receiver supervision (`Messages` mode; unset otherwise).
    sup: OnceLock<Box<[RecvSup]>>,
    /// `Messages`-mode batch buffers, `pending[origin * nranks + target]`:
    /// window and access of every notification origin has issued towards
    /// target but not yet flushed into target's journal + channel. Set
    /// at world start only when `batch_size > 1`.
    /// Lock order: buffer mutex → target journal (never the reverse).
    pending: OnceLock<Box<[BatchBuf]>>,
    /// Total receiver recoveries performed across all ranks.
    total_respawns: AtomicU64,
    /// `MPI_Win_flush` calls observed but (deliberately) not acted upon —
    /// the paper's Section 6: "we cannot support this synchronization
    /// function yet".
    unsupported_flushes: AtomicU64,
}

impl Inner {
    fn nranks(&self) -> u32 {
        self.nranks.load(Ordering::Relaxed) as u32
    }

    fn cancelled(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
            || self
                .abort_view
                .lock()
                .as_ref()
                .is_some_and(|v| v.is_aborted())
    }

    fn windet(&self, win: WinId) -> &WinDet {
        self.wins.get(win)
    }

    /// Per-rank receiver supervision (empty outside `Messages` mode).
    fn sups(&self) -> &[RecvSup] {
        self.sup.get().map_or(&[], |s| s)
    }

    /// In `Abort` mode: the race (if any) a worker/receiver found, which
    /// the calling rank thread should escalate into an `MPI_Abort`.
    fn pending_poison(&self) -> HookResult {
        if self.cfg.on_race == OnRace::Abort && self.poisoned.load(Ordering::Relaxed) {
            if let Some(r) = self.collected.lock().last() {
                return Err(Box::new(*r));
            }
        }
        Ok(())
    }

    /// Registers a race and decides whether the acting rank must abort.
    fn race(&self, report: Box<RaceReport>) -> HookResult {
        self.collected.lock().push(*report);
        match self.cfg.on_race {
            OnRace::Abort => {
                self.poisoned.store(true, Ordering::Relaxed);
                Err(report)
            }
            OnRace::Collect => Ok(()),
        }
    }

    /// Inserts a remote access record at its target (receiver side of the
    /// notification protocol). Returns the race verdict.
    fn deliver_remote(&self, win: WinId, acc: MemAccess, target: RankId) -> HookResult {
        let w = self.windet(win);
        let verdict = w.slot(target).store.lock().record(acc);
        // Register the race (poisoning, in Abort mode) BEFORE publishing
        // the processed count: a rank woken by `wait_received` must
        // already be able to observe the poison flag, or it would close
        // its epoch without escalating the abort.
        let hook = match verdict {
            Ok(()) => Ok(()),
            Err(report) => self.race(report),
        };
        w.bump_received(target);
        hook
    }

    /// `Messages`-mode receiver side: like [`Inner::deliver_remote`] but
    /// watermark-checked, so redelivered notifications are analyzed
    /// exactly once. A skipped duplicate bumps nothing — the original
    /// processing already counted it.
    fn deliver_remote_recv(&self, win: WinId, acc: MemAccess, target: RankId, seq: u64) {
        let sup = &self.sups()[target.index()];
        if sup.processed.load(Ordering::Acquire) >= seq {
            return;
        }
        let w = self.windet(win);
        let verdict = {
            let mut store = w.slot(target).store.lock();
            let v = store.record(acc);
            // Watermark and store advance together (same critical
            // section): a recovery joining this thread sees either both
            // effects of a note or neither, never half.
            sup.processed.store(seq, Ordering::Release);
            v
        };
        if let Err(report) = verdict {
            // Races found on receiver threads are escalated by the next
            // hook on any rank thread (via `pending_poison`).
            let _ = self.race(report);
        }
        w.bump_received(target);
    }

    /// `Messages`-mode receiver side for a coalesced [`Note::Batch`]:
    /// the same per-item watermark discipline as
    /// [`Inner::deliver_remote_recv`], with the per-note overheads
    /// amortized over the batch — a run of consecutive same-window items
    /// is applied under a single store-lock acquisition, the processed
    /// count advances by the whole run at once and waiters are woken once
    /// per run instead of once per item (they poll the count every 2 ms
    /// anyway, so delivery latency is unaffected).
    ///
    /// Returns `false` if the kill flag fired mid-batch; the watermark
    /// then sits exactly at the last processed item and recovery
    /// re-delivers the unprocessed tail, just as for the per-note path.
    fn deliver_batch_recv(
        &self,
        items: &[(WinId, MemAccess)],
        target: RankId,
        base_seq: u64,
        die: &AtomicBool,
    ) -> bool {
        let sup = &self.sups()[target.index()];
        let mut i = 0;
        while i < items.len() {
            if die.load(Ordering::Acquire) {
                return false;
            }
            let win = items[i].0;
            let w = self.windet(win);
            let received = &w.slot(target).received;
            let mut raced: Option<Box<RaceReport>> = None;
            let mut delivered = 0u64;
            let mut killed = false;
            {
                let mut store = w.slot(target).store.lock();
                while i < items.len() && items[i].0 == win {
                    // A kill can land mid-run: the loop exits with the
                    // watermark mid-batch, exactly like a crash between
                    // two per-note deliveries.
                    if die.load(Ordering::Acquire) {
                        killed = true;
                        break;
                    }
                    let seq = base_seq + i as u64;
                    if sup.processed.load(Ordering::Acquire) < seq {
                        let verdict = store.record(items[i].1);
                        // Watermark and store advance together (same
                        // critical section), as in the per-note path.
                        sup.processed.store(seq, Ordering::Release);
                        match verdict {
                            Ok(()) => delivered += 1,
                            Err(report) => {
                                // End the run: the race must be registered
                                // (outside the store lock, and before this
                                // item counts as received) so a rank woken
                                // by `wait_received` observes the poison.
                                raced = Some(report);
                                i += 1;
                                break;
                            }
                        }
                    }
                    i += 1;
                }
            }
            if delivered > 0 {
                received.fetch_add(delivered, Ordering::SeqCst);
            }
            if let Some(report) = raced {
                let _ = self.race(report);
                received.fetch_add(1, Ordering::SeqCst);
            }
            w.wake_waiters();
            if killed {
                return false;
            }
        }
        true
    }

    /// Records an access into `stores[rank]` of `win` from a rank thread
    /// (a local access or an operation's origin-side record). In
    /// `Messages` mode the insert is journaled — and performed — under
    /// the rank's journal lock, so a concurrent recovery either replays
    /// the entry or observes a store without it, never a torn state.
    fn record_inline(
        &self,
        w: &WinDet,
        win: WinId,
        rank: RankId,
        acc: MemAccess,
    ) -> Result<(), Box<RaceReport>> {
        let store = &w.slot(rank).store;
        if self.cfg.delivery != Delivery::Messages {
            return store.lock().record(acc);
        }
        let mut j = self.sups()[rank.index()].journal.lock();
        let verdict = store.lock().record(acc);
        if verdict.is_ok() {
            // A racing access is never inserted, so it is not journaled
            // either: a replay reproduces exactly the stored contents.
            j.entries.push(RecvEntry::Applied { win, acc });
        }
        verdict
    }

    /// Clears every store of `win` (used by the flush+barrier rule).
    fn clear_window(&self, win: &WinDet) {
        for slot in win.slots.iter() {
            slot.store.lock().clear();
            slot.flushed.store(false, Ordering::Relaxed);
        }
    }
}

/// The RMA-Analyzer monitor. Attach one per world run:
///
/// ```
/// use rma_monitor::{RmaAnalyzer, AnalyzerCfg, Algorithm};
/// use rma_sim::{World, WorldCfg, RankId};
/// use std::sync::Arc;
///
/// let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg::with_algorithm(Algorithm::FragMerge)));
/// let out = World::run(WorldCfg::with_ranks(2), analyzer.clone(), |ctx| {
///     let win = ctx.win_allocate(8);
///     let buf = ctx.alloc(8);
///     ctx.win_lock_all(win);
///     if ctx.rank() == RankId(0) {
///         ctx.put(&buf, 0, 8, RankId(1), 0, win);
///     }
///     ctx.win_unlock_all(win);
/// });
/// assert!(out.is_clean());
/// assert!(analyzer.races().is_empty());
/// ```
pub struct RmaAnalyzer {
    inner: Arc<Inner>,
}

impl RmaAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(cfg: AnalyzerCfg) -> Self {
        RmaAnalyzer {
            inner: Arc::new(Inner {
                cfg,
                nranks: AtomicU64::new(0),
                wins: WinTable::new(),
                collected: Mutex::new(Vec::new()),
                reduce: KeyedReduce::default(),
                poisoned: AtomicBool::new(false),
                abort_view: Mutex::new(None),
                sup: OnceLock::new(),
                pending: OnceLock::new(),
                total_respawns: AtomicU64::new(0),
                unsupported_flushes: AtomicU64::new(0),
            }),
        }
    }

    /// All races detected so far (in `Collect` mode: the full list; in
    /// `Abort` mode: the one(s) that stopped the world).
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.collected.lock().clone()
    }

    /// Per-window, per-rank store statistics.
    pub fn window_stats(&self) -> Vec<Vec<StoreStats>> {
        self.inner
            .wins
            .iter()
            .map(|(_, w)| w.slots.iter().map(|s| s.store.lock().stats()).collect())
            .collect()
    }

    /// Per window: remote accesses issued towards any rank so far, and
    /// remote-access records processed at their targets. The two agree
    /// once every epoch that issued them has closed.
    pub fn window_notifications(&self) -> Vec<(u64, u64)> {
        self.inner.wins.iter().map(|(_, w)| w.notifications()).collect()
    }

    /// Sum of peak node counts over every store — the paper's "number of
    /// nodes in the BST" aggregated over the run (Table 4, Section 5.3).
    pub fn total_peak_nodes(&self) -> usize {
        self.window_stats().iter().flatten().map(|s| s.peak_len).sum()
    }

    /// Sum over stores of the node count accumulated at each epoch end.
    pub fn total_epoch_end_nodes(&self) -> usize {
        self.window_stats()
            .iter()
            .flatten()
            .map(|s| s.cum_epoch_end_len)
            .sum()
    }

    /// Total dynamic accesses recorded by all stores.
    pub fn total_recorded(&self) -> usize {
        self.window_stats().iter().flatten().map(|s| s.recorded).sum()
    }

    /// Number of `MPI_Win_flush` calls the analyzer observed but did not
    /// act on (its documented Section 6 limitation).
    pub fn unsupported_flushes(&self) -> u64 {
        self.inner.unsupported_flushes.load(Ordering::Relaxed)
    }

    /// Total receiver recoveries performed so far (`Messages` mode).
    pub fn respawns(&self) -> u32 {
        self.inner.total_respawns.load(Ordering::Relaxed) as u32
    }

    fn spawn_receiver(&self, rank: RankId, rx: Receiver<Note>) -> RecvWorker {
        let die = Arc::new(AtomicBool::new(false));
        let die_flag = die.clone();
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rma-analyzer-recv{}", rank.0))
            .spawn(move || {
                'recv: while let Ok(note) = rx.recv() {
                    // Abrupt-kill check before each note: a killed
                    // receiver abandons its backlog, modeling a crash.
                    if die_flag.load(Ordering::Acquire) {
                        break;
                    }
                    match note {
                        Note::Stop => break,
                        Note::Remote { seq, win, acc } => {
                            // A race found here is recorded; the next hook
                            // on any rank thread observes `poisoned` and
                            // aborts the world (the receiver thread cannot).
                            inner.deliver_remote_recv(win, acc, rank, seq);
                        }
                        Note::Batch { base_seq, items } => {
                            // The kill flag is re-checked per item inside:
                            // a crash can land mid-batch, leaving the
                            // watermark mid-batch, and recovery must
                            // re-deliver exactly the unprocessed tail.
                            if !inner.deliver_batch_recv(&items, rank, base_seq, &die_flag) {
                                break 'recv;
                            }
                        }
                    }
                }
            })
            .expect("failed to spawn receiver thread");
        RecvWorker { die, handle }
    }

    /// `Messages`-mode send path: assigns the notification its sequence
    /// number and sends it, journaled, under the target's journal lock.
    /// A failed send means the receiver is gone *without* a fault hook
    /// having run (spontaneous death): recovery happens lazily right
    /// here, and beyond the budget the rank aborts the world through a
    /// structured panic instead of losing the notification.
    fn send_remote(&self, target: RankId, win: WinId, acc: MemAccess) -> HookResult {
        let sup = &self.inner.sups()[target.index()];
        let mut j = sup.journal.lock();
        loop {
            let seq = j.sent_seq + 1;
            if j.send(Note::Remote { seq, win, acc }) {
                j.sent_seq = seq;
                j.entries.push(RecvEntry::Sent { seq, win, acc });
                return Ok(());
            }
            if !self.recover_locked(target, sup, &mut j) {
                panic!(
                    "RMA-Analyzer receiver for rank {} died beyond the respawn \
                     budget with notifications in flight; aborting world",
                    target.0
                );
            }
        }
    }

    /// `Messages`-mode batched send path (`batch_size > 1`): appends the
    /// notification to the per-(origin, target) buffer and flushes it
    /// once the size threshold is reached. Only ever called from origin's
    /// own rank thread, so each buffer is filled single-threadedly.
    fn buffer_remote(&self, origin: RankId, target: RankId, win: WinId, acc: MemAccess) {
        let Some(buf) = self.pending_buf(origin, target) else { return };
        let full = {
            let mut buf = buf.0.lock();
            buf.push((win, acc));
            buf.len() >= self.inner.cfg.batch_size
        };
        if full {
            self.flush_batch(origin, target);
        }
    }

    /// The `pending[origin][target]` batch buffer (`None` unless batching).
    fn pending_buf(&self, origin: RankId, target: RankId) -> Option<&BatchBuf> {
        let n = self.inner.nranks() as usize;
        self.inner.pending.get().map(|p| &p[origin.index() * n + target.index()])
    }

    /// Flushes one `pending[origin][target]` buffer: assigns the run of
    /// sequence numbers and journals every entry under the target's
    /// journal lock *before* sending the batch, so a failed send (dead
    /// receiver) recovers through exactly the machinery `send_remote`
    /// uses — `recover_locked` re-delivers the journaled-but-unprocessed
    /// suffix through the fresh channel.
    fn flush_batch(&self, origin: RankId, target: RankId) {
        let Some(buf) = self.pending_buf(origin, target) else { return };
        let items = std::mem::take(&mut *buf.0.lock());
        if items.is_empty() {
            return;
        }
        let sup = &self.inner.sups()[target.index()];
        let mut j = sup.journal.lock();
        let base_seq = j.sent_seq + 1;
        for (i, (win, acc)) in items.iter().enumerate() {
            j.entries.push(RecvEntry::Sent { seq: base_seq + i as u64, win: *win, acc: *acc });
        }
        j.sent_seq += items.len() as u64;
        let sent = j.send(Note::Batch { base_seq, items });
        if !sent && !self.recover_locked(target, sup, &mut j) {
            panic!(
                "RMA-Analyzer receiver for rank {} died beyond the respawn \
                 budget with a notification batch in flight; aborting world",
                target.0
            );
        }
    }

    /// Flushes every batch buffer held by `origin` (all targets). Called
    /// at origin's synchronization points — before any epoch-close
    /// accounting reads `sent` counts that the buffered notifications
    /// already contributed to.
    fn flush_pending_from(&self, origin: RankId) {
        if self.inner.cfg.delivery != Delivery::Messages || self.inner.cfg.batch_size <= 1 {
            return;
        }
        for t in 0..self.inner.nranks() {
            if RankId(t) != origin {
                self.flush_batch(origin, RankId(t));
            }
        }
    }

    /// Recovers rank `rank`'s dead receiver under its journal lock:
    /// joins the old thread, restores every store of the rank from the
    /// last epoch-boundary checkpoint, spawns a fresh receiver on a
    /// fresh channel, and re-delivers the journal (processed entries
    /// silently, the unprocessed suffix through the new channel).
    /// Returns `false` — leaving the rank receiver-less — once the
    /// respawn budget is exhausted.
    fn recover_locked(&self, rank: RankId, sup: &RecvSup, j: &mut RecvJournal) -> bool {
        if let Some(w) = j.worker.take() {
            let _ = w.handle.join();
        }
        if j.respawns >= self.inner.cfg.max_respawns {
            return false;
        }
        j.respawns += 1;
        self.inner.total_respawns.fetch_add(1, Ordering::Relaxed);
        // Backoff before the respawn: transient causes of the death
        // (resource exhaustion) get room to clear; repeated deaths pay
        // progressively more. Held under the journal lock deliberately —
        // nothing may touch this rank's stores mid-recovery anyway.
        std::thread::sleep(Duration::from_millis(1 << j.respawns.min(5)));
        // Restore: roll every store of this rank back to the checkpoint
        // *before* re-delivering — replaying an already-recorded access
        // against a store that still holds it would self-conflict.
        for (win, w) in self.inner.wins.iter() {
            let snap = j.checkpoint.get(win.index()).map(Vec::as_slice).unwrap_or(&[]);
            w.slot(rank).store.lock().restore(snap);
        }
        // Fresh channel + receiver; the stale sender is unreachable from
        // here on, so no notification can race past the journal.
        let (tx, rx) = unbounded();
        j.tx = Some(tx);
        j.worker = Some(self.spawn_receiver(rank, rx));
        // Re-deliver in two passes. Pass 1 reconstructs the pre-kill
        // store: entries the dead receiver had processed (and all inline
        // inserts) replay silently, in journal order — their races were
        // reported the first time. Pass 2 then re-sends the unprocessed
        // suffix through the fresh channel and the normal reporting
        // path, so its races (and `received` counts) surface exactly
        // once. The passes must not interleave: a re-sent note the fresh
        // receiver processes *before* a later silent entry would claim
        // the store slot first and turn that entry's replay into a
        // swallowed — never-reported — race. Splitting them is
        // verdict-safe because the order-sensitive conflict exemption
        // only concerns same-issuer pairs, and every inline insert in
        // this store carries the rank's own issuer while every
        // notification carries a remote one.
        let processed = sup.processed.load(Ordering::Acquire);
        for e in &j.entries {
            match e {
                RecvEntry::Applied { win, acc } => {
                    let _ = self.inner.windet(*win).slot(rank).store.lock().record(*acc);
                }
                RecvEntry::Sent { seq, win, acc } if *seq <= processed => {
                    let _ = self.inner.windet(*win).slot(rank).store.lock().record(*acc);
                }
                RecvEntry::Sent { .. } => {}
            }
        }
        for e in &j.entries {
            if let RecvEntry::Sent { seq, win, acc } = *e {
                if seq > processed {
                    j.send(Note::Remote { seq, win, acc });
                }
            }
        }
        true
    }

    /// Takes an epoch-boundary checkpoint of `rank`'s stores and prunes
    /// its journal — but only when the receiver is provably idle
    /// (watermark equals everything sent): checkpointing mid-backlog
    /// would drop the unprocessed suffix from future recoveries.
    fn checkpoint_recv_if_quiescent(&self, rank: RankId) {
        if self.inner.cfg.delivery != Delivery::Messages {
            return;
        }
        let Some(sup) = self.inner.sups().get(rank.index()) else {
            return;
        };
        let mut j = sup.journal.lock();
        if j.worker.is_none() {
            return; // dead beyond budget: keep the journal as-is
        }
        if sup.processed.load(Ordering::Acquire) != j.sent_seq {
            return;
        }
        // Inline inserts and sends towards this rank both hold the
        // journal lock, and the idle receiver has nothing queued: the
        // snapshot below is a consistent cut of the rank's stores.
        j.checkpoint = self
            .inner
            .wins
            .iter()
            .map(|(_, w)| w.slot(rank).store.lock().snapshot())
            .collect();
        j.entries.clear();
    }
}

impl Monitor for RmaAnalyzer {
    fn on_world_start(&self, nranks: u32) {
        self.inner.nranks.store(u64::from(nranks), Ordering::Relaxed);
        if self.inner.cfg.delivery == Delivery::Messages {
            let sups = self.inner.sup.get_or_init(|| {
                (0..nranks)
                    .map(|_| RecvSup {
                        journal: Mutex::new(RecvJournal::default()),
                        processed: AtomicU64::new(0),
                    })
                    .collect()
            });
            for (r, sup) in sups.iter().enumerate() {
                let (tx, rx) = unbounded();
                let mut j = sup.journal.lock();
                j.tx = Some(tx);
                j.worker = Some(self.spawn_receiver(RankId(r as u32), rx));
            }
            if self.inner.cfg.batch_size > 1 {
                let n = nranks as usize;
                self.inner
                    .pending
                    .get_or_init(|| (0..n * n).map(|_| CacheLine(Mutex::new(Vec::new()))).collect());
            }
        }
    }

    fn on_abort_view(&self, view: AbortView) {
        *self.inner.abort_view.lock() = Some(view);
    }

    fn on_world_end(&self) {
        if self.inner.cfg.delivery == Delivery::Messages {
            // Rank threads have all returned; drain any batches they
            // left buffered before stopping the receivers.
            for o in 0..self.inner.nranks() {
                self.flush_pending_from(RankId(o));
            }
            let workers: Vec<RecvWorker> = self
                .inner
                .sups()
                .iter()
                .filter_map(|sup| {
                    let mut j = sup.journal.lock();
                    j.send(Note::Stop);
                    j.tx = None;
                    j.worker.take()
                })
                .collect();
            for w in workers {
                let _ = w.handle.join();
            }
        }
    }

    fn on_win_allocate(&self, _rank: RankId, win: WinId, _base: u64, _len: u64) {
        let inner = &self.inner;
        inner.wins.ensure(win, || WinDet::new(inner.nranks(), &inner.cfg));
    }

    fn on_lock_all(&self, rank: RankId, win: WinId) {
        self.inner.windet(win).slot(rank).epoch_open.store(true, Ordering::Relaxed);
    }

    fn on_local(&self, ev: &LocalEvent) -> HookResult {
        if !ev.tracked {
            return Ok(()); // filtered out by the alias analysis
        }
        // A receiver thread may have found a race; propagate the abort
        // from this rank thread.
        self.inner.pending_poison()?;
        let acc = MemAccess::new(ev.interval, ev.kind, ev.rank, ev.loc);
        for (win, w) in self.inner.wins.iter() {
            // Local accesses are only relevant while the rank is inside an
            // epoch on that window (outside, no remote access can overlap).
            if !w.slot(ev.rank).epoch_open.load(Ordering::Relaxed) {
                continue;
            }
            let verdict = self.inner.record_inline(w, win, ev.rank, acc);
            if let Err(report) = verdict {
                return self.inner.race(report);
            }
        }
        Ok(())
    }

    fn on_rma(&self, ev: &RmaEvent) -> HookResult {
        let inner = &self.inner;
        inner.pending_poison()?;
        let w = inner.windet(ev.win);
        let origin = w.slot(ev.origin);
        // Issuing a one-sided operation invalidates any earlier flush.
        origin.flushed.store(false, Ordering::Relaxed);

        // Origin-side record (local buffer of the origin process).
        let origin_acc =
            MemAccess::new(ev.origin_interval, ev.origin_kind(), ev.origin, ev.loc);
        let verdict = inner.record_inline(w, ev.win, ev.origin, origin_acc);
        if let Err(report) = verdict {
            return inner.race(report);
        }

        // Target-side record: notify the target.
        let target_acc =
            MemAccess::new(ev.target_interval, ev.target_kind(), ev.origin, ev.loc);
        origin.sent_to(ev.target).fetch_add(1, Ordering::Relaxed);
        match inner.cfg.delivery {
            Delivery::Direct => inner.deliver_remote(ev.win, target_acc, ev.target),
            Delivery::Messages if ev.target == ev.origin => {
                // Self-targeted op: deliver inline instead of through the
                // rank's own receiver. The order-aware conflict rule reads
                // the store's insertion order as program order for
                // same-issuer pairs, and only a self-notification can land
                // in the same store as its issuer's local accesses — routed
                // through the receiver it would arrive after later local
                // accesses and turn `Get; Store` into the safe-looking
                // `Store; Get`, nondeterministically masking the race.
                let hook = match inner.record_inline(w, ev.win, ev.origin, target_acc) {
                    Ok(()) => Ok(()),
                    Err(report) => inner.race(report),
                };
                w.bump_received(ev.target);
                hook
            }
            Delivery::Messages if inner.cfg.batch_size > 1 => {
                self.buffer_remote(ev.origin, ev.target, ev.win, target_acc);
                Ok(())
            }
            Delivery::Messages => self.send_remote(ev.target, ev.win, target_acc),
        }
    }

    fn on_flush_all(&self, rank: RankId, win: WinId) {
        self.inner.windet(win).slot(rank).flushed.store(true, Ordering::Relaxed);
    }

    fn on_unlock_all(&self, rank: RankId, win: WinId) -> HookResult {
        let inner = &self.inner;
        let w = inner.windet(win);
        let slot = w.slot(rank);
        // Buffered batches contributed to `sent` when issued; flush them
        // into the channels before the reduction reads those counts, or
        // `wait_received` would wait for notifications never sent.
        self.flush_pending_from(rank);
        let seq = slot.epoch_seq.load(Ordering::Relaxed);

        // The paper's epoch-end reduction: every rank contributes its
        // cumulative per-target notification counts; entry `t` of the sum
        // is the total number of notifications rank `t` must have
        // processed before it may clear its store.
        let sent: Vec<u64> = slot.sent_counts(inner.nranks() as usize).collect();
        let expected = inner.reduce.allreduce(
            (win.0, seq, 0),
            &sent,
            inner.nranks(),
            || inner.cancelled(),
        );
        let Some(expected) = expected else {
            // The reduce was cancelled: either another rank aborted the
            // world, or a receiver thread found a race (poisoning). In
            // the latter case this rank must escalate the abort itself.
            return inner.pending_poison();
        };
        if !w.wait_received(rank, expected[rank.index()], || inner.cancelled()) {
            return inner.pending_poison();
        }

        // Did draining surface a race (Messages mode)?
        inner.pending_poison()?;

        // End of epoch: the store's accesses are all completed and
        // mutually ordered with everything that follows.
        slot.store.lock().clear();
        slot.epoch_open.store(false, Ordering::Relaxed);
        slot.epoch_seq.fetch_add(1, Ordering::Relaxed);

        // Second phase: nobody leaves unlock_all until every rank cleared,
        // so next-epoch notifications cannot be swallowed by this clear.
        let _ = inner
            .reduce
            .allreduce((win.0, seq, 1), &[0], inner.nranks(), || inner.cancelled());

        // Epoch boundary: advance this rank's recovery checkpoint (taken
        // only if its receiver is idle — siblings may still be sending).
        self.checkpoint_recv_if_quiescent(rank);
        Ok(())
    }

    fn on_flush(&self, _rank: RankId, _win: WinId, _target: RankId) {
        // Section 6, item (2): a per-target flush only orders the calling
        // process's communications; the target cannot know in which order
        // remote accesses from several origins complete, so clearing any
        // store here would cause false negatives. The analyzer therefore
        // keeps everything — which can produce the false positive the
        // paper observed on CFD-Proxy (tested as a documented limitation).
        self.inner.unsupported_flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_fence(&self, rank: RankId, win: WinId) {
        // Per-rank fence arrival runs before `on_fence_last`'s drain:
        // flushing here guarantees every buffered notification is in its
        // channel before the drain loop counts arrivals.
        self.flush_pending_from(rank);
        // Fences open an access epoch: local accesses after the fence are
        // exposed until the next fence.
        self.inner.windet(win).slot(rank).epoch_open.store(true, Ordering::Relaxed);
    }

    fn on_fence_last(&self, win: WinId) {
        // Active-target synchronization: everything before the fence
        // happens-before everything after. All rank threads are parked in
        // the fence; drain in-flight notifications, then clear the
        // window's stores.
        let inner = &self.inner;
        let w = inner.windet(win);
        w.drain(|| inner.cancelled());
        for slot in w.slots.iter() {
            slot.store.lock().clear();
        }
        // All rank threads are parked in the fence: checkpoint every
        // rank whose receiver has drained.
        for r in 0..self.inner.nranks() {
            self.checkpoint_recv_if_quiescent(RankId(r));
        }
    }

    fn on_barrier(&self, rank: RankId) {
        // Per-rank barrier arrival runs before `on_barrier_last`: flush
        // so the flush+barrier clearing rule sees every notification in
        // flight rather than parked in a batch buffer.
        self.flush_pending_from(rank);
    }

    fn on_barrier_last(&self) {
        // Section 6 rule: flush_all on every rank followed by a barrier
        // synchronizes the epoch's accesses; the stores can be cleared.
        let inner = &self.inner;
        for (_, w) in inner.wins.iter() {
            let all_flushed = w.slots.iter().all(|s| s.flushed.load(Ordering::Relaxed));
            // All rank threads are parked in the barrier; wait for any
            // in-flight notifications (Messages mode), then clear.
            if all_flushed && w.drain(|| inner.cancelled()) {
                inner.clear_window(w);
            }
        }
        // All rank threads are parked in the barrier: checkpoint every
        // drained receiver (no-op outside Messages mode).
        for r in 0..inner.nranks() {
            self.checkpoint_recv_if_quiescent(RankId(r));
        }
    }

    fn on_fault_kill_worker(&self, rank: RankId) -> bool {
        if self.inner.cfg.delivery != Delivery::Messages {
            return false; // no helper thread to kill
        }
        let Some(sup) = self.inner.sups().get(rank.index()) else {
            return false;
        };
        let mut j = sup.journal.lock();
        if let Some(w) = &j.worker {
            // Abrupt kill: the flag makes the receiver abandon whatever
            // backlog it holds (a queued Stop could never skip the FIFO);
            // the Stop below only wakes a receiver blocked in `recv`.
            w.die.store(true, Ordering::Release);
            j.send(Note::Stop);
        }
        // Synchronous kill-and-recover keeps respawn counts a pure
        // function of the fault plan and the budget (deterministic
        // chaos JSON); beyond the budget the death is a structured
        // abort right here, never a stalled quiescence wait.
        if !self.recover_locked(rank, sup, &mut j) {
            panic!(
                "RMA-Analyzer receiver for rank {} died beyond the respawn \
                 budget; aborting world",
                rank.0
            );
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Legacy.name(), "RMA-Analyzer");
        assert_eq!(Algorithm::FragMerge.name(), "Our Contribution");
    }

    #[test]
    fn default_cfg_is_paper_algorithm() {
        let cfg = AnalyzerCfg::default();
        assert_eq!(cfg.algorithm, Algorithm::FragMerge);
        assert_eq!(cfg.on_race, OnRace::Abort);
    }
}
