//! The production engine: Algorithm 1 over sorted, chunked arrays instead
//! of an AVL tree.
//!
//! [`FlatStore`] keeps the epoch's accesses sorted by lower bound and
//! pairwise **disjoint** — the same invariant as [`crate::FragMergeStore`],
//! so the same soundness argument applies: every stored access
//! intersecting a new one lies in one contiguous run of the sorted
//! sequence, found by a single lower-bound search.
//!
//! The sequence is cut into chunks of at most `CHUNK_MAX` accesses (the
//! leaves of a B+-tree without the inner levels). Each chunk carries its
//! *fence*, the `hi` of its last access; because stored intervals are
//! disjoint and sorted, the fences are sorted too and form the index the
//! search runs over. The last chunk lives inline as the `tail`, without a
//! fence: a store of at most `CHUNK_MAX` accesses — the common
//! per-(rank, window) case — is then one allocation, like the tree it
//! replaces, and appends reach their chunk without an indirection.
//!
//! Why chunks (HMTRace's observation, quantified in `BENCH_hotpath.json`):
//! small and sparse traces hold a handful of intervals, where a
//! pointer-chasing balanced tree pays allocation, rebalancing and cache
//! misses for nothing — a sorted array of `Copy` structs is one or two
//! cache lines scanned branchlessly. One flat array instead pays an O(n)
//! `memmove` per mid-array insert once it grows, which interleaved
//! ascending streams (lockstep walks; miniVite's local loads, which land
//! below the buffers of the rank's own gets) hit on every access. A
//! chunk bounds that `memmove` to `CHUNK_MAX` elements. A full chunk that
//! is appended to stays full and the next chunk opens behind it, so
//! ascending streams leave full chunks; other inserts split a full chunk
//! in half, into exact-capacity pieces.
//!
//! The lower-bound search **gallops from the end**, over the fences and
//! then within the chunk, before falling back to a branchless binary
//! search: monotonically growing epochs (ascending stencil sweeps, ring
//! exchanges) append at or near the tail, so the bracket is found in
//! O(log distance-from-end) with the hot tail already in cache, and a
//! strict append costs one comparison.
//!
//! Insertion semantics are *identical* to [`crate::FragMergeStore`] by
//! construction: steps 3–5 of Algorithm 1 run through the very same
//! [`crate::fragmerge::fragment_accesses`] / `merge_accesses` code over
//! the overlap run — a run inside one chunk is passed as a slice, a run
//! that crosses a fence is first gathered into a scratch vector — and
//! budget degradation uses the shared `coalesce_plan`. The differential
//! campaign in `tests/engine_prop.rs` verifies contents after every
//! operation, verdicts and statistics against the AVL engine.

use crate::access::MemAccess;
use crate::conflict::conflicts;
use crate::fragmerge::{coalesce_plan, fragment_accesses, merge_accesses};
use crate::interval::{Addr, Interval};
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};
use core::ops::ControlFlow;

/// Most accesses one chunk holds. An insert shifts at most this many
/// elements; an overflowing chunk splits into even pieces.
const CHUNK_MAX: usize = 128;

/// A full chunk: non-empty, at most [`CHUNK_MAX`] accesses.
struct Chunk {
    /// The `hi` of the last access.
    fence: Addr,
    accs: Vec<MemAccess>,
}

impl Chunk {
    fn new(accs: Vec<MemAccess>) -> Self {
        Chunk { fence: accs[accs.len() - 1].interval.hi, accs }
    }
}

/// Access store implementing Algorithm 1 over sorted chunks.
///
/// Construction mirrors [`crate::FragMergeStore`]: [`FlatStore::new`] is
/// the paper's algorithm, [`FlatStore::without_merging`] the
/// fragmentation-only ablation, [`FlatStore::with_budget`] the graceful
/// degradation mode (same conservative `RMA_Write` coalescing).
pub struct FlatStore {
    /// The stored accesses in address order, pairwise disjoint across
    /// chunk boundaries too: `chunks` then `tail`. Chunk index
    /// `chunks.len()` names the tail, which holds at most [`CHUNK_MAX`]
    /// accesses and is empty only when the whole store is.
    chunks: Vec<Chunk>,
    tail: Vec<MemAccess>,
    /// `stats.len` is the live node count.
    stats: StoreStats,
    merge_enabled: bool,
    /// Node-count cap for graceful degradation (see
    /// [`crate::FragMergeStore::with_budget`]; identical semantics).
    /// Packed: `0` means unbounded (real caps are clamped to ≥ 2).
    budget: u32,
    /// Cached bounding interval of everything stored — the cheap-reject
    /// fast path, same rule as the AVL engine: strictly outside (not
    /// touching) the hull means no conflict and no merge partner, so the
    /// access is inserted directly and counted in
    /// [`StoreStats::fast_hits`]. Packed as a raw pair (`lo > hi` means
    /// empty).
    hull_lo: Addr,
    hull_hi: Addr,
    /// Scratch buffer for the fragment output, reused across insertions
    /// (allocation-free once warm).
    frags: Vec<MemAccess>,
}

impl Default for FlatStore {
    fn default() -> Self {
        Self::new()
    }
}

/// First index `k` of `s` with `hi_of(&s[k]) >= lo`, given that the last
/// element qualifies. Gallops from the end — appends and hot-tail
/// traffic resolve in O(log distance-from-end) touching only
/// cache-resident tail elements — then finishes with a branchless binary
/// search over the bracket.
#[inline]
fn gallop<T>(s: &[T], lo: Addr, hi_of: impl Fn(&T) -> Addr) -> usize {
    let n = s.len();
    // Double the look-back until s[n-1-back] is left of `lo` (or the
    // whole slice is bracketed).
    let mut back = 1usize;
    while back < n && hi_of(&s[n - 1 - back]) >= lo {
        back = back.saturating_mul(2);
    }
    let (mut base, mut len) = if back >= n { (0, n) } else { (n - back, back) };
    // The bracket invariant: the answer lies in [base, base + len).
    while len > 1 {
        let half = len / 2;
        base += usize::from(hi_of(&s[base + half - 1]) < lo) * half;
        len -= half;
    }
    base
}

/// A node budget packed for the `FlatStore::budget` field: clamped to at
/// least 2, saturating at `u32::MAX`.
fn pack_budget(cap: usize) -> u32 {
    u32::try_from(cap.max(2)).unwrap_or(u32::MAX)
}

/// Scans `run` in address order for the first access racing with `acc`:
/// `Break(Some(stored))` on a race, `Break(None)` once past `acc`, and
/// `Continue` when the run ends first.
#[inline]
fn scan<'a>(run: &'a [MemAccess], acc: &MemAccess) -> ControlFlow<Option<&'a MemAccess>> {
    for stored in run {
        if stored.interval.lo > acc.interval.hi {
            return ControlFlow::Break(None);
        }
        if conflicts(stored, acc) {
            return ControlFlow::Break(Some(stored));
        }
    }
    ControlFlow::Continue(())
}

impl FlatStore {
    /// An empty store with merging enabled (the paper's algorithm).
    #[inline]
    pub fn new() -> Self {
        FlatStore {
            chunks: Vec::new(),
            tail: Vec::new(),
            stats: StoreStats::default(),
            merge_enabled: true,
            budget: 0,
            hull_lo: 1,
            hull_hi: 0,
            frags: Vec::new(),
        }
    }

    /// An empty store running fragmentation only (ablation).
    #[inline]
    pub fn without_merging() -> Self {
        let mut s = Self::new();
        s.merge_enabled = false;
        s
    }

    /// An empty store with a node budget (clamped to at least 2); same
    /// degradation contract as [`crate::FragMergeStore::with_budget`].
    #[inline]
    pub fn with_budget(cap: usize) -> Self {
        let mut s = Self::new();
        s.budget = pack_budget(cap);
        s
    }

    /// A budgeted store with the merging pass disabled.
    #[inline]
    pub fn without_merging_budgeted(cap: usize) -> Self {
        let mut s = Self::with_budget(cap);
        s.merge_enabled = false;
        s
    }

    /// A boxed empty store — merging on or off, with an optional node
    /// budget — built directly in its heap slot. `Box::new(FlatStore::new())`
    /// builds the struct on the stack and copies it over: ~10 ns per store
    /// on a 2-core x86-64 host, 3–5% of a 20-event corpus replay, which
    /// builds three stores and records about four accesses.
    #[inline]
    pub fn boxed(merging: bool, budget: Option<usize>) -> Box<Self> {
        let mut s = Box::<Self>::default();
        s.merge_enabled = merging;
        s.budget = budget.map_or(0, pack_budget);
        s
    }

    /// Number of chunks currently holding the accesses (diagnostics).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() + usize::from(!self.tail.is_empty())
    }

    /// Chunk `c`'s accesses; index `chunks.len()` is the tail.
    #[inline]
    fn chunk(&self, c: usize) -> &Vec<MemAccess> {
        self.chunks.get(c).map_or(&self.tail, |c| &c.accs)
    }

    #[inline]
    fn chunk_mut(&mut self, c: usize) -> &mut Vec<MemAccess> {
        match self.chunks.get_mut(c) {
            Some(chunk) => &mut chunk.accs,
            None => &mut self.tail,
        }
    }

    /// Position `(chunk, offset)` of the first stored interval that could
    /// intersect or follow an interval starting at `lo`: the least one
    /// with `hi >= lo`, or the end of the tail when there is none.
    #[inline]
    fn lower_bound(&self, lo: Addr) -> (usize, usize) {
        let t = self.chunks.len();
        match self.tail.last() {
            Some(a) if a.interval.hi >= lo => {}
            _ => return (t, self.tail.len()), // strict append: O(1)
        }
        if t == 0 {
            return (0, gallop(&self.tail, lo, |a| a.interval.hi));
        }
        let c = match self.chunks.last() {
            Some(last) if last.fence >= lo => gallop(&self.chunks, lo, |c| c.fence),
            _ => t,
        };
        (c, gallop(self.chunk(c), lo, |a| a.interval.hi))
    }

    /// Step 1 of Algorithm 1: the first stored access from position
    /// `(c, i)` on that races with `acc`. Accesses before `(c, i)` must
    /// end below `acc`. Visits candidates in address order, so the
    /// conflict reported is the same one the AVL engine's in-order
    /// overlap walk finds.
    fn first_conflict(&self, (c, i): (usize, usize), acc: &MemAccess) -> Option<&MemAccess> {
        let mut from = i;
        for chunk in self.chunks.get(c..).unwrap_or_default() {
            if let ControlFlow::Break(hit) = scan(&chunk.accs[from..], acc) {
                return hit;
            }
            from = 0;
        }
        match scan(&self.tail[from..], acc) {
            ControlFlow::Break(hit) => hit,
            ControlFlow::Continue(()) => None,
        }
    }

    /// Steps 2–5 of Algorithm 1 for an access already proved race-free:
    /// the widened overlap run, starting at `(c, i)` (the lower bound of
    /// the widened interval), is fragmented and merged through the
    /// *shared* passes, then spliced back in place.
    #[inline(never)]
    fn apply(&mut self, (c, i): (usize, usize), acc: MemAccess) {
        let q = acc.interval.widened();
        // The run ends in the last chunk whose first access still starts
        // inside `q`, at offset `j` of that chunk.
        let mut last = c;
        while last < self.chunks.len() && self.chunk(last + 1)[0].interval.lo <= q.hi {
            last += 1;
        }
        if last != c {
            self.apply_across((c, i), last, acc, q.hi);
        } else {
            let j = i + self.chunk(c)[i..].iter().take_while(|a| a.interval.lo <= q.hi).count();
            if j == i {
                // Nothing intersects or touches `acc`: steps 2–4
                // degenerate to `frags = [acc]`.
                self.stats.fragments += 1;
                self.insert_at(c, i, acc);
            } else {
                let mut frags = std::mem::take(&mut self.frags);
                fragment_accesses(&self.chunk(c)[i..j], &acc, &mut frags);
                self.merge_frags(&mut frags, j - i);
                let chunk = self.chunk_mut(c);
                if frags.len() == j - i {
                    // Idempotent re-insertions, absorbed accesses, 1-for-1
                    // fragment swaps: a straight copy, no shifting.
                    chunk[i..j].copy_from_slice(&frags);
                } else {
                    chunk.splice(i..j, frags.iter().copied());
                }
                self.settle(c);
                self.frags = frags;
            }
        }
        self.after_insert(acc.interval);
    }

    /// Step 4 and the bookkeeping of a fragmented run of `run_len`
    /// accesses.
    #[inline]
    fn merge_frags(&mut self, frags: &mut Vec<MemAccess>, run_len: usize) {
        self.stats.fragments += frags.len();
        if self.merge_enabled {
            self.stats.merges += merge_accesses(frags);
        }
        self.stats.len = self.stats.len + frags.len() - run_len;
    }

    /// [`FlatStore::apply`] for a run that crosses a fence, from `(c, i)`
    /// into chunk `last`, up to the first access starting above `hi`.
    /// Rare, so the run is gathered into a copy allocated per use; chunks
    /// `c..=last` are folded into chunk `c` (into the tail, when `last` is
    /// the tail), which is then re-split.
    #[cold]
    #[inline(never)]
    fn apply_across(&mut self, (c, i): (usize, usize), last: usize, acc: MemAccess, hi: Addr) {
        let j = self.chunk(last).iter().take_while(|a| a.interval.lo <= hi).count();
        let mut run = self.chunks[c].accs[i..].to_vec();
        for chunk in &self.chunks[c + 1..last] {
            run.extend_from_slice(&chunk.accs);
        }
        run.extend_from_slice(&self.chunk(last)[..j]);
        let mut frags = Vec::new();
        fragment_accesses(&run, &acc, &mut frags);
        self.merge_frags(&mut frags, run.len());
        let mut folded = std::mem::take(&mut self.chunks[c].accs);
        folded.truncate(i);
        folded.extend_from_slice(&frags);
        folded.extend_from_slice(&self.chunk(last)[j..]);
        if last == self.chunks.len() {
            self.chunks.truncate(c);
            self.tail = folded;
        } else {
            self.chunks[c].accs = folded;
            self.chunks.drain(c + 1..=last);
        }
        self.settle(c);
    }

    /// Inserts `acc` at position `(c, i)`. A position on a fence — the
    /// start of chunk `c > 0` — appends to the chunk on its left instead:
    /// an O(1) push that keeps a rising frontier inside its own chunk.
    ///
    /// A full chunk makes room first, before its buffer could double. An
    /// append to it opens a new chunk behind it and leaves it full, so
    /// ascending streams fill their chunks; any other insert splits it in
    /// half.
    fn insert_at(&mut self, c: usize, i: usize, acc: MemAccess) {
        let (c, i) = if i == 0 && c > 0 { (c - 1, self.chunk(c - 1).len()) } else { (c, i) };
        let (c, i) = if self.chunk(c).len() < CHUNK_MAX {
            (c, i)
        } else if i == CHUNK_MAX {
            self.open_chunk_after(c);
            (c + 1, 0)
        } else {
            self.split(c, CHUNK_MAX);
            let half = CHUNK_MAX / 2;
            if i <= half { (c, i) } else { (c + 1, i - half) }
        };
        let chunk = self.chunk_mut(c);
        if i == chunk.len() {
            chunk.push(acc);
        } else {
            chunk.insert(i, acc);
        }
        self.stats.len += 1;
        self.settle(c);
    }

    /// Restores the chunk invariants at chunk `c` after it changed:
    /// refreshes its fence, or splits it if it overflowed.
    #[inline]
    fn settle(&mut self, c: usize) {
        let n = self.chunk(c).len();
        if n > CHUNK_MAX {
            self.split(c, n);
        } else if let Some(chunk) = self.chunks.get_mut(c) {
            chunk.fence = chunk.accs[n - 1].interval.hi;
        }
    }

    /// Opens an empty chunk right after the full chunk `c`; a full tail
    /// becomes a fenced chunk as it is, behind a new empty tail. The empty
    /// chunk is filled by the caller at once.
    fn open_chunk_after(&mut self, c: usize) {
        if c == self.chunks.len() {
            let full = std::mem::take(&mut self.tail);
            self.chunks.push(Chunk::new(full));
        } else {
            self.chunks.insert(c + 1, Chunk { fence: 0, accs: Vec::new() });
        }
    }

    /// Splits chunk `c` (of `n` accesses: full, or overflowing after a
    /// splice) into even pieces, at least two. Each piece gets *exact*
    /// capacity: a chunk whose stream moved on stays at its split size,
    /// and doubled capacity there would be dead memory.
    #[cold]
    #[inline(never)]
    fn split(&mut self, c: usize, n: usize) {
        let size = n.div_ceil(n.div_ceil(CHUNK_MAX).max(2));
        let whole = std::mem::take(self.chunk_mut(c));
        let mut pieces: Vec<Vec<MemAccess>> =
            whole.chunks(size).map(<[MemAccess]>::to_vec).collect();
        // An overflowing tail keeps its last piece as the tail.
        let replaced = if c == self.chunks.len() {
            self.tail = pieces.pop().expect("an overflowing chunk splits into pieces");
            c..c
        } else {
            c..c + 1
        };
        self.chunks.splice(replaced, pieces.into_iter().map(Chunk::new));
    }

    /// Replaces the whole contents by `accs` (sorted, disjoint), with
    /// the hull rebuilt from their bounds.
    fn load(&mut self, accs: Vec<MemAccess>) {
        (self.hull_lo, self.hull_hi) = match (accs.first(), accs.last()) {
            (Some(f), Some(l)) => (f.interval.lo, l.interval.hi),
            _ => (1, 0),
        };
        self.stats.len = accs.len();
        self.chunks.clear();
        self.tail = accs;
        self.settle(0);
    }

    /// Direct insertion of an access proved isolated (the fast path):
    /// steps 2–4 degenerate to `frags = [acc]`, and an access outside
    /// the hull goes after everything stored (a push onto the tail) or
    /// before it (the front of the first chunk) — no search at all.
    fn insert_isolated(&mut self, acc: MemAccess) {
        self.stats.fragments += 1;
        let append = self.tail.last().is_none_or(|a| a.interval.hi < acc.interval.lo);
        if append && self.tail.len() < CHUNK_MAX {
            self.tail.push(acc);
            self.stats.len += 1;
        } else if append {
            self.insert_at(self.chunks.len(), self.tail.len(), acc);
        } else {
            self.insert_at(0, 0, acc);
        }
        self.after_insert(acc.interval);
    }

    /// Bookkeeping shared by both insertion paths: peak, hull, budget.
    fn after_insert(&mut self, iv: Interval) {
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        if self.hull_lo > self.hull_hi {
            (self.hull_lo, self.hull_hi) = (iv.lo, iv.hi);
        } else {
            self.hull_lo = self.hull_lo.min(iv.lo);
            self.hull_hi = self.hull_hi.max(iv.hi);
        }
        if self.budget != 0 && self.stats.len > self.budget as usize {
            self.coalesce_to(self.budget as usize / 2);
        }
    }

    /// Budget degradation through the shared plan — degraded contents
    /// are byte-identical to the AVL engine's.
    #[cold]
    fn coalesce_to(&mut self, target: usize) {
        let all = self.snapshot();
        let Some(merged) = coalesce_plan(&all, target) else {
            return;
        };
        self.stats.coalesced += all.len() - merged.len();
        self.load(merged);
    }

    /// Checks the store invariants (test helper): accesses sorted and
    /// disjoint across the whole sequence, every chunk non-empty and at
    /// most `CHUNK_MAX` long, every fence equal to its chunk's last `hi`,
    /// and the node count in sync. Panics on violation.
    pub fn assert_disjoint(&self) {
        for (c, chunk) in self.chunks.iter().enumerate() {
            let n = chunk.accs.len();
            assert!(n > 0 && n <= CHUNK_MAX, "chunk {c} holds {n} accesses");
            assert_eq!(chunk.fence, chunk.accs[n - 1].interval.hi, "chunk {c}: stale fence");
        }
        assert!(self.tail.len() <= CHUNK_MAX, "tail holds {} accesses", self.tail.len());
        assert!(
            !self.tail.is_empty() || self.chunks.is_empty(),
            "empty tail behind {} chunks",
            self.chunks.len()
        );
        let all = self.snapshot();
        assert_eq!(all.len(), self.stats.len, "node count out of sync");
        for w in all.windows(2) {
            assert!(
                w[0].interval.hi < w[1].interval.lo,
                "stored intervals overlap or are unsorted: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

impl AccessStore for FlatStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        self.stats.recorded += 1;

        // Cheap-reject fast path, same rule as the AVL engine: strictly
        // outside the hull (not touching it) means nothing stored can
        // conflict, fragment or merge with this access. (An empty hull
        // has `lo > hi`, so both touch tests fail and the access goes
        // straight in.)
        if acc.interval.lo > self.hull_hi.saturating_add(1)
            || acc.interval.hi.saturating_add(1) < self.hull_lo
            || self.hull_lo > self.hull_hi
        {
            self.stats.fast_hits += 1;
            self.insert_isolated(acc);
            return Ok(());
        }

        // One search serves steps 1 and 2: the run of the widened
        // interval starts at most one touching (so non-conflicting)
        // neighbour before the first access that could conflict.
        let start = self.lower_bound(acc.interval.lo.saturating_sub(1));
        if let Some(stored) = self.first_conflict(start, &acc) {
            let report = Box::new(RaceReport::new(*stored, acc));
            self.stats.races += 1;
            return Err(report);
        }

        self.apply(start, acc);
        Ok(())
    }

    fn len(&self) -> usize {
        self.stats.len
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Ends the epoch. The tail keeps its capacity, so a small
    /// per-(rank, window) store stops allocating after its first epoch.
    fn clear(&mut self) {
        self.stats.on_clear(self.stats.len);
        self.chunks.clear();
        self.tail.clear();
        (self.hull_lo, self.hull_hi) = (1, 0);
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        let mut all = Vec::with_capacity(self.stats.len);
        for chunk in self.chunks.iter() {
            all.extend_from_slice(&chunk.accs);
        }
        all.extend_from_slice(&self.tail);
        all
    }

    /// Exact rollback, mirroring [`crate::FragMergeStore::restore`]: the
    /// snapshot is copied in verbatim (no re-record, no statistics
    /// drift, no re-merging of budget-coalesced chunks) and the hull is
    /// rebuilt from the snapshot bounds — a pre-restore hull can never
    /// survive.
    fn restore(&mut self, snap: &[MemAccess]) {
        self.load(snap.to_vec());
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmerge::FragMergeStore;
    use crate::{AccessKind, RankId, SrcLoc};
    use AccessKind::*;

    fn acc(lo: u64, hi: u64, kind: AccessKind, line: u32) -> MemAccess {
        acc_by(lo, hi, kind, 0, line)
    }

    fn acc_by(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            kind,
            RankId(rank),
            SrcLoc::synthetic("code.c", line),
        )
    }

    /// Code 1 / Figure 5b on the flat engine: the Store(7) race IS
    /// caught, with the same report the AVL engine produces.
    #[test]
    fn code1_race_detected() {
        let mut s = FlatStore::new();
        s.record(acc(4, 4, LocalRead, 1)).unwrap();
        s.record(acc(2, 12, RmaRead, 2)).unwrap();
        let err = s.record(acc(7, 7, LocalWrite, 3)).unwrap_err();
        assert_eq!(err.existing.kind, RmaRead);
        assert_eq!(err.existing.loc.line, 2);
        s.assert_disjoint();
    }

    /// The two-level gallop against a brute-force scan, over every probe
    /// address of a layout spanning several chunks.
    #[test]
    fn lower_bound_matches_linear_scan() {
        let mut s = FlatStore::new();
        for i in 0..400u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
        }
        assert!(s.chunk_count() >= 4, "layout must span several chunks");
        let all = s.snapshot();
        for probe in 0..4020u64 {
            let want = all.iter().position(|a| a.interval.hi >= probe).unwrap_or(all.len());
            let (c, i) = s.lower_bound(probe);
            let start: usize = s.chunks[..c].iter().map(|c| c.accs.len()).sum();
            assert_eq!(start + i, want, "probe {probe}");
        }
        assert_eq!(s.lower_bound(0), (0, 0));
        assert_eq!(s.lower_bound(Addr::MAX), (s.chunks.len(), s.tail.len()));
    }

    /// A full chunk makes room before it takes one more access: an
    /// append leaves it full and opens the next chunk, any other insert
    /// splits it in half, and the halves keep exact capacity.
    #[test]
    fn full_chunk_makes_room_by_append_or_split() {
        let mut s = FlatStore::new();
        for i in 0..=CHUNK_MAX as u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
        }
        assert_eq!(s.chunks[0].accs.len(), CHUNK_MAX, "an append leaves the chunk full");
        assert_eq!(s.tail.len(), 1);
        for i in 1..CHUNK_MAX as u64 {
            s.record(acc(i * 10 + 5, i * 10 + 5, LocalRead, 999)).unwrap();
            if s.chunks.len() > 1 {
                break;
            }
        }
        let halves = [&s.chunks[0].accs, &s.chunks[1].accs];
        assert_eq!(halves.map(Vec::len), [CHUNK_MAX / 2 + 1, CHUNK_MAX / 2]);
        assert_eq!(halves.map(Vec::capacity)[1], CHUNK_MAX / 2, "split halves keep exact capacity");
        s.assert_disjoint();
    }

    /// A rising frontier in front of a later chunk appends to its own
    /// chunk rather than prepending to the next one.
    #[test]
    fn frontier_on_a_fence_appends_left() {
        let mut s = FlatStore::new();
        for i in 0..=CHUNK_MAX as u64 {
            s.record(acc(1_000_000 + i * 10, 1_000_000 + i * 10 + 3, LocalRead, 1)).unwrap();
        }
        s.record(acc(0, 1, LocalRead, 2)).unwrap();
        s.record(acc(1_001_300, 1_001_301, LocalRead, 3)).unwrap(); // past the last fence
        let before = [s.chunks[0].accs.len(), s.tail.len()];
        // Gap between chunk 0's last access and the tail's first.
        let gap = s.chunks[0].fence + 3;
        s.record(acc(gap, gap, LocalRead, 4)).unwrap();
        assert_eq!([s.chunks[0].accs.len(), s.tail.len()], [before[0] + 1, before[1]]);
        s.assert_disjoint();
    }

    /// A wide access whose overlap run crosses several fences: gathered,
    /// fragmented, spliced back and re-split — contents identical to the
    /// AVL engine's, with and without the merging pass.
    #[test]
    fn run_across_fences_matches_fragmerge() {
        for merging in [true, false] {
            let (mut flat, mut tree) = if merging {
                (FlatStore::new(), FragMergeStore::new())
            } else {
                (FlatStore::without_merging(), FragMergeStore::without_merging())
            };
            for i in 0..600u64 {
                let a = acc(i * 4, i * 4 + 1, LocalRead, i as u32 % 5);
                assert_eq!(flat.record(a), tree.record(a));
            }
            assert!(flat.chunk_count() >= 4);
            // Grows (LocalRead fills the gaps) and then shrinks
            // (LocalWrite overwrites everything it covers) the runs.
            for a in [acc(100, 1900, LocalRead, 9), acc(50, 2300, LocalWrite, 8)] {
                assert_eq!(flat.record(a), tree.record(a));
                assert_eq!(flat.snapshot(), tree.snapshot());
                flat.assert_disjoint();
            }
            assert_eq!(flat.stats(), tree.stats());
        }
    }

    /// Differential: randomized sequences give identical contents,
    /// verdicts and statistics to the AVL engine. (The heavyweight
    /// campaign lives in tests/engine_prop.rs; this is the in-crate
    /// smoke version.)
    #[test]
    fn matches_fragmerge_on_mixed_sequences() {
        let kinds = [LocalRead, LocalWrite, RmaRead, RmaWrite, RmaAccum];
        let mut x = 0x9E37_79B9_97F4_A7C1u64;
        let mut flat = FlatStore::new();
        let mut tree = FragMergeStore::new();
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lo = x % 2048;
            let width = (x >> 11) % 64;
            let a = acc_by(
                lo,
                lo + width,
                kinds[(x >> 20) as usize % kinds.len()],
                (x >> 30) as u32 % 3,
                (x >> 40) as u32 % 7,
            );
            let f = flat.record(a);
            let t = tree.record(a);
            assert_eq!(f, t, "verdict diverged at step {step} on {a:?}");
            if step % 512 == 511 {
                flat.assert_disjoint();
                flat.clear();
                tree.clear();
            }
        }
        assert_eq!(flat.snapshot(), tree.snapshot());
        assert_eq!(flat.stats(), tree.stats());
        flat.assert_disjoint();
    }

    /// Same differential under a tiny budget: the shared coalesce plan
    /// keeps degraded contents byte-identical.
    #[test]
    fn budgeted_matches_fragmerge() {
        let mut flat = FlatStore::with_budget(8);
        let mut tree = FragMergeStore::with_budget(8);
        for i in 0..200u64 {
            let a = acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32);
            assert_eq!(flat.record(a), tree.record(a));
        }
        assert_eq!(flat.snapshot(), tree.snapshot());
        assert_eq!(flat.stats(), tree.stats());
        assert!(flat.stats().coalesced > 0);
        let gap = acc(55, 56, LocalRead, 999);
        assert_eq!(flat.record(gap).is_err(), tree.record(gap).is_err());
    }

    /// `boxed` builds the same four flavours as the by-value
    /// constructors: identical contents and statistics on a stream that
    /// merges, fragments and exceeds a small budget.
    #[test]
    fn boxed_matches_constructors() {
        let flavours: [(bool, Option<usize>, FlatStore); 4] = [
            (true, None, FlatStore::new()),
            (false, None, FlatStore::without_merging()),
            (true, Some(8), FlatStore::with_budget(8)),
            (false, Some(1), FlatStore::without_merging_budgeted(1)),
        ];
        for (merging, budget, mut by_value) in flavours {
            let mut boxed = FlatStore::boxed(merging, budget);
            for i in 0..100u64 {
                let a = acc_by(i * 6, i * 6 + 7, RmaRead, 1, (i % 3) as u32);
                assert_eq!(boxed.record(a), by_value.record(a));
            }
            assert_eq!(boxed.snapshot(), by_value.snapshot());
            assert_eq!(boxed.stats(), by_value.stats());
        }
    }

    /// Fast path bookkeeping matches the AVL engine exactly (same hull
    /// rule, same counts); `clear` empties the chunks and the hull but
    /// keeps the tail's capacity.
    #[test]
    fn fast_path_and_clear() {
        let mut s = FlatStore::new();
        s.record(acc(10, 19, LocalRead, 1)).unwrap();
        s.record(acc(40, 49, LocalRead, 1)).unwrap();
        assert_eq!(s.stats().fast_hits, 2);
        s.record(acc(20, 29, LocalRead, 1)).unwrap(); // touching: slow path
        assert_eq!(s.stats().fast_hits, 2);
        assert_eq!(
            s.snapshot().iter().map(|a| a.interval).collect::<Vec<_>>(),
            vec![Interval::new(10, 29), Interval::new(40, 49)]
        );
        let cap = s.tail.capacity();
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.chunk_count(), 0);
        assert_eq!(s.tail.capacity(), cap, "clear must keep the tail's buffer");
        s.record(acc_by(10, 19, LocalWrite, 0, 2)).unwrap();
        assert_eq!(s.stats().fast_hits, 3, "clear must reset the cached hull");
        s.assert_disjoint();
    }

    /// Restore is exact and can never resurrect a pre-restore hull: an
    /// access over memory only the rolled-back suffix covered must take
    /// the fast path and must not conflict.
    #[test]
    fn restore_is_exact_and_shrinks_hull() {
        let mut s = FlatStore::new();
        s.record(acc(10, 19, RmaWrite, 1)).unwrap();
        let snap = s.snapshot();
        s.record(acc(60, 99, RmaWrite, 2)).unwrap();
        s.restore(&snap);
        assert_eq!(s.snapshot(), snap);
        let fast = s.stats().fast_hits;
        s.record(acc_by(60, 99, LocalWrite, 1, 3)).unwrap();
        assert_eq!(s.stats().fast_hits, fast + 1, "stale hull must not linger");
    }

    /// Interval ending at Addr::MAX: gallop and cursor arithmetic must
    /// not overflow.
    #[test]
    fn interval_at_addr_max() {
        let mut s = FlatStore::new();
        s.record(acc(Addr::MAX - 9, Addr::MAX, LocalRead, 1)).unwrap();
        s.record(acc(Addr::MAX - 4, Addr::MAX, LocalRead, 1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot()[0].interval, Interval::new(Addr::MAX - 9, Addr::MAX));
    }
}
