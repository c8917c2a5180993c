//! Analyzer behaviour with several windows, the Messages delivery, and
//! the stride-extension algorithm inside the full runtime.

use rma_monitor::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_sim::{AccessKind, RankId, WinId, World, WorldCfg};
use std::sync::Arc;

/// Windows have independent address spaces and independent stores: the
/// "same" offsets in two windows never conflict, and stats are kept per
/// window.
#[test]
fn windows_are_isolated() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg::default()));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let w1 = ctx.win_allocate(64);
        let w2 = ctx.win_allocate(64);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(w1);
        ctx.win_lock_all(w2);
        if ctx.rank() == RankId(0) {
            // One put per window to offset 0: same offsets, different
            // address spaces — no conflict.
            ctx.put(&buf, 0, 8, RankId(1), 0, w1);
            ctx.put(&buf, 0, 8, RankId(1), 0, w2);
        }
        ctx.win_unlock_all(w2);
        ctx.win_unlock_all(w1);
        ctx.barrier();
    });
    assert!(out.is_clean(), "{:?}", out.aborts);
    let stats = mon.window_stats();
    assert_eq!(stats.len(), 2);
    // Each window's target store saw exactly one remote record.
    assert_eq!(stats[0][1].recorded, 1);
    assert_eq!(stats[1][1].recorded, 1);
}

/// The analyzer's window table has no fixed capacity: 70 windows cross
/// every bucket boundary of its doubling buckets (1, 3, 7, 15, 31, 63
/// windows), and detection works on either side of each.
#[test]
fn seventy_windows_cross_every_table_bucket() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        ..AnalyzerCfg::default()
    }));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let wins: Vec<WinId> = (0..70).map(|_| ctx.win_allocate(64)).collect();
        let buf = ctx.alloc(16);
        // First window: one put, a clean epoch.
        ctx.win_lock_all(wins[0]);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 8, RankId(1), 0, wins[0]);
        }
        ctx.win_unlock_all(wins[0]);
        // Window 65: the target stores into its window, then an origin
        // puts over the same bytes.
        ctx.win_lock_all(wins[65]);
        if ctx.rank() == RankId(0) {
            let _ = ctx.recv(Some(RankId(1)), 1);
            ctx.put(&buf, 0, 8, RankId(1), 0, wins[65]);
        } else {
            let wb = ctx.win_buf(wins[65]);
            ctx.store_u64(&wb, 0, 42);
            ctx.send(RankId(0), 1, vec![]);
        }
        ctx.win_unlock_all(wins[65]);
        // Last window: the duplicated put of Figure 9.
        ctx.win_lock_all(wins[69]);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 16, RankId(1), 0, wins[69]);
            ctx.put(&buf, 0, 16, RankId(1), 0, wins[69]);
        }
        ctx.win_unlock_all(wins[69]);
        ctx.barrier();
    });
    assert!(out.is_clean(), "{:?} {:?}", out.aborts, out.panics);
    let stats = mon.window_stats();
    assert_eq!(stats.len(), 70);
    // Window 0 saw its put and no race.
    assert_eq!(stats[0][1].recorded, 1);
    let races = mon.races();
    assert_eq!(races.len(), 2, "{races:?}");
    assert!(
        races.iter().any(|r| r.existing.kind == AccessKind::LocalWrite
            && r.new.kind == AccessKind::RmaWrite),
        "window 65: local store vs remote put must race: {races:?}"
    );
    assert!(
        races.iter().any(|r| r.existing.kind == AccessKind::RmaWrite
            && r.new.kind == AccessKind::RmaWrite),
        "window 69: duplicated put must race: {races:?}"
    );
    // Windows 0, 65 and 69 are the only ones touched.
    for (w, per_rank) in stats.iter().enumerate() {
        let recorded: usize = per_rank.iter().map(|s| s.recorded).sum();
        let want = match w {
            0 => 2,      // origin-side + target-side record of one put
            65 => 3,     // the local store + both sides of the put
            69 => 4,     // both sides of two puts
            _ => 0,
        };
        assert_eq!(recorded, want, "window {w}");
    }
}

/// Messages delivery with interleaved traffic into two windows: same
/// verdicts and the receiver drains everything by epoch end.
#[test]
fn messages_delivery_multiwindow() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        algorithm: Algorithm::FragMerge,
        on_race: OnRace::Collect,
        delivery: Delivery::Messages,
        node_budget: None,
        max_respawns: 3,
        batch_size: 1,
    }));
    let out = World::run(WorldCfg::with_ranks(4), mon.clone(), |ctx| {
        let w1 = ctx.win_allocate(256);
        let w2 = ctx.win_allocate(256);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(w1);
        ctx.win_lock_all(w2);
        // Disjoint per-origin slots in both windows: race-free.
        let slot = u64::from(ctx.rank().0) * 8;
        for peer in 0..ctx.nranks() {
            if peer != ctx.rank().0 {
                ctx.put(&buf, 0, 8, RankId(peer), slot, w1);
                ctx.put(&buf, 0, 8, RankId(peer), slot, w2);
            }
        }
        ctx.win_unlock_all(w2);
        ctx.win_unlock_all(w1);
        ctx.barrier();
    });
    assert!(out.is_clean(), "{:?}", out.aborts);
    assert!(mon.races().is_empty());
    // 3 peers x 4 origins = 12 remote records per window, all processed.
    let stats = mon.window_stats();
    for w in &stats {
        let remote: usize = w.iter().map(|s| s.recorded).sum();
        assert_eq!(remote, 12 + 12, "origin-side + target-side records");
    }
}

/// The stride-extension algorithm inside the runtime: a strided
/// attribute sweep stays at O(lines) nodes and epochs still clear.
#[test]
fn stride_extension_in_runtime() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        algorithm: Algorithm::StrideExtension,
        on_race: OnRace::Abort,
        delivery: Delivery::Direct,
        node_budget: None,
        max_respawns: 3,
        batch_size: 1,
    }));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(16 * 512);
        // Strided cache on the origin side too (a get WRITES its origin
        // buffer, so distinct slots are required for race freedom).
        let cache = ctx.alloc(16 * 512);
        for _epoch in 0..3 {
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                for v in 0..512u64 {
                    // One attribute of each 16-byte record.
                    ctx.get(&cache, v * 16, 8, RankId(1), v * 16, win);
                }
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        }
    });
    assert!(out.is_clean(), "{:?}", out.aborts);
    let stats = mon.window_stats();
    // 512 strided reads (target side) and 512 strided writes (origin
    // side) per epoch each compress to one run.
    let origin = &stats[0][0];
    let target = &stats[0][1];
    assert!(origin.peak_len <= 2, "strided origin writes must compress: {origin:?}");
    assert!(target.peak_len <= 2, "strided target reads must compress: {target:?}");
    assert_eq!(target.epochs, 3);
}

/// Same-line gets into one origin buffer DO race (write-write at the
/// origin) — guard against the runtime silently absorbing it.
#[test]
fn repeated_get_into_same_origin_buffer_races() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg::default()));
    let out = World::run(WorldCfg::with_ranks(2), mon, |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            for v in 0..2u64 {
                ctx.get(&buf, 0, 8, RankId(1), v * 8, win);
            }
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.raced(), "two gets writing one origin buffer race");
}
