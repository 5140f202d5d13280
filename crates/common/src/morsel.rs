//! Morsel-driven work scheduling for parallel query execution.
//!
//! A *morsel* is a fixed-size range of base-table rows — the unit of work a
//! parallel operator hands to its worker threads, following the
//! morsel-driven scheduling of modern in-memory engines.  This module
//! provides the scheduling substrate both engines share; it knows nothing
//! about rows or operators:
//!
//! * [`MORSEL_ROWS`] — the default morsel granularity;
//! * [`morsel_count`] / [`morsel_range`] — split `n` rows into morsels;
//! * [`MorselQueue`] — a lock-free work queue handing out morsel indices
//!   **in ascending order**, with a shared row *quota* for cooperative
//!   `LIMIT` early termination and a stop flag for error aborts;
//! * [`scatter`] — the scoped-thread driver: claim morsels from a queue,
//!   run a worker function per morsel, and return the results **merged in
//!   morsel order**, so the assembled output is deterministic regardless of
//!   thread scheduling (the same positional-merge discipline as the bounded
//!   executor's parallel fetch);
//! * [`default_workers`] — the `available_parallelism`-derived worker count.
//!
//! Ordered hand-out is the property the correctness arguments lean on: at
//! any instant the set of claimed morsels is a *contiguous prefix* of the
//! morsel sequence.  Once the quota counter reports at least `k` surviving
//! rows, the first `k` survivors in row order are guaranteed to lie inside
//! already-claimed morsels, so workers can simply stop claiming and finish
//! what they hold — the merged prefix still contains the exact rows a
//! serial execution would have produced.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default number of rows per morsel.
///
/// Chosen so a morsel's worth of per-row expression evaluation (~100ns/row)
/// dwarfs the scheduling cost of claiming it (one `fetch_add`), while still
/// splitting medium tables into enough morsels to balance load across a
/// handful of workers.
pub const MORSEL_ROWS: usize = 16_384;

/// Number of morsels needed to cover `rows` rows at `morsel_rows` each.
/// Zero rows need zero morsels.
pub fn morsel_count(rows: usize, morsel_rows: usize) -> usize {
    rows.div_ceil(morsel_rows.max(1))
}

/// The row range of morsel `index` over `rows` rows (the last morsel may be
/// short).
pub fn morsel_range(index: usize, rows: usize, morsel_rows: usize) -> Range<usize> {
    let morsel_rows = morsel_rows.max(1);
    let start = (index * morsel_rows).min(rows);
    let end = ((index + 1) * morsel_rows).min(rows);
    start..end
}

/// Worker count for a parallel stage: `available_parallelism` capped at
/// `cap` (the same pattern as the bounded executor's parallel fetch).
/// Returns 1 — i.e. "stay serial" — when the host reports a single core.
///
/// The host core count is read once per process and cached: on Linux
/// `available_parallelism` reads cgroup files (tens of microseconds), which
/// would otherwise dominate a bounded fetch step that costs a handful of
/// index lookups.  This is the only place the workspace asks the OS for the
/// core count (beas-lint rule L010).
pub fn default_workers(cap: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(cap.max(1))
}

/// A work queue over the morsels `0..morsels`, handing indices out in
/// ascending order.
///
/// Two cooperative shutdown mechanisms ride along:
///
/// * a **quota**: workers report surviving rows through
///   [`MorselQueue::note_rows`]; once the total reaches the quota,
///   [`MorselQueue::claim`] returns `None`.  This is how a streaming
///   `LIMIT k` above a parallel fragment stops the scan — workers finish
///   their in-flight morsel (claimed morsels are always processed to
///   completion, keeping the merged prefix complete) and then stop;
/// * a **stop flag** ([`MorselQueue::stop`]): set on the first evaluation
///   error.  Later morsels cannot contain the first error in row order —
///   claims are ordered, so every earlier morsel is already claimed and
///   will be fully processed — which makes aborting the tail sound.
#[derive(Debug)]
pub struct MorselQueue {
    next: AtomicUsize,
    morsels: usize,
    produced: AtomicUsize,
    quota: usize,
    stopped: AtomicBool,
}

impl MorselQueue {
    /// A queue over `morsels` morsels with no row quota.
    pub fn new(morsels: usize) -> Self {
        MorselQueue::with_quota(morsels, usize::MAX)
    }

    /// A queue over `morsels` morsels that stops handing out work once
    /// `quota` surviving rows have been reported via
    /// [`MorselQueue::note_rows`].
    pub fn with_quota(morsels: usize, quota: usize) -> Self {
        MorselQueue {
            next: AtomicUsize::new(0),
            morsels,
            produced: AtomicUsize::new(0),
            quota,
            stopped: AtomicBool::new(false),
        }
    }

    /// Total number of morsels this queue was created over.
    pub fn morsels(&self) -> usize {
        self.morsels
    }

    /// Claim the next morsel index, or `None` when the queue is exhausted,
    /// stopped, or the quota has been met.  Indices are handed out in
    /// ascending order, so the claimed set is always a contiguous prefix.
    pub fn claim(&self) -> Option<usize> {
        if self.stopped.load(Ordering::Acquire)
            || self.produced.load(Ordering::Acquire) >= self.quota
        {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.morsels {
            Some(i)
        } else {
            None
        }
    }

    /// Report `n` surviving rows toward the quota.
    pub fn note_rows(&self, n: usize) {
        if self.quota != usize::MAX && n > 0 {
            self.produced.fetch_add(n, Ordering::AcqRel);
        }
    }

    /// Stop handing out morsels (error abort).  In-flight morsels finish.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    /// Whether [`MorselQueue::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// The result of a [`scatter`] run.
#[derive(Debug)]
pub struct ScatterOutcome<T> {
    /// One entry per *processed* morsel, sorted by morsel index — a
    /// contiguous prefix of the morsel sequence (early stop truncates it).
    pub results: Vec<T>,
    /// Morsels processed by each worker, for per-worker scheduling metrics.
    pub morsels_per_worker: Vec<usize>,
}

/// Run `work` over the morsels of `queue` on `workers` scoped threads and
/// return the outputs merged in morsel order.
///
/// The merge is deterministic: each worker tags its outputs with the morsel
/// index it claimed, and the outputs are sorted by that index after the
/// scope joins — identical to a serial left-to-right run over the same
/// morsels, regardless of which worker processed which morsel.  With
/// `workers <= 1` (or a single morsel) no thread is spawned and the queue
/// is drained inline.
pub fn scatter<T, F>(queue: &MorselQueue, workers: usize, work: F) -> ScatterOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || queue.morsels() <= 1 {
        let mut results = Vec::new();
        while let Some(i) = queue.claim() {
            results.push(work(i));
        }
        return ScatterOutcome {
            morsels_per_worker: vec![results.len()],
            results,
        };
    }
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = queue.claim() {
                        mine.push((i, work(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });
    let morsels_per_worker: Vec<usize> = per_worker.iter().map(|w| w.len()).collect();
    let mut tagged: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    tagged.sort_by_key(|(i, _)| *i);
    ScatterOutcome {
        results: tagged.into_iter().map(|(_, t)| t).collect(),
        morsels_per_worker,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_the_table_exactly_once() {
        for (rows, morsel_rows) in [(0, 10), (1, 10), (10, 10), (11, 10), (95, 16), (100, 1)] {
            let n = morsel_count(rows, morsel_rows);
            let mut covered = 0;
            for i in 0..n {
                let r = morsel_range(i, rows, morsel_rows);
                assert_eq!(r.start, covered, "rows={rows} morsel_rows={morsel_rows}");
                assert!(!r.is_empty());
                assert!(r.len() <= morsel_rows);
                covered = r.end;
            }
            assert_eq!(covered, rows);
            // one-past-the-end morsel is empty, not out of bounds
            assert!(morsel_range(n, rows, morsel_rows).is_empty());
        }
        // degenerate granularity is clamped instead of dividing by zero
        assert_eq!(morsel_count(5, 0), 5);
    }

    #[test]
    fn queue_hands_out_ascending_then_exhausts() {
        let q = MorselQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn quota_stops_new_claims_but_not_in_flight_work() {
        let q = MorselQueue::with_quota(10, 5);
        assert_eq!(q.claim(), Some(0));
        q.note_rows(3);
        assert_eq!(q.claim(), Some(1)); // quota not met yet
        q.note_rows(2);
        assert_eq!(q.claim(), None); // 5 rows reported: no new morsels
                                     // a quota-free queue ignores note_rows entirely
        let free = MorselQueue::new(2);
        free.note_rows(usize::MAX / 2);
        assert_eq!(free.claim(), Some(0));
    }

    #[test]
    fn stop_aborts_the_queue() {
        let q = MorselQueue::new(10);
        assert_eq!(q.claim(), Some(0));
        assert!(!q.is_stopped());
        q.stop();
        assert!(q.is_stopped());
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn scatter_merges_in_morsel_order() {
        for workers in [1, 2, 4, 8] {
            let q = MorselQueue::new(23);
            let out = scatter(&q, workers, |i| i * 10);
            assert_eq!(out.results, (0..23).map(|i| i * 10).collect::<Vec<_>>());
            let spawned = if workers <= 1 { 1 } else { workers };
            assert_eq!(out.morsels_per_worker.len(), spawned);
            assert_eq!(out.morsels_per_worker.iter().sum::<usize>(), 23);
        }
    }

    #[test]
    fn scatter_with_quota_processes_a_contiguous_prefix() {
        // each morsel "produces" 2 surviving rows; quota 5 needs 3 morsels
        let q = MorselQueue::with_quota(100, 5);
        let out = scatter(&q, 4, |i| {
            q.note_rows(2);
            i
        });
        // the processed set is a contiguous prefix long enough for the quota
        assert_eq!(out.results, (0..out.results.len()).collect::<Vec<_>>());
        assert!(out.results.len() >= 3, "quota needs at least 3 morsels");
        // racing workers may claim a few extra in-flight morsels, never all
        assert!(out.results.len() < 100, "quota failed to stop the queue");
    }

    #[test]
    fn single_morsel_runs_inline() {
        let q = MorselQueue::new(1);
        let out = scatter(&q, 8, |i| i);
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.morsels_per_worker, vec![1]);
    }
}
