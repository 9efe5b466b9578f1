//! The deterministic work-stealing executor.
//!
//! # Scheduling
//!
//! A `par_map` call splits `0..n` into one contiguous range per worker.
//! Each worker claims a *chunk* of indices from the front of its own
//! range (coarse range splitting: up to `CLAIM_CHUNK_MAX` indices per
//! CAS, so large maps don't pay one atomic round-trip per item); a
//! worker whose range is exhausted scans the others and steals the
//! *back half* of the largest remaining range (the classic
//! range-splitting variant of work stealing — cache-friendly for the
//! owner, coarse-grained for the thief). Ranges are packed into a
//! single `AtomicU64` per worker (`start` in the high 32 bits, `end` in
//! the low 32), so both claim and steal are one CAS with no locks
//! anywhere on the hot path. A thief that keeps losing races backs off
//! (yield first, then bounded sleeps) instead of spinning — on
//! oversubscribed or few-core hosts a hot thief starves the very
//! workers it waits on.
//!
//! # Determinism
//!
//! Stealing moves *which worker* executes an index between runs, but an
//! index's input and output slot never change. Workers record results as
//! `(index, value)` pairs that are merged and ordered after the scoped
//! join, so the returned `Vec` is independent of the steal schedule.

use crate::metrics::Metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Below this many items a `par_map` runs inline: spawning threads costs
/// more than the loop.
const PARALLEL_THRESHOLD: usize = 16;

/// Most indices one front claim may take. Claims adapt to the remaining
/// range (an eighth, so plenty stays stealable) but never exceed this —
/// a bounded chunk caps how stale the skew can get when per-item cost is
/// wildly uneven.
const CLAIM_CHUNK_MAX: u32 = 32;

/// Consecutive failed claim attempts a worker tolerates before switching
/// from `yield_now` to sleeping.
const BACKOFF_YIELD_LIMIT: u32 = 8;

/// Longest single backoff sleep, in microseconds (reached after repeated
/// contention; short enough that work appearing on a victim is picked up
/// promptly).
const BACKOFF_SLEEP_MAX_US: u64 = 200;

/// A work range packed as `start << 32 | end`.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// The deterministic parallel executor.
///
/// Cloning is cheap and shares the metrics registry, so one executor can
/// be threaded through a whole flow (and its run report accumulates
/// across stages).
#[derive(Clone, Debug)]
pub struct Executor {
    threads: usize,
    metrics: Arc<Metrics>,
}

impl Default for Executor {
    /// An executor sized to the machine (`available_parallelism`).
    fn default() -> Self {
        Self::new(0)
    }
}

impl Executor {
    /// Creates an executor with `threads` workers; `0` means "one per
    /// available hardware thread".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Self {
            threads,
            metrics: Arc::new(Metrics::new(threads)),
        }
    }

    /// A single-threaded executor (every `par_map` runs inline).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Opens a named instrumentation scope; see
    /// [`StageScope`](crate::metrics::StageScope).
    pub fn stage(&self, name: impl Into<String>) -> crate::metrics::StageScope<'_> {
        self.metrics.stage(name)
    }

    /// The accumulated run report.
    pub fn report(&self) -> crate::metrics::RunReport {
        self.metrics.report(self.threads)
    }

    /// Maps `f` over `items`, in parallel, preserving order.
    ///
    /// See the crate docs for the determinism contract.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// Maps `f(index, item)` over `items`, in parallel, preserving order.
    ///
    /// # Panics
    ///
    /// Panics (after joining all workers) if `f` panics for any item, or
    /// if `items.len()` exceeds `u32::MAX` (the packed-range scheduler's
    /// limit — far above any realistic net count).
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_indexed_min(items, PARALLEL_THRESHOLD, f)
    }

    /// Like [`par_map`](Self::par_map), but parallelizes even tiny inputs.
    ///
    /// `par_map` runs inline below `PARALLEL_THRESHOLD` items because
    /// thread spawning usually costs more than a short loop; callers with
    /// a *few heavy* items — per-orientation WDM planning, a batch of
    /// designs — use this variant instead.
    pub fn par_map_coarse<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed_min(items, 2, |_, item| f(item))
    }

    /// Runs one *synchronized wave*: an order-preserving parallel map over
    /// a small batch of heavy, mutually independent subproblems, counted
    /// in the metrics (see [`RunReport::total_waves`](crate::RunReport)).
    ///
    /// Wave-synchronous solvers — such as the ILP branch-and-bound
    /// expanding its `wave_size` best frontier nodes per round —
    /// alternate a concurrent expansion with a sequential deterministic
    /// merge. This helper is the expansion half: like
    /// [`par_map_coarse`](Self::par_map_coarse) it parallelizes from two
    /// items up, and it additionally bumps the wave counter so run
    /// reports expose how many solver rounds a stage took.
    ///
    /// Determinism: identical to `items.iter().map(f).collect()` for any
    /// thread count — the wave boundary is what lets the caller merge
    /// results in a fixed order.
    pub fn wave_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if !items.is_empty() {
            self.metrics.waves.fetch_add(1, Ordering::Relaxed);
        }
        self.par_map_indexed_min(items, 2, |_, item| f(item))
    }

    // operon-lint: allow(R003, reason = "the gather-lock expects only fire after a worker panicked; propagating that panic to the caller is the executor's contract")
    fn par_map_indexed_min<T, R, F>(&self, items: &[T], min_parallel: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        assert!(
            n <= u32::MAX as usize,
            "par_map over more than u32::MAX items"
        );
        if self.threads == 1 || n < min_parallel {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        self.metrics.par_calls.fetch_add(1, Ordering::Relaxed);

        let workers = self.threads.min(n);
        // One packed [start, end) range per worker; initial split is as
        // even as possible, remainder spread over the first ranges.
        let deques: Vec<AtomicU64> = (0..workers)
            .map(|w| {
                let base = n / workers;
                let extra = n % workers;
                let start = w * base + w.min(extra);
                let len = base + usize::from(w < extra);
                AtomicU64::new(pack(start as u32, (start + len) as u32))
            })
            .collect();

        let gathered: Mutex<Vec<(u32, R)>> = Mutex::new(Vec::with_capacity(n));
        let metrics = &self.metrics;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let deques = &deques;
                let gathered = &gathered;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(u32, R)> = Vec::new();
                    let mut tasks = 0u64;
                    let mut steals = 0u64;
                    // operon-lint: allow(D002, reason = "worker busy-time feeds the metrics this rule protects")
                    let busy = Instant::now();
                    let mut misses = 0u32;
                    loop {
                        match claim(deques, w) {
                            Claim::Range(s, e) => {
                                for i in s..e {
                                    local.push((i, f(i as usize, &items[i as usize])));
                                }
                                tasks += u64::from(e - s);
                                misses = 0;
                            }
                            Claim::Stolen => {
                                steals += 1;
                                misses = 0;
                            }
                            // Don't busy-wait on contention: on few-core
                            // machines a spinning thief starves the very
                            // worker it is waiting on. Yield first; under
                            // sustained contention escalate to bounded
                            // sleeps so dozens of thieves don't thrash
                            // the scheduler.
                            Claim::Retry => {
                                misses += 1;
                                if misses <= BACKOFF_YIELD_LIMIT {
                                    std::thread::yield_now();
                                } else {
                                    let over = u64::from(misses - BACKOFF_YIELD_LIMIT);
                                    std::thread::sleep(std::time::Duration::from_micros(
                                        (over * 10).min(BACKOFF_SLEEP_MAX_US),
                                    ));
                                }
                            }
                            Claim::Done => break,
                        }
                    }
                    metrics.record_worker(tasks, steals, busy.elapsed());
                    gathered.lock().expect("gather lock").append(&mut local);
                }));
            }
            for h in handles {
                // Propagate worker panics after every thread joined.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut pairs = gathered.into_inner().expect("gather lock");
        debug_assert_eq!(pairs.len(), n, "every index claimed exactly once");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

/// One scheduling decision for a worker.
enum Claim {
    /// Execute this contiguous `[start, end)` chunk of indices.
    Range(u32, u32),
    /// A steal succeeded; the worker's own deque was refilled.
    Stolen,
    /// Contention (victim drained or a CAS lost); back off and rescan.
    Retry,
    /// No work anywhere; exit.
    Done,
}

/// Claims a chunk off the front of worker `w`'s own range, or steals the
/// back half of the largest other range.
fn claim(deques: &[AtomicU64], w: usize) -> Claim {
    // Fast path: claim a chunk from our own range's front. Taking an
    // eighth (capped) amortizes the CAS over many items while leaving
    // most of the range visible to thieves.
    loop {
        let cur = deques[w].load(Ordering::Acquire);
        let (start, end) = unpack(cur);
        if start >= end {
            break;
        }
        let take = ((end - start) / 8).clamp(1, CLAIM_CHUNK_MAX);
        if deques[w]
            .compare_exchange_weak(
                cur,
                pack(start + take, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return Claim::Range(start, start + take);
        }
    }
    // Steal: take the back half of the largest remaining range.
    let victim = deques
        .iter()
        .enumerate()
        .filter(|&(v, _)| v != w)
        .map(|(v, d)| {
            let (s, e) = unpack(d.load(Ordering::Acquire));
            (e.saturating_sub(s), v)
        })
        .max()
        .filter(|&(remaining, _)| remaining > 0);
    let Some((_, v)) = victim else {
        return Claim::Done;
    };
    let cur = deques[v].load(Ordering::Acquire);
    let (start, end) = unpack(cur);
    if start >= end {
        // The victim drained between the scan and the CAS; rescan.
        return Claim::Retry;
    }
    // The thief takes the *ceil* half: a one-item range is stolen whole,
    // so a stalled (or panicked) owner can never strand its last index
    // behind an empty-steal livelock.
    let mid = start + (end - start) / 2;
    if deques[v]
        .compare_exchange(cur, pack(start, mid), Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        deques[w].store(pack(mid, end), Ordering::Release);
        return Claim::Stolen;
    }
    Claim::Retry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (s, e) in [(0, 0), (0, 1), (7, 123), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(s, e)), (s, e));
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = exec.par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_sees_true_indices() {
        let exec = Executor::new(8);
        let items = vec![10u64; 500];
        let out = exec.par_map_indexed(&items, |i, &x| i as u64 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 10);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // Float-heavy per-item work: bit-identical across 1/2/8 threads.
        let items: Vec<f64> = (0..777).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e9).mul_add(0.001, x.sqrt());
        let seq = Executor::sequential().par_map(&items, f);
        for threads in [2, 3, 8] {
            let par = Executor::new(threads).par_map(&items, f);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let exec = Executor::new(4);
        assert_eq!(exec.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(exec.par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn skewed_workload_still_ordered() {
        // Heavily skewed cost forces steals; order must survive.
        let items: Vec<usize> = (0..200).collect();
        let exec = Executor::new(4);
        let out = exec.par_map(&items, |&i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn counters_account_for_every_task() {
        let exec = Executor::new(4);
        let items: Vec<u32> = (0..300).collect();
        let before = exec.metrics().tasks();
        let _ = exec.par_map(&items, |&x| x);
        assert_eq!(exec.metrics().tasks() - before, 300);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Executor::new(0).threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            exec.par_map(&items, |&i| {
                assert!(i != 57, "injected failure");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn coarse_map_parallelizes_two_items() {
        let exec = Executor::new(2);
        let before = exec.metrics().par_calls();
        let out = exec.par_map_coarse(&[10u64, 20], |&x| x + 1);
        assert_eq!(out, vec![11, 21]);
        assert_eq!(exec.metrics().par_calls(), before + 1, "not inlined");
    }

    #[test]
    fn nested_par_map_works() {
        // The batch driver maps over designs while each flow maps over
        // nets; scoped spawning makes reentrancy safe.
        let exec = Executor::new(2);
        let outer: Vec<usize> = (0..20).collect();
        let out = exec.par_map(&outer, |&o| {
            let inner: Vec<usize> = (0..50).collect();
            exec.par_map(&inner, |&i| i * o).iter().sum::<usize>()
        });
        for (o, v) in out.iter().enumerate() {
            assert_eq!(*v, o * (49 * 50) / 2);
        }
    }
}
