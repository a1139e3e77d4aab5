//! # cpx-par
//!
//! Deterministic shared-memory parallel execution for the workspace's
//! hot kernels (SpMV, SpGEMM, hybrid Gauss–Seidel, the SIMPIC particle
//! push, the pressure spray update), built on `std::thread::scope`.
//!
//! ## Determinism contract
//!
//! Work is partitioned into a fixed number of contiguous **chunks**
//! ([`chunk_ranges`]). All numerics are keyed to the chunk count and to
//! which chunk a datum falls in — never to the runtime thread count.
//! Threads only decide *which worker executes which chunk* (a static
//! stride assignment: worker `w` owns chunks `w, w + W, w + 2W, …`),
//! and every chunk's output lands in storage addressed by its chunk
//! index, so results are bit-identical from 1 to N threads. A
//! [`ParPool`] with `threads == 1` degrades every combinator to the
//! plain serial loop — no scope, no spawn, no synchronisation.
//!
//! ## Configuration
//!
//! The global pool ([`ParPool::current`]) is sized from the
//! `CPX_THREADS` environment variable (default 1, clamped to
//! `1..=`[`MAX_THREADS`]) or programmatically via
//! [`ParPool::set_global_threads`]. Kernels that consult the global
//! pool first apply [`ParPool::limited`] so tiny problems never pay
//! thread-spawn latency. Explicit pools ([`ParPool::with_threads`]) are
//! for benchmarks and tests that sweep thread counts without touching
//! process-global state.
//!
//! ## Telemetry
//!
//! [`with_telemetry`] opens an observational window in which every
//! combinator records one [`ChunkTiming`] per executed chunk (worker,
//! items, wall start/end). The resulting [`PoolTelemetry`] derives
//! per-worker busy/idle time, utilization and a load-imbalance ratio.
//! Collection never affects the chunk→worker assignment, so the
//! determinism contract is unchanged; when no window is open the cost
//! is one relaxed atomic load per chunk.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod telemetry;

pub use telemetry::{with_telemetry, ChunkTiming, PoolTelemetry};

/// Upper bound on the configured thread count (sanity clamp for the
/// `CPX_THREADS` parse; far above any plausible core count here).
pub const MAX_THREADS: usize = 256;

/// Minimum work units (rows, nonzeros, particles, …) per worker before
/// the global-pool entry points fan out: below this, scoped-thread
/// setup costs more than the kernel body. Sized so the smoke-problem
/// kernels (≲100k nonzeros) stay on the serial fast path — measured in
/// `bench_kernels --size`, spawn latency only amortises above roughly
/// this many units per worker.
pub const MIN_WORK_PER_WORKER: usize = 131_072;

/// Global thread count; 0 means "not yet initialised from the
/// environment".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached `std::thread::available_parallelism` (0 = not yet probed).
static HW_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism as reported by the OS, probed once and cached.
/// Oversubscribing beyond this only adds context-switch latency — the
/// determinism contract keys results to chunk counts, so capping the
/// worker count never changes a result bit.
pub fn hardware_threads() -> usize {
    let cached = HW_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    HW_THREADS.store(hw, Ordering::Relaxed);
    hw
}

fn env_threads() -> usize {
    std::env::var("CPX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.clamp(1, MAX_THREADS))
}

/// One chunk's worth of work handed to a worker: chunk index, the index
/// range it covers, and the disjoint sub-slice it owns.
type ChunkTask<'a, T> = (usize, Range<usize>, &'a mut [T]);

/// [`ChunkTask`] over two slices partitioned by the same ranges.
type ZipChunkTask<'a, A, B> = (usize, Range<usize>, &'a mut [A], &'a mut [B]);

/// A worker-count handle. Copyable and cheap; the actual threads are
/// scoped per call, so a pool carries no OS resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParPool {
    threads: usize,
}

impl ParPool {
    /// A pool with exactly `threads` workers (clamped to
    /// `1..=`[`MAX_THREADS`]).
    pub fn with_threads(threads: usize) -> ParPool {
        ParPool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The always-serial pool (the `threads == 1` fast path).
    pub fn serial() -> ParPool {
        ParPool::with_threads(1)
    }

    /// The global pool: sized from `CPX_THREADS` on first use (default
    /// 1), or whatever [`ParPool::set_global_threads`] last stored.
    pub fn current() -> ParPool {
        let mut t = GLOBAL_THREADS.load(Ordering::Relaxed);
        if t == 0 {
            t = env_threads();
            // Racing initialisers all compute the same value.
            GLOBAL_THREADS.store(t, Ordering::Relaxed);
        }
        ParPool { threads: t }
    }

    /// Override the global pool size (e.g. from a benchmark driver).
    pub fn set_global_threads(threads: usize) {
        GLOBAL_THREADS.store(threads.clamp(1, MAX_THREADS), Ordering::Relaxed);
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Default chunk count for kernels whose results are
    /// partition-invariant: one chunk per worker.
    pub fn chunks(&self) -> usize {
        self.threads
    }

    /// This pool with its worker count capped so each worker gets at
    /// least [`MIN_WORK_PER_WORKER`] of the given work units, and never
    /// more workers than the machine has hardware threads
    /// ([`hardware_threads`]). Tiny problems (like the smoke-suite
    /// kernels) therefore degrade to the serial fast path instead of
    /// paying spawn latency for a guaranteed loss.
    pub fn limited(&self, work_units: usize) -> ParPool {
        let cap = (work_units / MIN_WORK_PER_WORKER).max(1);
        ParPool {
            threads: self.threads.min(cap).min(hardware_threads()),
        }
    }

    /// Evaluate `f(chunk_index)` for `chunks` chunks, returning the
    /// results in chunk order regardless of the thread count.
    pub fn map<T, F>(&self, chunks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let chunks = chunks.max(1);
        let workers = self.threads.min(chunks);
        if workers <= 1 {
            return (0..chunks)
                .map(|c| telemetry::timed_chunk(c, 0, 1, || f(c)))
                .collect();
        }
        let mut out: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let mut c = w;
                        while c < chunks {
                            mine.push((c, telemetry::timed_chunk(c, w, 1, || f(c))));
                            c += workers;
                        }
                        mine
                    })
                })
                .collect();
            // Worker 0 runs on the calling thread.
            let mut c = 0;
            while c < chunks {
                out[c] = Some(telemetry::timed_chunk(c, 0, 1, || f(c)));
                c += workers;
            }
            for h in handles {
                for (c, v) in h.join().expect("cpx-par worker panicked") {
                    out[c] = Some(v);
                }
            }
        });
        out.into_iter()
            .map(|v| v.expect("chunk computed"))
            .collect()
    }

    /// Partition `data` into `chunks` contiguous ranges and call
    /// `f(chunk_index, range, sub_slice)` for each — sub-slices are
    /// disjoint, so chunks may run concurrently; with one worker they
    /// run in chunk order on the calling thread.
    pub fn chunks_mut<T, F>(&self, data: &mut [T], chunks: usize, f: F)
    where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        let chunks = chunks.max(1);
        if self.threads.min(chunks) <= 1 {
            // Serial fast path: the same ceil-division layout as
            // [`chunk_ranges`], computed on the fly so steady-state
            // serial kernels never touch the allocator.
            let n = data.len();
            let per = n.div_ceil(chunks);
            let mut rest = data;
            for i in 0..chunks {
                let r = (i * per).min(n)..((i + 1) * per).min(n);
                let (head, tail) = rest.split_at_mut(r.len());
                telemetry::timed_chunk(i, 0, r.len(), || f(i, r.clone(), head));
                rest = tail;
            }
            return;
        }
        self.ranges_mut(data, &chunk_ranges(data.len(), chunks), f)
    }

    /// [`ParPool::chunks_mut`] with caller-supplied partition ranges:
    /// `ranges` must tile `data` contiguously from 0 to `data.len()`.
    /// Used by kernels whose natural work unit is not a uniform block —
    /// e.g. the SELL-C-σ SpMV, whose parallel boundaries must align
    /// with σ sorting windows so each task owns whole output rows.
    pub fn ranges_mut<T, F>(&self, data: &mut [T], ranges: &[Range<usize>], f: F)
    where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "ranges_mut: ranges must tile contiguously");
            assert!(r.end >= r.start, "ranges_mut: range end before start");
            next = r.end;
        }
        assert_eq!(next, data.len(), "ranges_mut: ranges must cover data");
        let workers = self.threads.min(ranges.len()).max(1);
        if workers <= 1 {
            let mut rest = data;
            for (i, r) in ranges.iter().enumerate() {
                let (head, tail) = rest.split_at_mut(r.len());
                telemetry::timed_chunk(i, 0, r.len(), || f(i, r.clone(), head));
                rest = tail;
            }
            return;
        }
        // Static stride assignment: worker w owns chunks w, w+W, …
        let mut per_worker: Vec<Vec<ChunkTask<T>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut rest = data;
        for (i, r) in ranges.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(r.len());
            per_worker[i % workers].push((i, r.clone(), head));
            rest = tail;
        }
        std::thread::scope(|s| {
            let f = &f;
            let mut lists = per_worker.into_iter();
            let mine = lists.next().expect("worker 0 exists");
            let handles: Vec<_> = lists
                .enumerate()
                .map(|(k, list)| {
                    s.spawn(move || {
                        for (i, r, slice) in list {
                            let items = r.len();
                            telemetry::timed_chunk(i, k + 1, items, || f(i, r, slice));
                        }
                    })
                })
                .collect();
            for (i, r, slice) in mine {
                let items = r.len();
                telemetry::timed_chunk(i, 0, items, || f(i, r, slice));
            }
            for h in handles {
                h.join().expect("cpx-par worker panicked");
            }
        });
    }

    /// [`ParPool::chunks_mut`] over two equal-length slices partitioned
    /// by the same ranges (for structure-of-arrays data like the spray's
    /// position/velocity pair).
    pub fn zip_chunks_mut<A, B, F>(&self, a: &mut [A], b: &mut [B], chunks: usize, f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, Range<usize>, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zip_chunks_mut: length mismatch");
        let ranges = chunk_ranges(a.len(), chunks);
        let workers = self.threads.min(ranges.len()).max(1);
        if workers <= 1 {
            let (mut rest_a, mut rest_b) = (a, b);
            for (i, r) in ranges.iter().enumerate() {
                let (ha, ta) = rest_a.split_at_mut(r.len());
                let (hb, tb) = rest_b.split_at_mut(r.len());
                telemetry::timed_chunk(i, 0, r.len(), || f(i, r.clone(), ha, hb));
                rest_a = ta;
                rest_b = tb;
            }
            return;
        }
        let mut per_worker: Vec<Vec<ZipChunkTask<A, B>>> =
            (0..workers).map(|_| Vec::new()).collect();
        let (mut rest_a, mut rest_b) = (a, b);
        for (i, r) in ranges.iter().enumerate() {
            let (ha, ta) = rest_a.split_at_mut(r.len());
            let (hb, tb) = rest_b.split_at_mut(r.len());
            per_worker[i % workers].push((i, r.clone(), ha, hb));
            rest_a = ta;
            rest_b = tb;
        }
        std::thread::scope(|s| {
            let f = &f;
            let mut lists = per_worker.into_iter();
            let mine = lists.next().expect("worker 0 exists");
            let handles: Vec<_> = lists
                .enumerate()
                .map(|(k, list)| {
                    s.spawn(move || {
                        for (i, r, sa, sb) in list {
                            let items = r.len();
                            telemetry::timed_chunk(i, k + 1, items, || f(i, r, sa, sb));
                        }
                    })
                })
                .collect();
            for (i, r, sa, sb) in mine {
                let items = r.len();
                telemetry::timed_chunk(i, 0, items, || f(i, r, sa, sb));
            }
            for h in handles {
                h.join().expect("cpx-par worker panicked");
            }
        });
    }
}

/// Partition `n` items into `chunks` contiguous ranges — the same
/// ceil-division block layout every kernel in the workspace already
/// used serially (`per = ceil(n / chunks)`; trailing chunks may be
/// empty). A chunk count of 0 is clamped to 1.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    let per = n.div_ceil(chunks);
    (0..chunks)
        .map(|c| (c * per).min(n)..((c + 1) * per).min(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_contiguously() {
        for (n, chunks) in [(10, 3), (0, 4), (7, 1), (5, 9), (100, 0)] {
            let ranges = chunk_ranges(n, chunks);
            assert_eq!(ranges.len(), chunks.max(1));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next.min(n));
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(ranges.last().unwrap().end, n);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n, "n={n} chunks={chunks}");
        }
    }

    #[test]
    fn chunk_ranges_match_legacy_layout() {
        // The serial kernels used per = ceil(n/chunks), lo = i*per.
        let n = 53usize;
        let chunks = 7;
        let per = n.div_ceil(chunks);
        for (i, r) in chunk_ranges(n, chunks).iter().enumerate() {
            assert_eq!(r.start, (i * per).min(n));
            assert_eq!(r.end, ((i + 1) * per).min(n));
        }
    }

    #[test]
    fn map_returns_chunk_order_at_any_thread_count() {
        let baseline: Vec<usize> = (0..23).map(|c| c * c).collect();
        for threads in [1, 2, 4, 8, 23, 64] {
            let pool = ParPool::with_threads(threads);
            assert_eq!(pool.map(23, |c| c * c), baseline, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_bit_identical_across_thread_counts() {
        let n = 1000;
        let reference: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.0).collect();
        for threads in [1, 2, 4, 8] {
            for chunks in [1, 3, 8, n + 5] {
                let mut data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
                ParPool::with_threads(threads).chunks_mut(&mut data, chunks, |_, _, s| {
                    for v in s {
                        *v *= 3.0;
                    }
                });
                assert_eq!(data, reference, "threads={threads} chunks={chunks}");
            }
        }
    }

    #[test]
    fn chunks_mut_passes_matching_range_and_slice() {
        let mut data: Vec<usize> = vec![0; 37];
        ParPool::with_threads(4).chunks_mut(&mut data, 5, |i, r, s| {
            assert_eq!(r.len(), s.len());
            for (v, idx) in s.iter_mut().zip(r) {
                *v = idx * 10 + i;
            }
        });
        let per = 37usize.div_ceil(5);
        for (idx, &v) in data.iter().enumerate() {
            assert_eq!(v, idx * 10 + idx / per);
        }
    }

    #[test]
    fn zip_chunks_mut_updates_both_slices() {
        let n = 500;
        for threads in [1, 4] {
            let mut a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut b: Vec<f64> = vec![1.0; n];
            ParPool::with_threads(threads).zip_chunks_mut(&mut a, &mut b, 6, |_, _, sa, sb| {
                for (x, y) in sa.iter_mut().zip(sb.iter_mut()) {
                    *y += *x;
                    *x *= 2.0;
                }
            });
            for i in 0..n {
                assert_eq!(a[i], 2.0 * i as f64);
                assert_eq!(b[i], 1.0 + i as f64);
            }
        }
    }

    #[test]
    fn limited_caps_workers_by_granularity() {
        let hw = hardware_threads();
        let pool = ParPool::with_threads(8);
        assert_eq!(pool.limited(100).threads(), 1);
        assert_eq!(pool.limited(MIN_WORK_PER_WORKER - 1).threads(), 1);
        assert_eq!(pool.limited(MIN_WORK_PER_WORKER * 3).threads(), 3.min(hw));
        assert_eq!(pool.limited(MIN_WORK_PER_WORKER * 100).threads(), 8.min(hw));
    }

    #[test]
    fn ranges_mut_matches_chunks_mut_on_uniform_ranges() {
        let n = 513;
        let mut via_chunks: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut via_ranges = via_chunks.clone();
        let scale = |_: usize, r: Range<usize>, s: &mut [f64]| {
            for (v, idx) in s.iter_mut().zip(r) {
                *v = *v * 2.0 + idx as f64;
            }
        };
        for threads in [1, 4] {
            let pool = ParPool::with_threads(threads);
            pool.chunks_mut(&mut via_chunks, 7, scale);
            pool.ranges_mut(&mut via_ranges, &chunk_ranges(n, 7), scale);
            assert_eq!(via_chunks, via_ranges, "threads={threads}");
        }
    }

    #[test]
    fn ranges_mut_accepts_nonuniform_tiling() {
        let mut data = vec![0usize; 10];
        let ranges = vec![0..3, 3..3, 3..9, 9..10];
        ParPool::with_threads(4).ranges_mut(&mut data, &ranges, |i, r, s| {
            assert_eq!(r.len(), s.len());
            for v in s {
                *v = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 3, 3, 3, 3, 3, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "ranges_mut: ranges must cover data")]
    #[allow(clippy::single_range_in_vec_init)]
    fn ranges_mut_rejects_short_tiling() {
        let mut data = vec![0usize; 10];
        ParPool::serial().ranges_mut(&mut data, &[0..4], |_, _, _| {});
    }

    #[test]
    fn empty_data_is_fine() {
        let mut data: Vec<f64> = Vec::new();
        ParPool::with_threads(4).chunks_mut(&mut data, 4, |_, _, _| {});
        let out = ParPool::with_threads(4).map(3, |c| c);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn global_pool_has_at_least_one_thread() {
        assert!(ParPool::current().threads() >= 1);
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(ParPool::with_threads(0).threads(), 1);
        assert_eq!(ParPool::with_threads(100_000).threads(), MAX_THREADS);
    }

    #[test]
    fn telemetry_observes_chunks_without_changing_results() {
        // 7 chunks of exactly 1111 items: a length no other test in this
        // binary uses, so concurrently running tests (whose chunks also
        // land in the open window) can be filtered out.
        let n = 7777;
        let chunks = 7;
        let reference: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 2.0).collect();
        let mut data: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let (_, t) = with_telemetry(|| {
            ParPool::with_threads(4).chunks_mut(&mut data, chunks, |_, _, s| {
                for v in s {
                    *v *= 2.0;
                }
            });
        });
        assert_eq!(data, reference, "telemetry must not perturb results");
        let mine: Vec<_> = t.chunks.iter().filter(|c| c.items == 1111).collect();
        assert_eq!(mine.len(), chunks);
        let mut seen: Vec<usize> = mine.iter().map(|c| c.chunk).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..chunks).collect::<Vec<_>>());
        for c in &mine {
            assert!(c.worker < 4);
            assert!(c.end >= c.start && c.start >= 0.0);
        }
        assert!(t.wall > 0.0);
        assert!(t.workers >= 1);
        assert!(t.utilization() > 0.0 && t.utilization() <= 1.0);
        assert!(t.imbalance() >= 1.0 - 1e-12);

        // A pool call outside any window is not recorded: run one with a
        // distinctive chunk size (613), then check the next window never
        // saw it. Same test function as above so the process-global
        // collector is never contended by two test threads at once.
        let mut outside = vec![0.0f64; 613];
        ParPool::with_threads(2).chunks_mut(&mut outside, 1, |_, _, s| {
            for v in s {
                *v += 1.0;
            }
        });
        let ((), empty) = with_telemetry(|| {});
        assert!(empty.chunks.iter().all(|c| c.items != 613));
        assert_eq!(empty.workers, 0);
    }
}
