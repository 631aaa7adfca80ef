//! Deterministic fork–join parallelism for the workspace.
//!
//! This is the single execution-model seam every layer above threads
//! through: GEMM row partitioning, batched convolution lowering and
//! device-parallel federated training all dispatch here. The design is
//! deliberately minimal — scoped `std::thread` chunking with **no work
//! stealing** — because static partitioning is what makes the determinism
//! guarantee cheap to state:
//!
//! * work is split into *contiguous index ranges*, one per worker;
//! * every item (output row, sample, device) is computed by exactly the
//!   same sequence of floating-point operations regardless of which worker
//!   runs it;
//! * results are merged back in index order.
//!
//! Consequently every public helper in this module is bit-deterministic
//! with respect to the thread count: `threads = 1` and `threads = 64`
//! produce identical bytes. The test suite enforces this end to end (see
//! `tests/determinism.rs` at the workspace root).
//!
//! ## Thread-count resolution
//!
//! [`max_threads`] resolves, in order: a programmatic override set via
//! [`set_threads`], the `FEDZKT_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`], asked once per process: on Linux
//! it reads cgroup files, and the resolution runs before every parallel
//! kernel. Nested parallel regions run
//! serially (a worker that reaches another `par` call just executes it
//! inline), so device-level parallelism does not multiply with kernel-level
//! parallelism.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on worker threads spawned by this module: nested parallel
    /// regions detect it and degrade to serial execution.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Override the workspace-wide thread count (0 clears the override and
/// returns resolution to `FEDZKT_THREADS` / available parallelism).
///
/// Intended for benchmarks and tests that compare thread counts within one
/// process; long-running programs should prefer the environment variable.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The number of worker threads parallel regions may use.
///
/// Resolution order: [`set_threads`] override, then the `FEDZKT_THREADS`
/// environment variable (a positive integer), then
/// [`std::thread::available_parallelism`]. Never returns 0.
pub fn max_threads() -> usize {
    resolve_max_threads(
        THREAD_OVERRIDE.load(Ordering::Relaxed),
        || std::env::var("FEDZKT_THREADS").ok(),
        host_threads,
    )
}

/// [`max_threads`]' resolution over its three sources, each consulted only
/// when the ones before it are unset.
fn resolve_max_threads(
    overridden: usize,
    env: impl FnOnce() -> Option<String>,
    host: impl FnOnce() -> usize,
) -> usize {
    if overridden > 0 {
        return overridden;
    }
    match env().and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => host(),
    }
}

/// The host's available parallelism, resolved on first use.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolve a configured thread count: 0 means "workspace default"
/// ([`max_threads`]), any other value is used as-is. This is the single
/// definition of the resolution rule shared by every orchestrator config.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        max_threads()
    } else {
        configured
    }
}

/// Minimum number of output elements a memory-bound parallel region (im2col
/// lowering, col2im scatter) should cover before forking; below this the
/// scoped-thread spawn cost outweighs the copy work. Compute-bound GEMM uses
/// its own multiply–accumulate threshold (`ops::gemm::PAR_MIN_MACS`).
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// True when called from inside a worker spawned by this module.
pub fn in_parallel() -> bool {
    IN_PARALLEL.with(Cell::get)
}

fn mark_worker() {
    IN_PARALLEL.with(|f| f.set(true));
}

/// Split `data` into up to `threads` contiguous chunks of whole `unit`-sized
/// records and run `f(first_record_index, chunk)` on each chunk, possibly
/// concurrently.
///
/// `data.len()` must be a multiple of `unit`. Chunk boundaries depend on
/// `threads`, but since `f` receives the absolute index of its first record
/// and records are disjoint, any `f` that computes each record independently
/// is bit-deterministic with respect to the thread count.
///
/// Runs inline (single-threaded) when `threads <= 1`, when there are fewer
/// than two records, or when already inside a parallel region.
///
/// # Panics
/// Panics when `unit` is 0 while `data` is non-empty, when `data.len()` is
/// not a multiple of `unit`, or when a worker panics.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], unit: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(unit > 0, "record size must be positive");
    assert!(data.len().is_multiple_of(unit), "data must hold whole records");
    let records = data.len() / unit;
    let workers = threads.min(records).max(1);
    if workers <= 1 || in_parallel() {
        f(0, data);
        return;
    }
    let per_worker = records.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, chunk) in data.chunks_mut(per_worker * unit).enumerate() {
            let f = &f;
            scope.spawn(move || {
                mark_worker();
                f(w * per_worker, chunk);
            });
        }
    });
}

/// Map `f` over `0..n`, returning results in index order.
///
/// Indices are split into up to `threads` contiguous ranges, each evaluated
/// on its own scoped thread; per-range result vectors are concatenated in
/// range order, so the output is identical to `(0..n).map(f).collect()` for
/// every thread count (provided `f(i)` itself is a pure function of `i`).
///
/// Runs inline when `threads <= 1`, `n < 2`, or when already inside a
/// parallel region.
///
/// # Panics
/// Panics when a worker panics.
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(n).max(1);
    if workers <= 1 || in_parallel() {
        return (0..n).map(f).collect();
    }
    let per_worker = n.div_ceil(workers);
    // Rounding up per_worker can leave trailing workers with empty ranges;
    // don't spawn those.
    let workers = n.div_ceil(per_worker);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let lo = w * per_worker;
                let hi = ((w + 1) * per_worker).min(n);
                scope.spawn(move || {
                    mark_worker();
                    (lo..hi).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Serialises unit tests that mutate the process-global [`set_threads`]
/// override, so they cannot race each other when libtest runs the crate's
/// tests concurrently. Lock it in any test that calls `set_threads`.
#[cfg(test)]
pub(crate) static TEST_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive_and_overridable() {
        let _guard =
            TEST_OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(max_threads() >= 1);
        set_threads(3);
        assert_eq!(max_threads(), 3);
        set_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn thread_count_resolves_override_then_env_then_host() {
        let env = |s: &'static str| move || Some(s.to_string());
        let unset = || None;
        let no_host = || -> usize { panic!("the host is asked only when nothing is set") };
        assert_eq!(resolve_max_threads(3, || panic!("an override skips the env"), no_host), 3);
        assert_eq!(resolve_max_threads(0, env(" 5 "), no_host), 5);
        for bad in ["0", "", "two", "-1"] {
            assert_eq!(resolve_max_threads(0, env(bad), || 7), 7, "FEDZKT_THREADS={bad:?}");
        }
        assert_eq!(resolve_max_threads(0, unset, || 7), 7);
        // The host value is resolved once and is what the standard library
        // reports.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((host_threads(), host_threads()), (host, host));
    }

    #[test]
    fn chunks_cover_all_records_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let mut data = vec![0u32; 7 * 4];
            for_each_chunk_mut(&mut data, 4, threads, |first, chunk| {
                for (r, rec) in chunk.chunks_mut(4).enumerate() {
                    for v in rec.iter_mut() {
                        *v += (first + r) as u32 + 1;
                    }
                }
            });
            let expected: Vec<u32> =
                (0..7).flat_map(|r| std::iter::repeat_n(r + 1, 4)).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunks_handle_empty_and_single_record() {
        let mut empty: Vec<f32> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, 4, |_, _| panic!("no records to visit"));
        let mut one = vec![0.0f32; 5];
        for_each_chunk_mut(&mut one, 5, 4, |first, chunk| {
            assert_eq!(first, 0);
            chunk[0] = 1.0;
        });
        assert_eq!(one[0], 1.0);
    }

    #[test]
    fn map_preserves_index_order_for_all_thread_counts() {
        let serial: Vec<usize> = (0..23).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 23, 64] {
            assert_eq!(map_indexed(23, threads, |i| i * i), serial, "threads={threads}");
        }
        assert!(map_indexed(0, 4, |i: usize| i).is_empty());
    }

    #[test]
    fn nested_regions_run_serially() {
        let out = map_indexed(4, 4, |i| {
            assert!(in_parallel());
            // The nested call must not spawn (and must still be correct).
            map_indexed(3, 4, move |j| i * 10 + j)
        });
        assert_eq!(out[1], vec![10, 11, 12]);
        assert!(!in_parallel());
    }

    #[test]
    #[should_panic(expected = "whole records")]
    fn rejects_partial_records() {
        let mut data = vec![0u8; 5];
        for_each_chunk_mut(&mut data, 2, 2, |_, _| {});
    }
}
