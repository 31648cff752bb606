//! Deterministic fan-out of independent simulation runs.
//!
//! Every simulation run is fully determined by its `(config, seed)` pair, so
//! an experiment sweep is embarrassingly parallel: [`map_indexed`] fans the
//! work items across `std::thread::scope` workers and collects results **by
//! input index**, so the assembled output — and therefore every experiment
//! table — is byte-identical to the sequential path regardless of worker
//! count or scheduling. `--jobs 1` (or `MOBIDIST_JOBS=1`) falls back to a
//! plain in-thread loop.
//!
//! No external crates: work distribution is a mutex-guarded deque drained in
//! small adaptive chunks (up to 4 items per lock acquisition while the queue
//! is long, one-at-a-time near the tail for load balance). The calling
//! thread is one of the workers, so `jobs` workers cost `jobs − 1` spawns;
//! each worker keeps its `(index, result)` pairs in a local vector, and the
//! vectors are merged by index when the workers join.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Worker count to use: `MOBIDIST_JOBS` when set (clamped to ≥ 1),
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("MOBIDIST_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// True when spreading work over `jobs` threads would oversubscribe the
/// machine: more than one worker contending for a single hardware thread.
///
/// On a 1-CPU box the fan-out buys no concurrency and the queue/channel
/// overhead plus context switches make "parallel" runs *slower* than the
/// sequential loop (the sub-1× speedups `perfreport` used to record).
/// [`map_indexed_with`] consults this to fall back to the sequential path —
/// which is byte-identical by the ordering guarantee — and `perfreport`
/// uses it to mark sweep rows instead of reporting misleading slowdowns.
pub fn oversubscribed(jobs: usize) -> bool {
    jobs > 1 && std::thread::available_parallelism().map_or(1, |n| n.get()) == 1
}

/// Applies `f` to every `(index, item)` pair on up to `jobs` scoped worker
/// threads and returns the results **in input order**.
///
/// Ordering guarantee: the output vector at position `i` holds
/// `f(i, items[i])` exactly as the sequential loop would produce it; thread
/// scheduling can never reorder, duplicate or drop a slot. A panicking item
/// propagates its own panic to the caller once every worker has stopped,
/// whether the calling thread or a spawned one ran it.
///
/// # Examples
///
/// ```
/// use mobidist_bench::parallel::map_indexed;
/// let doubled = map_indexed(vec![1, 2, 3], 4, |_, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn map_indexed<I, T>(items: Vec<I>, jobs: usize, f: impl Fn(usize, I) -> T + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    map_indexed_with(items, jobs, || (), |(), i, x| f(i, x))
}

/// [`map_indexed`] with per-worker scratch state.
///
/// Each worker (the calling thread among them, and the sequential fallback)
/// builds one `W` with `make_state` and threads it through every item it
/// processes, so `make_state` runs `min(jobs, items.len())` times. Sweeps
/// pass a [`SimPool`](mobidist_net::prelude::SimPool) here so consecutive
/// points on the same worker recycle one simulation's allocations instead
/// of rebuilding them.
///
/// The ordering guarantee of [`map_indexed`] is unchanged, and `W` must not
/// influence results (a pool doesn't: a reset simulation replays
/// byte-identically) — which worker processes which item is scheduling-
/// dependent.
///
/// # Examples
///
/// ```
/// use mobidist_bench::parallel::map_indexed_with;
/// // Per-worker scratch buffer, reused across items on the same worker.
/// let out = map_indexed_with(
///     vec![3u64, 1, 2],
///     2,
///     Vec::new,
///     |buf: &mut Vec<u64>, i, x| {
///         buf.clear();
///         buf.extend(0..x);
///         buf.len() as u64 + i as u64
///     },
/// );
/// assert_eq!(out, vec![3, 2, 4]);
/// ```
pub fn map_indexed_with<I, T, W>(
    items: Vec<I>,
    jobs: usize,
    make_state: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize, I) -> T + Sync,
) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    let mut jobs = jobs.clamp(1, n.max(1));
    if oversubscribed(jobs) {
        // Spawning threads a 1-CPU machine must time-slice only adds
        // overhead; the sequential path produces the same bytes.
        jobs = 1;
    }
    if n == 0 {
        return Vec::new();
    }
    if jobs == 1 {
        // Sequential fallback: the reference path parallel runs must match.
        let mut w = make_state();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(&mut w, i, x))
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let worker = || {
        let mut w = make_state();
        let mut done = Vec::new();
        // Pop work in small adaptive chunks: one lock acquisition per chunk
        // instead of per item cuts queue overhead on fast items, while the
        // `q.len() / (jobs * 2)` bound keeps the tail balanced — near the
        // end of the queue workers fall back to one-at-a-time. Results carry
        // their input index, so the ordering guarantee is untouched.
        let mut batch = Vec::with_capacity(4);
        loop {
            {
                let mut q = queue.lock().expect("work queue poisoned");
                if q.is_empty() {
                    return done;
                }
                let take = (q.len() / (jobs * 2)).clamp(1, 4);
                batch.extend(q.drain(..take));
            }
            for (i, x) in batch.drain(..) {
                done.push((i, f(&mut w, i, x)));
            }
        }
    };
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut place = |done: Vec<(usize, T)>| {
        for (i, r) in done {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..jobs).map(|_| s.spawn(worker)).collect();
        // A panic here unwinds through the scope, which joins the spawned
        // workers first; theirs are joined by hand and re-raised as is.
        place(worker());
        for h in spawned {
            match h.join() {
                Ok(done) => place(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        // Make later items finish first: result order must still be stable.
        let items: Vec<u64> = (0..32).collect();
        let out = map_indexed(items, 8, |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (32 - x)));
            x * 10
        });
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |i: usize, x: u64| (i as u64) * 1000 + x * x;
        let items: Vec<u64> = (0..50).collect();
        let seq = map_indexed(items.clone(), 1, work);
        let par = map_indexed(items, 7, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_indexed((0..100usize).collect(), 4, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = map_indexed(Vec::new(), 8, |_, x: u8| x);
        assert!(empty.is_empty());
        assert_eq!(map_indexed(vec![9], 8, |_, x| x + 1), vec![10]);
        // More workers than items.
        let out = map_indexed(vec![5u8, 6, 7], 16, |i, x| (i, x));
        assert_eq!(out, vec![(0, 5), (1, 6), (2, 7)]);
    }

    #[test]
    fn per_worker_state_is_isolated_and_reused() {
        // Each worker's counter only ever increments within that worker, so
        // every produced value equals the number of items that worker has
        // processed so far — and the sum over all items of "first time this
        // counter value was seen per worker" is consistent. The observable
        // contract: outputs are deterministic per (worker history), and
        // sequential (jobs=1) reuses a single state across all items.
        let seq = map_indexed_with(
            (0..10u64).collect(),
            1,
            || 0u64,
            |c, _, _| {
                *c += 1;
                *c
            },
        );
        assert_eq!(seq, (1..=10).collect::<Vec<_>>());
        let par = map_indexed_with(
            (0..100u64).collect(),
            4,
            || 0u64,
            |c, _, _| {
                *c += 1;
                *c
            },
        );
        // Across workers, each state starts at zero and increments by one
        // per item: the multiset of outputs partitions 100 items into at
        // most 4 runs of 1..=k.
        assert_eq!(par.len(), 100);
        assert!(par.iter().all(|&v| (1..=100).contains(&v)));
    }

    /// Workers a call with `jobs` workers over `n` items runs.
    fn workers(jobs: usize, n: usize) -> usize {
        if oversubscribed(jobs.min(n)) {
            1
        } else {
            jobs.min(n)
        }
    }

    #[test]
    fn make_state_runs_once_per_worker() {
        for (jobs, n) in [(1, 5), (2, 5), (4, 3), (3, 64), (8, 1), (4, 0)] {
            let states = AtomicUsize::new(0);
            let out = map_indexed_with(
                (0..n as u64).collect(),
                jobs,
                || states.fetch_add(1, Ordering::Relaxed),
                |_, _, x| x,
            );
            assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
            assert_eq!(
                states.load(Ordering::Relaxed),
                workers(jobs, n),
                "jobs {jobs}, n {n}"
            );
        }
    }

    /// Runs a 2-worker map whose items panic on the calling thread (or on
    /// the spawned one) and returns the propagated payload and the number
    /// of items that panicked.
    fn panic_on_caller(on_caller: bool) -> (String, usize) {
        let caller = std::thread::current().id();
        let panicked = AtomicUsize::new(0);
        let spawned_ran = AtomicBool::new(false);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_indexed((0..64u64).collect(), 2, |_, x| {
                let here = std::thread::current().id() == caller;
                if !here {
                    spawned_ran.store(true, Ordering::SeqCst);
                }
                if here == on_caller {
                    panicked.fetch_add(1, Ordering::Relaxed);
                    panic!("item {x} failed");
                }
                // The caller waits until the spawned worker has taken an
                // item, so both workers run one.
                while here && !spawned_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                x
            })
        }));
        let payload = r.expect_err("the item's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the item's own payload, not a wrapper");
        (msg, panicked.load(Ordering::Relaxed))
    }

    #[test]
    fn a_panicking_item_propagates_once_from_any_worker() {
        let (msg, n) = panic_on_caller(true);
        assert!(
            msg.starts_with("item ") && msg.ends_with(" failed"),
            "{msg}"
        );
        assert_eq!(n, 1);
        if !oversubscribed(2) {
            let (msg, n) = panic_on_caller(false);
            assert!(
                msg.starts_with("item ") && msg.ends_with(" failed"),
                "{msg}"
            );
            assert_eq!(n, 1);
        }
    }

    #[test]
    fn default_jobs_respects_env_floor() {
        // Whatever the environment, the contract is jobs >= 1.
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn oversubscription_is_about_extra_threads() {
        // One worker can never oversubscribe, whatever the machine; more
        // than one only oversubscribes a single-CPU box, so the two sides
        // of the predicate must agree with the machine's parallelism.
        assert!(!oversubscribed(0));
        assert!(!oversubscribed(1));
        let single_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) == 1;
        assert_eq!(oversubscribed(2), single_cpu);
        assert_eq!(oversubscribed(64), single_cpu);
    }
}
