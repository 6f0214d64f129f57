//! First-party persistent worker pool for the module-sharded engine.
//!
//! One pool lives for the lifetime of an [`crate::Engine`] built with
//! `threads > 1` and executes two broadcasts per simulated cycle (vacate,
//! grant). Spawning OS threads per cycle would dwarf the work, so the
//! pool's threads are persistent and a broadcast is a single epoch bump:
//! workers spin briefly on an atomic epoch mirror (cycles arrive
//! back-to-back in a hot run) and only then park on a condvar. The pool
//! never reads a clock — spin bounds are iteration counts, keeping the
//! crate's determinism rule (ICN002) intact.
//!
//! The broadcast closure is passed by reference and run by every worker
//! *and* the calling thread (shard index `workers`); `broadcast` does not
//! return until all of them have finished, which is what makes the
//! lifetime erasure in [`Job`] sound. A panicking shard is caught so the
//! epoch protocol still completes, then re-raised on the caller.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock without poisoning: every job panic is caught before the state
/// lock is taken, so a poisoned lock only means a *caught* panic poisoned
/// it mid-protocol — the state is still consistent.
fn lock(state: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many epoch probes a worker makes before parking on the condvar.
/// Purely an iteration count (never a duration): large enough to catch the
/// next cycle's broadcast in a busy run, small enough that an idle engine
/// (e.g. one parked between `step()` calls in a test) costs microseconds.
const SPIN_ITERS: u32 = 4_096;

/// A lifetime-erased pointer to the caller's broadcast closure.
///
/// Soundness: a `Job` is only ever dereferenced by workers between the
/// epoch bump in [`WorkerPool::broadcast`] and that call's completion
/// wait, and `broadcast` borrows the closure for that entire window, so
/// the pointee is alive for every dereference.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and outlives every dereference (see the `Job` soundness note), so
// moving the pointer itself across threads is safe.
unsafe impl Send for Job {}

/// Mutable pool state, guarded by one mutex.
struct PoolState {
    /// Bumped once per broadcast; workers run exactly one job per epoch.
    epoch: u64,
    /// The current epoch's job (cleared when the broadcast completes).
    job: Option<Job>,
    /// Workers still running the current epoch's job.
    remaining: usize,
    /// A shard panicked during the current epoch.
    panicked: bool,
    /// The pool is shutting down; workers exit instead of waiting.
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    /// Epoch mirror for the workers' bounded pre-park spin (a hint only;
    /// the mutex-guarded epoch is authoritative).
    epoch_hint: AtomicU64,
    /// Signals a new epoch (or shutdown) to parked workers.
    work: Condvar,
    /// Signals `remaining == 0` to a waiting `broadcast`.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads driven by
/// [`WorkerPool::broadcast`].
///
/// Public since PR 10: the `icn-explore` batch evaluator fans candidate
/// chunks across the same pool the sharded engine uses, inheriting its
/// determinism discipline (no clocks, panic-safe broadcast).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` persistent threads (the broadcasting
    /// thread participates too, so total shard parallelism is
    /// `workers + 1`).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            epoch_hint: AtomicU64::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("icn-sim-shard-{index}"))
                    .spawn(move || worker_loop(&shared, index))
            })
            .collect::<Result<Vec<_>, _>>()
            // icn-lint: allow(ICN003) -- thread spawn failing at engine construction is unrecoverable resource exhaustion
            .expect("spawning engine shard workers");
        Self {
            shared,
            workers,
            handles,
        }
    }

    /// Number of pool-owned worker threads (excluding the caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f` once on every worker thread (shard indices `0..workers`)
    /// and once on the calling thread (shard index `workers`), returning
    /// only after all of them have finished.
    ///
    /// If any shard panics, the panic is re-raised here after the epoch
    /// completes, so the pool is never left mid-broadcast.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let ptr: *const (dyn Fn(usize) + Sync) = f;
        // SAFETY: same fat-pointer layout; only the (unused) trait-object
        // lifetime bound changes. See the `Job` soundness note.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(ptr)
        });
        {
            let mut state = lock(&self.shared.state);
            state.epoch += 1;
            state.job = Some(job);
            state.remaining = self.workers;
            state.panicked = false;
            self.shared.epoch_hint.store(state.epoch, Ordering::Release);
        }
        self.shared.work.notify_all();
        // The caller is shard `workers`: it works instead of waiting.
        let caller = catch_unwind(AssertUnwindSafe(|| f(self.workers)));
        let panicked = {
            let mut state = lock(&self.shared.state);
            while state.remaining > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            std::mem::take(&mut state.panicked)
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if panicked {
            // The worker's own payload was consumed by its catch; raise a
            // descriptive one so the failure is attributed to the pool.
            resume_unwind(Box::new("engine shard worker panicked"));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        // Kick spinners past the hint check and wake parked workers.
        self.shared.epoch_hint.store(u64::MAX, Ordering::Release);
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Run every job once: inline in order when `pool` is `None`, else
/// claimed dynamically by every shard (pool workers + the caller) through
/// an atomic counter. The engine's jobs are module chunks; the batch
/// runner's (`run_parallel`) are whole simulations. `perm`/`yield_bits`
/// perturb the *dispatch* only — merge order is canonical, so results
/// cannot depend on either.
///
/// This lives here (not in `shard.rs`) because it is synchronization, not
/// shard logic: the claim counter and per-job locks are the hand-off
/// between the barrier protocol and the jobs, and ICN203 pins every
/// cross-thread primitive to this file.
pub(crate) fn run_jobs<J: Send>(
    pool: Option<&WorkerPool>,
    perm: Option<&[u32]>,
    yield_bits: u64,
    mut jobs: Vec<J>,
    run: &(impl Fn(&mut J) + Sync),
) {
    let Some(pool) = pool else {
        for job in &mut jobs {
            run(job);
        }
        return;
    };
    let slots: Vec<parking_lot::Mutex<J>> = jobs.into_iter().map(parking_lot::Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let work = move |_shard: usize| loop {
        let claim = next.fetch_add(1, Ordering::Relaxed);
        if claim >= slots.len() {
            break;
        }
        if yield_bits >> (claim & 63) & 1 == 1 {
            std::thread::yield_now();
        }
        let index = perm.map_or(claim, |p| p[claim] as usize);
        // Uncontended by construction: each index is claimed exactly once.
        run(&mut slots[index].lock());
    };
    pool.broadcast(&work);
}

/// One worker thread: spin-then-park for each epoch, run the job, report
/// completion. Panics inside the job are recorded, never propagated here
/// (the protocol must complete so `broadcast` can return and re-raise).
fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let mut spins = 0u32;
        while shared.epoch_hint.load(Ordering::Acquire) == seen_epoch && spins < SPIN_ITERS {
            std::hint::spin_loop();
            spins += 1;
        }
        let job = {
            let mut state = lock(&shared.state);
            while state.epoch == seen_epoch && !state.shutdown {
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            state.job
        };
        let Some(job) = job else {
            continue;
        };
        // SAFETY: see the `Job` soundness note — `broadcast` keeps the
        // closure alive until `remaining` hits zero below.
        let run = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut state = lock(&shared.state);
        if run.is_err() {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broadcast_runs_on_every_shard_including_caller() {
        let pool = WorkerPool::new(3);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.broadcast(&|shard| {
            hits[shard].fetch_add(1, Ordering::Relaxed);
        });
        for (shard, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "shard {shard}");
        }
    }

    #[test]
    fn repeated_broadcasts_each_run_exactly_once() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(&|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 100 * 3);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        pool.broadcast(&|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives_drop() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|shard| assert!(shard > 100, "forced shard panic"));
        }));
        assert!(caught.is_err(), "shard panic must reach the caller");
        drop(pool); // protocol completed; drop must not hang
    }

    #[test]
    fn run_jobs_parallel_runs_every_job_once() {
        let pool = WorkerPool::new(3);
        let mut counts = vec![0u32; 64];
        {
            let jobs: Vec<&mut u32> = counts.iter_mut().collect();
            run_jobs(Some(&pool), None, 0, jobs, &|job: &mut &mut u32| {
                **job += 1;
            });
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn run_jobs_with_permutation_still_runs_every_job_once() {
        let pool = WorkerPool::new(2);
        let mut p = crate::shard::PerturbState::new(7);
        let yields = p.next_schedule(40);
        let mut counts = [0u32; 40];
        {
            let jobs: Vec<&mut u32> = counts.iter_mut().collect();
            run_jobs(
                Some(&pool),
                Some(&p.perm),
                yields,
                jobs,
                &|job: &mut &mut u32| {
                    **job += 1;
                },
            );
        }
        assert!(counts.iter().all(|&c| c == 1));
    }
}
