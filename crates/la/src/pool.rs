//! Persistent pinned worker pool: the execution engine behind
//! `mpgmres-backend`'s `ParallelBackend`.
//!
//! The scoped-spawn kernels in [`crate::par`] pay a thread spawn + join
//! per kernel call, which is fine for large kernels and wasteful for the
//! mid-size ones a GMRES iteration is made of. [`WorkerPool`] keeps a
//! fixed set of workers alive for the lifetime of the backend and hands
//! them *indexed jobs*: job `i` of a call always runs on participant
//! `i % threads`, so the cached row partitions of a matrix kernel (see
//! `ParallelBackend`'s partition cache) are pinned to the same thread on
//! every call. Pinning is a locality policy only — job assignment can
//! never affect results, because every job writes outputs that are
//! disjoint from every other job's (the same independent-output rule as
//! [`crate::par`]).
//!
//! Determinism: the pool runs exactly the closures it is given; it adds
//! no reductions, no reordering of any dependent computation, and no
//! shared mutable state. A kernel executed through the pool is therefore
//! bit-identical to the same kernel executed through scoped spawns (or
//! sequentially) by construction.
//!
//! # How a run works
//!
//! - **The caller joins the work.** A pool of width `t` spawns `t - 1`
//!   workers; the thread that calls [`WorkerPool::run`] is participant
//!   0 and runs jobs `0, t, 2t, ..` itself, worker `w` runs the jobs
//!   `i` with `i % t == w + 1`. So `MPGMRES_THREADS=2` means the caller
//!   plus one worker.
//! - **One job slot.** A run writes its closure into the pool's single
//!   slot, bumps a generation counter, runs its own share, then waits
//!   for the workers that had jobs. There is no per-call allocation and
//!   no channel.
//! - **Spin, then park.** After each run a worker polls the generation
//!   for a fixed budget ([`SPIN`], 100 µs) and then parks until the next
//!   run unparks it; the caller waits for its workers the same way.
//!   Between clock reads a spinning thread yields, so a pool wider than
//!   the machine does not starve the threads it waits for. No wait
//!   spins without bound, and the budget is a constant, not a knob. New
//!   workers start parked, so creating a pool does not leave a thread
//!   spinning.
//! - **Inline fallback.** A submission takes the slot with a `try_lock`.
//!   A second thread that submits while the pool is busy, and a job that
//!   calls `run` from inside the pool, run their jobs inline on their
//!   own thread instead of waiting. The pool never changes a result, so
//!   inline execution is always correct, and nested runs cannot
//!   deadlock.
//! - **Panics.** In a pooled run a panic in any job (the caller's share
//!   or a worker's) is caught, every other job still runs to completion,
//!   and the first payload is re-raised on the caller after the barrier.
//!   The pool stays usable. An inline run is a plain loop, so a panic
//!   there propagates at once.
//!
//! There is one execution width per pool: a run always spreads over the
//! whole pool. Stream ops run one after another, at their record
//! calls, each op with the full pool.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a worker polls for the next run after finishing one (and a
/// caller polls for its workers) before parking. A GMRES iteration
/// issues its kernels a few microseconds apart, so a worker that spins
/// this long catches the next kernel without a wake-up, and an idle
/// pool stops burning its cores a tenth of a millisecond after the last
/// run.
pub const SPIN: Duration = Duration::from_micros(100);

/// Polls between two reads of the clock (and two yields) while spinning.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Something that can run `njobs` independent indexed jobs and wait for
/// them: either per-call scoped spawns ([`ScopedSpawn`]) or a persistent
/// [`WorkerPool`]. The kernels in [`crate::par`] are generic over this,
/// so the same partitioned loops serve both execution styles.
///
/// # Safety
///
/// Implementations are load-bearing for memory safety: the `_on`
/// kernels hand jobs lifetime-erased views of disjoint buffer chunks
/// ([`crate::raw`]), relying on `run_jobs` to (a) invoke each job index
/// **at most once**, and (b) **not return until every job has
/// finished**. An implementation that runs an index twice (aliasing two
/// live `&mut` views) or returns early (letting a borrow expire under a
/// running job) causes undefined behavior without any `unsafe` at the
/// call site — hence the `unsafe trait`.
pub unsafe trait Executor: Sync {
    /// Number of jobs worth creating for a data-parallel kernel (the
    /// participant count).
    fn width(&self) -> usize;

    /// Run `f(0), f(1), .., f(njobs - 1)` concurrently and return when
    /// all have finished. Jobs must write disjoint outputs.
    fn run_jobs(&self, njobs: usize, f: &(dyn Fn(usize) + Sync));
}

/// The per-call scoped-spawn executor: at most `width` scoped threads,
/// jobs distributed round-robin (job `i` on thread `i % width`, the
/// same pinning rule as the pool) — the execution style the
/// [`crate::par`] kernels used before the pool existed, kept as the
/// baseline the pool is benchmarked against.
#[derive(Clone, Copy, Debug)]
pub struct ScopedSpawn(pub usize);

// SAFETY: scoped threads each iterate a disjoint residue class of job
// indices exactly once, and `thread::scope` joins them all before
// returning.
unsafe impl Executor for ScopedSpawn {
    fn width(&self) -> usize {
        self.0.max(1)
    }

    fn run_jobs(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
        let width = self.width().min(njobs);
        if width <= 1 {
            for i in 0..njobs {
                f(i);
            }
            return;
        }
        std::thread::scope(|scope| {
            for w in 0..width {
                scope.spawn(move || {
                    let mut i = w;
                    while i < njobs {
                        f(i);
                        i += width;
                    }
                });
            }
        });
    }
}

type Payload = Box<dyn Any + Send>;

/// The run in the job slot. `f` is the caller's closure with its
/// lifetime erased: the caller keeps it alive until every participating
/// worker has finished, and empties the slot before returning, so the
/// slot never holds a dangling reference.
#[derive(Clone)]
struct Run {
    generation: usize,
    f: &'static (dyn Fn(usize) + Sync),
    njobs: usize,
    caller: Thread,
}

/// State shared by the pool handle and its workers.
struct Shared {
    /// Participants, the caller included.
    threads: usize,
    /// Bumped once per published run, and once at shutdown.
    generation: AtomicUsize,
    /// The one job slot; `Some` only while a run is in flight.
    slot: Mutex<Option<Run>>,
    /// Held by the thread whose run owns the slot; taken with
    /// `try_lock`, so a busy pool sends other submitters inline.
    submit: Mutex<()>,
    /// Workers with jobs in the current run that have not finished.
    pending: AtomicUsize,
    /// Workers parked, or about to park, waiting for a new generation.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// First panic payload of a worker share in the current run.
    panic: Mutex<Option<Payload>>,
}

/// Lock a mutex, ignoring poison: every lock in this module guards
/// plain data that a panic cannot leave half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poll `done` until it returns true or [`SPIN`] has passed; returns
/// whether it did.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + SPIN;
    loop {
        for _ in 0..POLLS_PER_CLOCK_READ {
            if done() {
                return true;
            }
            std::hint::spin_loop();
        }
        if Instant::now() >= deadline {
            return done();
        }
        // Give the core away if another thread is runnable on it (a
        // pool wider than the machine); returns at once otherwise.
        std::thread::yield_now();
    }
}

/// Run the jobs `first, first + stride, ..` below `njobs`. A panicking
/// job is caught, so the share's other jobs still run and the barrier
/// is always reached; returns the first payload.
fn run_share(
    f: &(dyn Fn(usize) + Sync),
    first: usize,
    stride: usize,
    njobs: usize,
) -> Option<Payload> {
    let mut payload = None;
    let mut i = first;
    while i < njobs {
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            payload.get_or_insert(p);
        }
        i += stride;
    }
    payload
}

impl Shared {
    /// Wait for a generation other than `seen`: spin first when `spin`,
    /// then park. Returns the new generation.
    fn wait_for_run(&self, seen: usize, spin: bool) -> usize {
        let fresh = || self.generation.load(Ordering::Acquire) != seen;
        if spin && spin_until(fresh) {
            return self.generation.load(Ordering::Acquire);
        }
        loop {
            // Announce the park before the last check of the generation;
            // the submitter bumps the generation before it reads
            // `sleepers`, so one of the two always sees the other.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.generation.load(Ordering::SeqCst) == seen {
                std::thread::park();
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            let g = self.generation.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
        }
    }

    /// Worker `p` (participant `p`, `p >= 1`): wait for runs, run this
    /// worker's share of each, report completion.
    fn worker_loop(&self, p: usize) {
        let mut seen = 0usize;
        // New workers start parked: nothing has run yet.
        let mut spin = false;
        loop {
            seen = self.wait_for_run(seen, spin);
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Read the slot under its lock, and copy the run only when
            // this worker has jobs in it: a worker with none never
            // touches the closure.
            let run = {
                let slot = lock(&self.slot);
                match slot.as_ref() {
                    Some(run) => {
                        seen = run.generation;
                        (p < run.njobs).then(|| run.clone())
                    }
                    None => None,
                }
            };
            let Some(Run {
                f, njobs, caller, ..
            }) = run
            else {
                spin = false;
                continue;
            };
            if let Some(payload) = run_share(f, p, self.threads, njobs) {
                lock(&self.panic).get_or_insert(payload);
            }
            // After this decrement the caller may return and drop `f`.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                caller.unpark();
            }
            spin = true;
        }
    }
}

/// A fixed set of persistent worker threads plus the calling thread,
/// with pinned job assignment (job `i` runs on participant
/// `i % threads`, participant 0 being the caller). See the module docs
/// for how a run is dispatched and waited for.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` participants (clamped to >= 1): the calling
    /// thread plus `threads - 1` spawned workers. A width-1 pool spawns
    /// no workers at all — every `run` executes inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            threads,
            generation: AtomicUsize::new(0),
            slot: Mutex::new(None),
            submit: Mutex::new(()),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let handles: Vec<JoinHandle<()>> = (1..threads)
            .map(|p| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpgmres-worker-{p}"))
                    .spawn(move || shared.worker_loop(p))
                    .expect("spawn pool worker")
            })
            .collect();
        let workers = handles.iter().map(|h| h.thread().clone()).collect();
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    /// Participant count: the calling thread plus the workers.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Run `f(0), .., f(njobs - 1)` (job `i` on participant
    /// `i % threads`, participant 0 being the calling thread) and block
    /// until all have finished. Panics in jobs are re-raised here after
    /// every job has finished. Runs inline on the calling thread when
    /// there is one job, one participant, another run in flight, or the
    /// call comes from inside a job of this pool.
    pub fn run<F: Fn(usize) + Sync>(&self, njobs: usize, f: F) {
        let inline = || {
            for i in 0..njobs {
                f(i);
            }
        };
        if njobs <= 1 || self.workers.is_empty() {
            return inline();
        }
        let guard = match self.shared.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return inline(),
        };
        let payload = self.dispatch(njobs, &f);
        drop(guard);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Publish a run, execute the caller's share, wait for the workers
    /// and empty the slot; returns the first panic payload. The caller
    /// holds the submit lock and guarantees `njobs >= 2`.
    fn dispatch(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) -> Option<Payload> {
        let shared = &*self.shared;
        let t = shared.threads;
        // SAFETY: the lifetime is erased only for the trip through the
        // slot. This function does not return before every worker with
        // jobs has finished with `f` (the `pending` barrier below) and
        // the slot is emptied, so no reference outlives the borrow.
        let fstatic: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        // Only a submit-lock holder or `Drop` writes the generation, so
        // a relaxed read sees the latest value. `pending` and the slot
        // are published to the workers by the generation store below
        // (SeqCst, so a release), which they read with acquire.
        let generation = shared.generation.load(Ordering::Relaxed).wrapping_add(1);
        shared.pending.store(njobs.min(t) - 1, Ordering::Relaxed);
        *lock(&shared.slot) = Some(Run {
            generation,
            f: fstatic,
            njobs,
            caller: std::thread::current(),
        });
        shared.generation.store(generation, Ordering::SeqCst);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            for w in &self.workers[..njobs.min(t) - 1] {
                w.unpark();
            }
        }

        let mine = run_share(f, 0, t, njobs);
        let finished = || shared.pending.load(Ordering::Acquire) == 0;
        if !spin_until(finished) {
            while !finished() {
                std::thread::park();
            }
        }
        *lock(&shared.slot) = None;
        let theirs = lock(&shared.panic).take();
        mine.or(theirs)
    }
}

// SAFETY: `run` executes each job index exactly once — inline, or on
// the one participant `i % threads` — and returns only after the
// `pending` barrier has seen every worker share finish.
unsafe impl Executor for WorkerPool {
    fn width(&self) -> usize {
        self.threads()
    }

    fn run_jobs(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
        self.run(njobs, f);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // No run is in flight (`&mut self`): wake every worker into the
        // shutdown check, spinning or parked.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        for w in &self.workers {
            w.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Pool widths under test: the two-participant pool the gated
    /// workloads run on, and a wider one.
    const WIDTHS: [usize; 2] = [2, 4];

    fn hits(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn all_once(hits: &[AtomicUsize]) -> bool {
        hits.iter().all(|h| h.load(Ordering::SeqCst) == 1)
    }

    #[test]
    fn runs_every_job_exactly_once() {
        for t in WIDTHS {
            let pool = WorkerPool::new(t);
            for njobs in [0usize, 1, t - 1, t, 3 * t + 1] {
                let h = hits(njobs);
                pool.run(njobs, |i| {
                    h[i].fetch_add(1, Ordering::SeqCst);
                });
                assert!(all_once(&h), "t={t} njobs={njobs}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = WorkerPool::new(3);
        let mut data = [0usize; 12];
        for round in 1..=5 {
            let chunks: Vec<_> = data.chunks_mut(3).collect();
            let cells: Vec<Mutex<&mut [usize]>> = chunks.into_iter().map(Mutex::new).collect();
            pool.run(cells.len(), |i| {
                for v in cells[i].lock().unwrap().iter_mut() {
                    *v += round;
                }
            });
        }
        assert!(data.iter().all(|&v| v == 15));
    }

    #[test]
    fn jobs_are_pinned_round_robin_with_the_caller_first() {
        // Job i must land on participant i % threads, and participant 0
        // is the calling thread.
        let pool = WorkerPool::new(2);
        let ids: Vec<Mutex<Option<ThreadId>>> = (0..6).map(|_| Mutex::new(None)).collect();
        pool.run(6, |i| {
            *ids[i].lock().unwrap() = Some(std::thread::current().id());
        });
        let get = |i: usize| ids[i].lock().unwrap().expect("job ran");
        for i in 0..6 {
            assert_eq!(get(i), get(i % 2), "job {i} not pinned");
        }
        assert_eq!(get(0), std::thread::current().id(), "caller runs job 0");
        assert_ne!(get(1), get(0), "job 1 runs on the worker");
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        let log = Mutex::new(Vec::new());
        pool.run(5, |i| log.lock().unwrap().push(i));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    /// A panic in `panicking`'s share re-raises on the caller only after
    /// every other job has finished, and the pool keeps working.
    fn panic_is_reraised_after_the_barrier(panicking: usize) {
        let pool = WorkerPool::new(2);
        let h = hits(8);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == panicking {
                    panic!("boom in job {i}");
                }
                h[i].fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = result.expect_err("job panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert_eq!(msg, &format!("boom in job {panicking}"));
        for (i, hi) in h.iter().enumerate() {
            let want = usize::from(i != panicking);
            assert_eq!(hi.load(Ordering::SeqCst), want, "job {i}");
        }
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panic_in_the_callers_share_propagates_after_the_barrier() {
        panic_is_reraised_after_the_barrier(2);
    }

    #[test]
    fn panic_in_a_workers_share_propagates_after_the_barrier() {
        panic_is_reraised_after_the_barrier(3);
    }

    #[test]
    fn nested_run_from_inside_a_job_completes_inline() {
        let pool = WorkerPool::new(2);
        let h = hits(4 * 3);
        pool.run(4, |i| {
            let me = std::thread::current().id();
            pool.run(3, |j| {
                assert_eq!(std::thread::current().id(), me, "nested job ran inline");
                h[3 * i + j].fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(all_once(&h));
    }

    #[test]
    fn concurrent_submitters_both_finish_with_identical_output() {
        // Two threads drive the same kernel through one pool at once
        // (released together by a barrier): whichever finds the pool
        // busy runs inline, and both outputs must match the sequential
        // result bit for bit.
        let pool = WorkerPool::new(2);
        let n = if cfg!(miri) { 64 } else { 4096 };
        let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 * 0.37 - 3.0).collect();
        let want: Vec<f64> = x.iter().map(|v| v.mul_add(1.5, 0.25)).collect();
        let rounds = if cfg!(miri) { 3 } else { 50 };
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..rounds {
                        let mut y = vec![0.25f64; n];
                        crate::par::for_each_chunk_mut_on(&pool, &mut y, |start, chunk| {
                            for (k, yk) in chunk.iter_mut().enumerate() {
                                *yk = x[start + k].mul_add(1.5, *yk);
                            }
                        });
                        assert_eq!(y, want);
                    }
                });
            }
        });
    }

    #[test]
    fn a_submitter_that_finds_the_pool_busy_runs_inline() {
        let pool = WorkerPool::new(2);
        let (busy, done) = (Barrier::new(2), Barrier::new(2));
        let h = hits(3);
        std::thread::scope(|scope| {
            // The first run holds the pool until the second has finished.
            scope.spawn(|| {
                pool.run(2, |i| {
                    if i == 0 {
                        busy.wait();
                        done.wait();
                    }
                })
            });
            busy.wait();
            let me = std::thread::current().id();
            pool.run(3, |i| {
                assert_eq!(std::thread::current().id(), me, "job {i} ran inline");
                h[i].fetch_add(1, Ordering::SeqCst);
            });
            done.wait();
        });
        assert!(all_once(&h));
    }

    #[test]
    fn runs_separated_by_long_sleeps_park_and_wake() {
        // Each sleep outlasts the spin budget, so the worker has parked
        // and every run goes through the wake-up path.
        let pool = WorkerPool::new(2);
        let runs = if cfg!(miri) { 5 } else { 1000 };
        let total = AtomicUsize::new(0);
        for _ in 0..runs {
            std::thread::sleep(SPIN + Duration::from_micros(50));
            pool.run(2, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 2 * runs);
    }

    #[test]
    fn dropping_a_pool_with_parked_workers_joins_them() {
        // Never used: the workers start parked.
        drop(WorkerPool::new(3));
        // Used, then idle past the spin budget: parked again.
        let pool = WorkerPool::new(3);
        pool.run(3, |_| {});
        std::thread::sleep(2 * SPIN);
        drop(pool);
    }

    #[test]
    fn dropping_a_pool_with_spinning_workers_joins_them() {
        let pool = WorkerPool::new(3);
        pool.run(3, |_| {});
        // Dropped right away: the workers are still inside their spin.
        drop(pool);
    }

    #[test]
    fn scoped_spawn_executor_matches() {
        let exec = ScopedSpawn(3);
        assert_eq!(exec.width(), 3);
        let h = hits(7);
        exec.run_jobs(7, &|i| {
            h[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(all_once(&h));
    }
}
