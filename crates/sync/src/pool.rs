//! A persistent worker pool for parallel *matching*.
//!
//! Construction workers (the Chase–Lev deques in [`crate::deque`]) generate
//! their own work and live for exactly one build, so per-build threads are
//! the right shape there. Matching is the opposite: a serving process
//! answers millions of queries, each of which fans out a handful of chunk
//! scans. Spawning OS threads per call buries the paper's break-even
//! argument under `clone(2)` noise — so matching dispatches onto this
//! pool, constructed once and shared for the life of the process.
//!
//! Design notes:
//!
//! * Tasks arrive from *outside* the pool (callers submit, workers never
//!   produce new tasks), so a single shared FIFO injector is the natural
//!   queue shape — work stealing only pays off when workers generate work,
//!   which is the construction engine's profile, not the matcher's.
//! * [`TaskPool::scoped`] gives scoped-thread ergonomics on pooled
//!   threads: tasks may borrow from the caller's stack because `scoped`
//!   does not return until every task of the batch has completed.
//! * Worker panics are **contained**: each task runs under
//!   `catch_unwind`, the payload is collected, and `scoped` returns a
//!   typed [`JobPanic`] instead of aborting the process or poisoning the
//!   pool. Workers survive and keep serving other queries.
//! * While a caller waits for its batch it *helps*: it pops and runs
//!   queued tasks (its own or other batches'), so a pool sized to the
//!   machine never idles the submitting thread.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock ignoring poisoning. A panic anywhere near these mutexes (a task
/// unwinding, an injected fault, a caller thread dying while queueing)
/// must never wedge later submitters: the protected state — a job queue
/// and a counter+list — stays structurally valid across an unwind, so
/// the poison flag carries no information we act on.
fn lock_robust<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A type-erased unit of work. Lifetime-erased to `'static` by
/// [`Scope::execute`]; soundness is provided by [`TaskPool::scoped`]
/// refusing to return before every submitted task has run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-wide count of OS threads ever spawned by any [`TaskPool`].
/// Lets tests assert that matching never spawns threads per call.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Pool workers spawned by pools created on this thread.
    static SPAWNED_HERE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    work: Condvar,
    /// Queued + currently running jobs (a load metric, not a sync point).
    pending: AtomicUsize,
    shutdown: std::sync::atomic::AtomicBool,
}

/// One batch of tasks submitted through a [`Scope`].
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    remaining: usize,
    panics: Vec<String>,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            state: Mutex::new(BatchState {
                remaining: 0,
                panics: Vec::new(),
            }),
            done: Condvar::new(),
        }
    }

    fn task_finished(&self, panic: Option<String>) {
        let mut st = lock_robust(&self.state);
        st.remaining -= 1;
        if let Some(msg) = panic {
            st.panics.push(msg);
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A task submitted through [`TaskPool::scoped`] panicked; the payload
/// message(s) are carried here instead of unwinding through the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload(s), `"; "`-joined when several tasks panicked.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pooled task panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// A persistent pool of worker threads (see the module docs).
pub struct TaskPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl TaskPool {
    /// Spawn a pool with `threads` workers (min 1). The only place this
    /// crate creates matching threads — everything else reuses them.
    pub fn new(threads: usize) -> TaskPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                SPAWNED_HERE.with(|n| n.set(n.get() + 1));
                std::thread::Builder::new()
                    .name(format!("sfa-match-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        TaskPool {
            shared,
            threads,
            handles,
        }
    }

    /// The process-wide shared pool, created on first use with one worker
    /// per logical CPU. All matching entry points default to this pool, so
    /// a serving process pays thread-spawn cost exactly once.
    pub fn shared() -> &'static Arc<TaskPool> {
        static GLOBAL: OnceLock<Arc<TaskPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            Arc::new(TaskPool::new(n))
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queued plus in-flight tasks right now (load/backlog metric).
    pub fn queue_depth(&self) -> usize {
        self.shared.pending.load(Ordering::Relaxed)
    }

    /// Total OS threads ever spawned by **any** pool in this process.
    /// Stable across matches once the pools exist — the per-call-spawn
    /// regression guard.
    pub fn threads_spawned_total() -> u64 {
        THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// OS threads spawned by pools created on the calling thread. Unlike
    /// [`Self::threads_spawned_total`], pools that other threads create
    /// meanwhile do not move it, so a test can assert on it while
    /// sibling tests run.
    pub fn threads_spawned_by_this_thread() -> u64 {
        SPAWNED_HERE.with(std::cell::Cell::get)
    }

    /// Run a batch of borrowed-data tasks on the pool and wait for all of
    /// them. Tasks may borrow anything that outlives the call (`'scope`):
    /// `scoped` does not return — even if `f` panics — until every task
    /// submitted through the [`Scope`] has finished. Task panics are
    /// caught and returned as [`JobPanic`]; the pool stays usable.
    pub fn scoped<'pool, 'scope, F, R>(&'pool self, f: F) -> Result<R, JobPanic>
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let batch = Arc::new(Batch::new());
        let scope = Scope {
            pool: self,
            batch: batch.clone(),
            _marker: PhantomData,
        };
        // The wait must happen even when `f` unwinds, otherwise tasks
        // could outlive the borrows they were given — hence a drop guard.
        struct WaitGuard<'a> {
            pool: &'a TaskPool,
            batch: &'a Batch,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.pool.wait_helping(self.batch);
            }
        }
        let result = {
            let _guard = WaitGuard {
                pool: self,
                batch: &batch,
            };
            f(&scope)
        };
        let mut st = lock_robust(&batch.state);
        if st.panics.is_empty() {
            Ok(result)
        } else {
            Err(JobPanic {
                message: std::mem::take(&mut st.panics).join("; "),
            })
        }
    }

    /// Block until `batch` completes, running queued jobs (from any
    /// batch) instead of sleeping whenever the injector is non-empty.
    fn wait_helping(&self, batch: &Batch) {
        loop {
            {
                let st = lock_robust(&batch.state);
                if st.remaining == 0 {
                    return;
                }
            }
            let job = lock_robust(&self.shared.queue).pop_front();
            match job {
                Some(job) => run_job(&self.shared, job),
                None => {
                    let st = lock_robust(&batch.state);
                    if st.remaining == 0 {
                        return;
                    }
                    // Re-check the injector periodically: a task of another
                    // batch may enqueue after we looked.
                    let (_st, _timeout) = batch
                        .done
                        .wait_timeout(st, std::time::Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // Publish shutdown under the queue lock: a worker checks the flag
        // and starts waiting while it holds that lock, so a store between
        // its check and its wait would lose the wake-up below and hang
        // the join.
        {
            let _queue = lock_robust(&self.shared.queue);
            self.shared
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Submission handle passed to the closure of [`TaskPool::scoped`].
pub struct Scope<'pool, 'scope> {
    pool: &'pool TaskPool,
    batch: Arc<Batch>,
    /// Invariant over `'scope` (mirrors `std::thread::Scope`).
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'_, 'scope> {
    /// Queue one task. It may borrow `'scope` data; it will have finished
    /// before the enclosing [`TaskPool::scoped`] returns.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.batch.state.lock().unwrap().remaining += 1;
        let batch = self.batch.clone();
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: `scoped` waits (in WaitGuard::drop) for `remaining == 0`
        // before returning, so this closure — and everything it borrows
        // with lifetime 'scope — is dead before the borrows expire.
        let task: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(task)
        };
        let job: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                // Injected worker faults surface as contained panics: a
                // pooled task returns no value, so an injected error has
                // nowhere to go but the batch's panic list (which callers
                // see as a typed JobPanic).
                if let Err(e) = crate::faults::trigger("pool/worker") {
                    panic!("{e}");
                }
                task()
            }));
            let mut failure = outcome.err().map(panic_message);
            // The bookkeeping site injects failure *around* completion
            // accounting. Both error and panic kinds are converted to a
            // recorded message — the `task_finished` decrement below must
            // run unconditionally or `scoped` would wait forever.
            match catch_unwind(|| crate::faults::trigger("pool/bookkeeping")) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => merge_failure(&mut failure, e.to_string()),
                Err(payload) => merge_failure(&mut failure, panic_message(payload)),
            }
            batch.task_finished(failure);
        });
        let shared = &self.pool.shared;
        shared.pending.fetch_add(1, Ordering::Relaxed);
        lock_robust(&shared.queue).push_back(job);
        shared.work.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_robust(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: Job) {
    // The job wrapper already catches task panics; this second layer only
    // guards the bookkeeping itself so a worker can never die.
    let _ = catch_unwind(AssertUnwindSafe(job));
    shared.pending.fetch_sub(1, Ordering::Relaxed);
}

fn merge_failure(slot: &mut Option<String>, msg: String) {
    match slot {
        Some(existing) => {
            existing.push_str("; ");
            existing.push_str(&msg);
        }
        None => *slot = Some(msg),
    }
}

/// Render a panic payload as a human-readable message (`&str` / `String`
/// payloads pass through; anything else gets a placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_borrowed_tasks_to_completion() {
        let pool = TaskPool::new(3);
        let mut slots = vec![0u32; 16];
        pool.scoped(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.execute(move || *slot = i as u32 * 2);
            }
        })
        .unwrap();
        assert_eq!(slots, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_contained_and_typed() {
        let pool = TaskPool::new(2);
        let err = pool
            .scoped(|scope| {
                scope.execute(|| panic!("chunk 3 poisoned"));
                scope.execute(|| {});
            })
            .unwrap_err();
        assert!(err.message.contains("chunk 3 poisoned"), "{err}");
        // The pool survives and keeps serving.
        let v = AtomicU32::new(0);
        let ok = pool.scoped(|scope| {
            let v = &v;
            scope.execute(move || {
                v.fetch_add(7, Ordering::Relaxed);
            });
            42u32
        });
        assert_eq!(ok.unwrap(), 42);
        assert_eq!(v.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn dropping_a_pool_never_loses_the_shutdown_wakeup() {
        // Drop races worker start-up here; a lost wake-up used to hang
        // `drop` about one run in two.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(TaskPool::new(2));
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("dropping a TaskPool deadlocked");
    }

    #[test]
    fn no_threads_spawned_per_batch() {
        let pool = TaskPool::new(4);
        let before = TaskPool::threads_spawned_by_this_thread();
        assert!(before >= 4, "the pool's own workers are counted");
        for round in 0..50 {
            let mut out = [0u64; 8];
            pool.scoped(|scope| {
                for (i, slot) in out.iter_mut().enumerate() {
                    scope.execute(move || *slot = round * 8 + i as u64);
                }
            })
            .unwrap();
        }
        assert_eq!(TaskPool::threads_spawned_by_this_thread(), before);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = Arc::new(TaskPool::new(3));
        let total = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = pool.clone();
                let total = &total;
                s.spawn(move || {
                    for _ in 0..20 {
                        pool.scoped(|scope| {
                            for _ in 0..4 {
                                scope.execute(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 20 * 4);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = TaskPool::new(2);
        let r: Result<u8, _> = pool.scoped(|_| 9);
        assert_eq!(r.unwrap(), 9);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn survives_poisoned_injector_mutex() {
        let pool = TaskPool::new(2);
        // Poison the injector mutex the way a thread dying while holding
        // it would — the pool must unpoison and keep serving instead of
        // wedging every later submitter.
        let shared = pool.shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = shared.queue.lock().unwrap();
            panic!("die holding the injector lock");
        })
        .join();
        assert!(pool.shared.queue.is_poisoned());
        let v = AtomicU32::new(0);
        pool.scoped(|scope| {
            let v = &v;
            for _ in 0..8 {
                scope.execute(move || {
                    v.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(v.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panicking_batch_leaves_no_poison_behind() {
        let pool = TaskPool::new(2);
        let _ = pool.scoped(|scope| {
            scope.execute(|| panic!("worker down"));
        });
        assert!(!pool.shared.queue.is_poisoned());
        // Subsequent batches — including from other threads — proceed.
        let r = pool.scoped(|_| 5u8);
        assert_eq!(r.unwrap(), 5);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = TaskPool::shared() as *const _;
        let b = TaskPool::shared() as *const _;
        assert_eq!(a, b);
        assert!(TaskPool::shared().threads() >= 1);
    }
}
