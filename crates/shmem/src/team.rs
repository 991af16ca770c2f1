//! Thread teams and fork-join parallel regions.
//!
//! [`Team`] is the `#pragma omp parallel` analog: [`Team::parallel`] forks
//! a team of threads, runs the region body in each, and joins them all —
//! the fork-join pattern taught by the very first OpenMP patternlet.
//! Threads are *scoped*, so the region body may borrow from the enclosing
//! stack frame just like an OpenMP parallel region sees the enclosing
//! scope's shared variables.

use std::any::Any;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hooks::{self, SyncEvent};
use crate::sync::{Barrier, BarrierKind};

/// A team configuration: how many threads a parallel region forks and
/// which barrier implementation synchronizes them.
#[derive(Debug, Clone)]
pub struct Team {
    num_threads: usize,
    barrier_kind: BarrierKind,
}

impl Default for Team {
    /// A team sized to the host's available parallelism.
    fn default() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }
}

impl Team {
    /// A team of exactly `num_threads` threads (`>= 1`).
    ///
    /// Like `OMP_NUM_THREADS`, this may exceed the host's core count; the
    /// region then runs oversubscribed (correct, but without speedup) —
    /// the same regime as MPI patternlets on the paper's one-core Colab VM.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "a team needs at least one thread");
        Self {
            num_threads,
            barrier_kind: BarrierKind::default(),
        }
    }

    /// Select the barrier implementation (see [`BarrierKind`]).
    pub fn with_barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier_kind = kind;
        self
    }

    /// Number of threads this team forks.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `body` in parallel on every team thread (fork-join).
    ///
    /// The body receives a [`ThreadCtx`] exposing the thread id, team
    /// size, the team barrier, and named critical sections.
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.parallel_map(|ctx| body(ctx));
    }

    /// Panic-isolating [`Team::parallel`]: a panicking worker poisons
    /// the region with a typed [`TeamError`] instead of aborting the
    /// whole process — the shmem analogue of a rank crash that the
    /// world survives. Every thread still runs to completion (or
    /// panic); the first panic by thread id is reported.
    pub fn try_parallel<F>(&self, body: F) -> Result<(), TeamError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.try_parallel_map(|ctx| body(ctx)).map(|_| ())
    }

    /// Panic-isolating [`Team::parallel_map`]: returns every thread's
    /// value, or [`TeamError::WorkerPanicked`] naming the first
    /// panicking thread (lowest id) and its panic message.
    ///
    /// **Caveat**: a worker that panics between two [`ThreadCtx::barrier`]
    /// calls leaves its teammates waiting at the next barrier; use
    /// barrier-free bodies (or the master-checks pattern) with this API.
    pub fn try_parallel_map<F, T>(&self, body: F) -> Result<Vec<T>, TeamError>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        self.fork_join("try_parallel", body)
            .map_err(|(thread, payload)| TeamError::WorkerPanicked {
                thread,
                message: panic_message(&*payload),
            })
    }

    /// Run `body` on every team thread and collect each thread's return
    /// value, ordered by thread id.
    ///
    /// A panicking thread aborts the whole region, like OpenMP aborting
    /// the team on an uncaught exception: once every thread has finished,
    /// the lowest-id panic resumes on the caller with its original payload.
    pub fn parallel_map<F, T>(&self, body: F) -> Vec<T>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        self.fork_join("parallel", body)
            .unwrap_or_else(|(_, payload)| std::panic::resume_unwind(payload))
    }

    /// Fork the team under a `shmem/<name>` region span, run `body` on
    /// every thread with its panics caught, and join. Returns every
    /// thread's value, or the lowest panicking thread id with its raw
    /// panic payload.
    fn fork_join<F, T>(
        &self,
        name: &'static str,
        body: F,
    ) -> Result<Vec<T>, (usize, Box<dyn Any + Send>)>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        let mut region = pdc_trace::span("shmem", name);
        region.arg("threads", self.num_threads);
        let shared = RegionShared {
            barrier: self.barrier_kind.build(self.num_threads),
            criticals: CriticalRegistry::default(),
        };
        let mut results: Vec<Option<std::thread::Result<T>>> =
            (0..self.num_threads).map(|_| None).collect();
        let token = hooks::next_token();
        hooks::emit(&SyncEvent::Fork {
            token,
            children: self.num_threads,
        });
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(self.num_threads);
            for (id, slot) in results.iter_mut().enumerate() {
                let shared = &shared;
                let body = &body;
                handles.push(s.spawn(move || {
                    hooks::emit(&SyncEvent::ChildStart {
                        token,
                        child_index: id,
                    });
                    let mut worker = pdc_trace::span("shmem", "worker");
                    worker.arg("thread", id);
                    let ctx = ThreadCtx {
                        id,
                        num_threads: shared.barrier.members(),
                        shared,
                    };
                    // AssertUnwindSafe: a panicking thread's result is
                    // only ever surfaced as its payload, so no state from
                    // the interrupted body is observed.
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                    if result.is_err() {
                        pdc_trace::counter("shmem", "worker_panics", 1);
                    }
                    *slot = Some(result);
                    // Close the span, then hand the thread's buffered
                    // events to the registry: a scoped join only waits
                    // for this closure, not for TLS destructors, so a
                    // drop-time flush could race a post-join drain().
                    drop(worker);
                    pdc_trace::flush_thread();
                    hooks::emit(&SyncEvent::ChildEnd {
                        token,
                        child_index: id,
                    });
                }));
            }
            for h in handles {
                h.join()
                    .expect("worker panics are caught inside the region");
            }
        });
        hooks::emit(&SyncEvent::Join { token });
        pdc_trace::counter("shmem", "parallel_regions", 1);
        results
            .into_iter()
            .enumerate()
            .map(|(id, r)| {
                r.expect("every team thread ran")
                    .map_err(|payload| (id, payload))
            })
            .collect()
    }
}

/// Typed failure of a panic-isolating parallel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamError {
    /// A worker thread panicked; the region was poisoned and no results
    /// are returned. The first panicking thread (by id) is reported.
    WorkerPanicked {
        /// Thread id of the (first) panicking worker.
        thread: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for TeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeamError::WorkerPanicked { thread, message } => {
                write!(f, "team thread {thread} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for TeamError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// State shared by every thread of one parallel region.
struct RegionShared {
    barrier: Box<dyn Barrier>,
    criticals: CriticalRegistry,
}

/// Named critical-section registry: all uses of the same name across the
/// region share one lock, and the unnamed critical (`""`) is one global
/// lock — matching OpenMP's `#pragma omp critical [(name)]` semantics.
#[derive(Default)]
struct CriticalRegistry {
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl CriticalRegistry {
    fn get(&self, name: &str) -> Arc<Mutex<()>> {
        let mut map = self.locks.lock();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }
}

/// Per-thread view of a parallel region.
pub struct ThreadCtx<'a> {
    id: usize,
    num_threads: usize,
    shared: &'a RegionShared,
}

impl ThreadCtx<'_> {
    /// This thread's id within the team (`0..num_threads`), the
    /// `omp_get_thread_num()` analog.
    pub fn thread_num(&self) -> usize {
        self.id
    }

    /// Team size — `omp_get_num_threads()`.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// True on thread 0 — the `#pragma omp master` test.
    pub fn is_master(&self) -> bool {
        self.id == 0
    }

    /// Run `f` only on the master thread; other threads skip it without
    /// waiting (OpenMP `master` has no implied barrier).
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.is_master() {
            Some(f())
        } else {
            None
        }
    }

    /// Wait until every team thread reaches this barrier
    /// (`#pragma omp barrier`). Returns `true` on exactly one thread.
    ///
    /// With tracing enabled, each thread records one `barrier_wait` span
    /// covering its arrival-to-release interval; the summary exporter
    /// turns those into the per-barrier wait-time histogram.
    pub fn barrier(&self) -> bool {
        // span_hist: the wait also lands in the `barrier_wait` duration
        // histogram, so straggler-induced waits get p50/p90/p99.
        let mut wait = pdc_trace::span_hist("shmem", "barrier_wait");
        wait.arg("thread", self.id);
        let barrier_id = hooks::obj_id(&*self.shared.barrier as *const dyn Barrier);
        hooks::emit(&SyncEvent::BarrierArrive {
            barrier: barrier_id,
            members: self.shared.barrier.members(),
        });
        let leader = self.shared.barrier.wait();
        hooks::emit(&SyncEvent::BarrierLeave {
            barrier: barrier_id,
        });
        leader
    }

    /// Run `f` under the named critical section
    /// (`#pragma omp critical(name)`). All occurrences of one name are
    /// mutually exclusive; pass `""` for the unnamed critical.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let lock = self.shared.criticals.get(name);
        let lock_id = hooks::obj_id(Arc::as_ptr(&lock));
        let guard = lock.lock();
        hooks::emit(&SyncEvent::Acquire { lock: lock_id });
        let result = f();
        // Emit before dropping the guard so the observer orders this
        // Release ahead of the next holder's Acquire.
        hooks::emit(&SyncEvent::Release { lock: lock_id });
        drop(guard);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_thread_runs_once() {
        let team = Team::new(6);
        let hits = AtomicUsize::new(0);
        team.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn thread_ids_are_distinct_and_dense() {
        let team = Team::new(5);
        let mut ids = team.parallel_map(|ctx| ctx.thread_num());
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_map_preserves_thread_order() {
        let team = Team::new(4);
        let squares = team.parallel_map(|ctx| ctx.thread_num() * ctx.thread_num());
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn num_threads_visible_in_region() {
        let team = Team::new(3);
        let sizes = team.parallel_map(|ctx| ctx.num_threads());
        assert_eq!(sizes, vec![3, 3, 3]);
    }

    #[test]
    fn master_runs_only_on_thread_zero() {
        let team = Team::new(4);
        let ran = team.parallel_map(|ctx| ctx.master(|| ctx.thread_num()).is_some());
        assert_eq!(ran, vec![true, false, false, false]);
    }

    #[test]
    fn critical_serializes_updates() {
        let team = Team::new(8);
        let mut total = 0usize;
        {
            let total = parking_lot::Mutex::new(&mut total);
            team.parallel(|ctx| {
                for _ in 0..1_000 {
                    ctx.critical("sum", || {
                        **total.lock() += 1;
                    });
                }
            });
        }
        assert_eq!(total, 8_000);
    }

    #[test]
    fn different_critical_names_do_not_serialize_each_other() {
        // Two named criticals must use two distinct locks: a thread holding
        // "a" must not block a thread entering "b". We verify both names
        // can be held simultaneously.
        let team = Team::new(2);
        let in_a = AtomicUsize::new(0);
        let overlap_seen = AtomicUsize::new(0);
        team.parallel(|ctx| {
            if ctx.thread_num() == 0 {
                ctx.critical("a", || {
                    in_a.store(1, Ordering::SeqCst);
                    // Give thread 1 a window to enter "b" while we hold "a".
                    for _ in 0..1_000 {
                        std::thread::yield_now();
                    }
                    in_a.store(0, Ordering::SeqCst);
                });
            } else {
                for _ in 0..1_000 {
                    ctx.critical("b", || {
                        if in_a.load(Ordering::SeqCst) == 1 {
                            overlap_seen.store(1, Ordering::SeqCst);
                        }
                    });
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(
            overlap_seen.load(Ordering::SeqCst),
            1,
            "named criticals 'a' and 'b' never overlapped; they appear to share a lock"
        );
    }

    #[test]
    fn barrier_separates_phases() {
        let team = Team::new(4);
        let phase1 = AtomicUsize::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // All four phase-1 increments must be visible after the barrier.
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn region_body_can_borrow_stack_data() {
        let team = Team::new(3);
        let input = [10, 20, 30];
        let doubled = team.parallel_map(|ctx| input[ctx.thread_num()] * 2);
        assert_eq!(doubled, vec![20, 40, 60]);
    }

    #[test]
    fn oversubscription_works() {
        // 16 threads on (possibly) 1 core: correctness must not depend on
        // real parallelism.
        let team = Team::new(16);
        let ids = team.parallel_map(|ctx| ctx.thread_num());
        assert_eq!(ids.len(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_team_rejected() {
        Team::new(0);
    }

    #[test]
    fn blocking_barrier_team() {
        let team = Team::new(4).with_barrier(BarrierKind::Blocking);
        let count = AtomicUsize::new(0);
        team.parallel(|ctx| {
            count.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(count.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn try_parallel_isolates_worker_panic() {
        let team = Team::new(4);
        let err = team
            .try_parallel_map(|ctx| {
                if ctx.thread_num() == 2 {
                    panic!("injected worker fault");
                }
                ctx.thread_num()
            })
            .unwrap_err();
        assert_eq!(
            err,
            TeamError::WorkerPanicked {
                thread: 2,
                message: "injected worker fault".to_owned()
            }
        );
        // The team object survives and runs cleanly afterwards.
        let ok = team.try_parallel_map(|ctx| ctx.thread_num()).unwrap();
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_parallel_reports_lowest_panicking_thread() {
        let team = Team::new(3);
        let err = team.try_parallel(|_| panic!("all down")).unwrap_err();
        assert!(matches!(err, TeamError::WorkerPanicked { thread: 0, .. }));
    }

    #[test]
    fn try_parallel_ok_path_matches_parallel_map() {
        let team = Team::new(4);
        let got = team.try_parallel_map(|ctx| ctx.thread_num() * 3).unwrap();
        assert_eq!(got, vec![0, 3, 6, 9]);
    }

    #[test]
    fn panic_in_region_propagates() {
        let team = Team::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("the worker panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
