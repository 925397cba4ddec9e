//! The logical server pool.

use crate::crew::Crew;
use pdc_types::{ServerId, Unpoison};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A handler panic caught during [`ServerPool::try_broadcast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPanic {
    /// The server whose handler panicked.
    pub server: ServerId,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for ServerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server {} panicked: {}", self.server.raw(), self.message)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A pool of logical PDC servers with persistent per-server state,
/// dispatched over real worker threads: the dispatching thread plus a
/// persistent crew of `worker_threads − 1` helpers that the pool starts on
/// its first multi-worker dispatch and joins when it is dropped. The
/// pool is **elastic**: servers can be added at runtime
/// ([`Self::add_server`]) without disturbing the existing states — server
/// ids are stable for the pool's lifetime.
pub struct ServerPool<S> {
    states: RwLock<Vec<Arc<Mutex<S>>>>,
    /// The worker threads besides the dispatching one.
    crew: Crew,
}

impl<S: Send> ServerPool<S> {
    /// Create a pool of `num_servers` logical servers, initializing each
    /// server's state with `init`.
    pub fn new(num_servers: u32, init: impl Fn(ServerId) -> S) -> Self {
        let states = (0..num_servers).map(|i| Arc::new(Mutex::new(init(ServerId(i))))).collect();
        let worker_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        Self { states: RwLock::new(states), crew: Crew::new(worker_threads - 1) }
    }

    /// Number of logical servers.
    pub fn num_servers(&self) -> u32 {
        self.states.read().unpoisoned().len() as u32
    }

    /// Grow the pool by one logical server (elastic scale-out); returns
    /// the new server's id. Existing states are untouched, in-flight
    /// broadcasts on other threads keep their own snapshot of the pool.
    pub fn add_server(&self, init: impl FnOnce(ServerId) -> S) -> ServerId {
        let mut states = self.states.write().unpoisoned();
        let id = ServerId(states.len() as u32);
        states.push(Arc::new(Mutex::new(init(id))));
        id
    }

    /// Override the number of real worker threads (defaults to the host
    /// parallelism). The calling thread is one of them, so `1` means no
    /// helper thread ever starts.
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.crew = Crew::new(n.max(1) - 1);
        self
    }

    /// A point-in-time snapshot of the server states (membership changes
    /// after the snapshot do not affect the broadcast using it).
    fn snapshot(&self) -> Vec<Arc<Mutex<S>>> {
        self.states.read().unpoisoned().clone()
    }

    /// The one dispatch routine: run `handler` once per logical server and
    /// return each server's outcome, a caught panic payload included, in
    /// server order.
    ///
    /// The job is a claim loop — take the next server index, lock that
    /// server's state, run the handler, store the outcome — that the
    /// calling thread and up to `worker_threads − 1` crew helpers run at
    /// once (none when one worker or one server is all there is). A
    /// handler panic is caught per server, so the loop goes on to the
    /// servers queued behind it and never unwinds.
    fn dispatch<R, F>(&self, handler: F) -> Vec<std::thread::Result<R>>
    where
        R: Send,
        F: Fn(ServerId, &mut S) -> R + Sync,
    {
        let states = self.snapshot();
        let n = states.len();
        let results: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // `Relaxed`: the counter only hands out indices. What a helper
        // stored reaches the caller through the crew's slot lock, which the
        // helper releases on leaving the job and `Crew::run` takes before
        // it returns.
        let next = AtomicUsize::new(0);
        self.crew.run(n.saturating_sub(1), &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = {
                let mut state = states[i].lock().unpoisoned();
                catch_unwind(AssertUnwindSafe(|| handler(ServerId(i as u32), &mut state)))
            };
            *results[i].lock().unpoisoned() = Some(r);
        });
        results
            .into_iter()
            .map(|m| m.into_inner().unpoisoned().expect("every server produced a result"))
            .collect()
    }

    /// Run `handler` once per logical server ("broadcast"), giving it the
    /// server's id and exclusive access to its persistent state. Results
    /// are returned indexed by server. Handlers run concurrently across
    /// worker threads; each logical server runs exactly once. A second
    /// thread broadcasting on the same pool meanwhile runs its handlers on
    /// its own thread alone.
    ///
    /// # Panics
    ///
    /// If a handler panics, every other server still runs, and the panic
    /// of the lowest-numbered panicking server is then re-raised on the
    /// calling thread with its original payload. The pool stays usable.
    pub fn broadcast<R, F>(&self, handler: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ServerId, &mut S) -> R + Sync,
    {
        self.dispatch(handler).into_iter().map(|r| r.unwrap_or_else(|p| resume_unwind(p))).collect()
    }

    /// Like [`Self::broadcast`], but fallible per server: a handler that
    /// panics is isolated with `catch_unwind` — the panic kills neither
    /// the worker thread (which moves on to the next queued server) nor
    /// the broadcast, and the panicking server's slot reports
    /// [`ServerPanic`] while every other server still returns its result.
    ///
    /// The panicked server's state lock recovers from the poison (see the
    /// pool's Mutex), so the server stays addressable afterwards; whether
    /// its state is still coherent is the caller's policy (the query
    /// engine treats a panicked server as failed and reassigns its work).
    pub fn try_broadcast<R, F>(&self, handler: F) -> Vec<Result<R, ServerPanic>>
    where
        R: Send,
        F: Fn(ServerId, &mut S) -> R + Sync,
    {
        (0u32..)
            .zip(self.dispatch(handler))
            .map(|(i, r)| {
                r.map_err(|payload| ServerPanic {
                    server: ServerId(i),
                    message: panic_message(&*payload),
                })
            })
            .collect()
    }

    /// Run `f` against one server's state (e.g. the metadata owner of an
    /// object, or test inspection).
    pub fn with_server<R>(&self, id: ServerId, f: impl FnOnce(&mut S) -> R) -> R {
        let state = Arc::clone(&self.states.read().unpoisoned()[id.raw() as usize]);
        let mut state = state.lock().unpoisoned();
        f(&mut state)
    }

    /// Apply `f` to every server's state sequentially (e.g. cache resets
    /// between experiments).
    pub fn for_each_server(&self, mut f: impl FnMut(ServerId, &mut S)) {
        let states = self.snapshot();
        for (i, st) in states.iter().enumerate() {
            f(ServerId(i as u32), &mut st.lock().unpoisoned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct State {
        invocations: u64,
        total: u64,
    }

    #[test]
    fn broadcast_runs_every_server_once() {
        let pool = ServerPool::new(16, |_| State::default());
        let results = pool.broadcast(|id, st| {
            st.invocations += 1;
            id.raw() as u64
        });
        assert_eq!(results, (0..16).collect::<Vec<u64>>());
        pool.for_each_server(|_, st| assert_eq!(st.invocations, 1));
    }

    #[test]
    fn state_persists_across_broadcasts() {
        let pool = ServerPool::new(4, |_| State::default());
        for round in 0..5u64 {
            pool.broadcast(|_, st| {
                st.total += round;
            });
        }
        pool.for_each_server(|_, st| assert_eq!(st.total, 1 + 2 + 3 + 4));
    }

    #[test]
    fn with_server_targets_one_state() {
        let pool = ServerPool::new(3, |id| State { invocations: 0, total: id.raw() as u64 });
        let v = pool.with_server(ServerId(2), |st| st.total);
        assert_eq!(v, 2);
        pool.with_server(ServerId(0), |st| st.total = 99);
        assert_eq!(pool.with_server(ServerId(0), |st| st.total), 99);
        // others untouched
        assert_eq!(pool.with_server(ServerId(1), |st| st.total), 1);
    }

    #[test]
    fn init_sees_server_ids() {
        let pool = ServerPool::new(8, |id| id.raw() as u64);
        let results = pool.broadcast(|_, st| *st);
        assert_eq!(results, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn single_worker_thread_still_completes() {
        let pool = ServerPool::new(32, |_| State::default()).with_worker_threads(1);
        let results = pool.broadcast(|id, _| id.raw());
        assert_eq!(results.len(), 32);
    }

    #[test]
    fn many_logical_servers_on_few_threads() {
        // Fig. 6 runs up to 512 PDC servers; the pool must host that many
        // logical servers regardless of the physical core count.
        let pool = ServerPool::new(512, |_| State::default()).with_worker_threads(2);
        let results = pool.broadcast(|id, st| {
            st.invocations += 1;
            id.raw()
        });
        assert_eq!(results.len(), 512);
        assert_eq!(results[511], 511);
    }

    #[test]
    fn add_server_grows_the_pool_with_stable_ids() {
        let pool = ServerPool::new(3, |id| State { invocations: 0, total: id.raw() as u64 });
        pool.with_server(ServerId(1), |st| st.total = 41);
        let id = pool.add_server(|id| State { invocations: 0, total: id.raw() as u64 });
        assert_eq!(id, ServerId(3));
        assert_eq!(pool.num_servers(), 4);
        // Pre-existing state survives the join; the new server is
        // addressable and participates in broadcasts.
        assert_eq!(pool.with_server(ServerId(1), |st| st.total), 41);
        let results = pool.broadcast(|id, st| {
            st.invocations += 1;
            id.raw()
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
        assert_eq!(pool.with_server(ServerId(3), |st| st.invocations), 1);
    }

    #[test]
    fn try_broadcast_isolates_a_panicking_server() {
        let pool = ServerPool::new(8, |_| State::default());
        let results = pool.try_broadcast(|id, st| {
            if id.raw() == 3 {
                panic!("boom on server 3");
            }
            st.invocations += 1;
            id.raw()
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.server, ServerId(3));
                assert!(p.message.contains("boom"), "got: {}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
        // Every healthy server ran exactly once; the panicked one is
        // still addressable afterwards.
        pool.for_each_server(|id, st| {
            assert_eq!(st.invocations, u64::from(id.raw() != 3));
        });
        assert_eq!(pool.with_server(ServerId(3), |st| st.invocations), 0);
    }

    #[test]
    fn try_broadcast_panic_on_few_threads_does_not_skip_servers() {
        // A panic must not kill the worker's dispatch loop: with 2 real
        // threads and 512 logical servers, servers queued after the
        // panicking one must still run.
        let pool = ServerPool::new(512, |_| State::default()).with_worker_threads(2);
        let results = pool.try_broadcast(|id, st| {
            if id.raw() % 97 == 13 {
                panic!("injected");
            }
            st.invocations += 1;
            id.raw()
        });
        assert_eq!(results.len(), 512);
        let (ok, err): (Vec<_>, Vec<_>) = results.iter().partition(|r| r.is_ok());
        assert_eq!(err.len(), (0..512).filter(|i| i % 97 == 13).count());
        assert_eq!(ok.len(), 512 - err.len());
        for r in results.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(r.server.raw() % 97, 13);
        }
    }

    #[test]
    fn try_broadcast_all_panic_still_returns_every_slot() {
        let pool = ServerPool::new(16, |_| State::default()).with_worker_threads(3);
        let results = pool.try_broadcast(|_, _: &mut State| -> u32 { panic!("all down") });
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.is_err()));
        // The pool survives and can run a healthy broadcast afterwards.
        let again = pool.broadcast(|id, _| id.raw());
        assert_eq!(again.len(), 16);
    }

    #[test]
    fn try_broadcast_matches_broadcast_when_nothing_fails() {
        let pool = ServerPool::new(32, |_| State::default());
        let a = pool.broadcast(|id, _| id.raw() * 2);
        let b: Vec<u32> =
            pool.try_broadcast(|id, _| id.raw() * 2).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn broadcast_reraises_a_handler_panic_and_the_pool_survives() {
        let pool = ServerPool::new(512, |_| State::default()).with_worker_threads(3);
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|id, st| {
                if id.raw() == 200 {
                    std::panic::panic_any(Payload(200));
                }
                st.invocations += 1;
            })
        }));
        let payload = caught.expect_err("the handler panic must reach the caller");
        assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(200)));
        // The other 511 servers ran, and pool and helpers are still there.
        pool.for_each_server(|id, st| assert_eq!(st.invocations, u64::from(id.raw() != 200)));
        assert_eq!(pool.crew.helpers_started(), 2);
        let again = pool.broadcast(|id, st| {
            st.invocations += 1;
            id.raw()
        });
        assert_eq!(again, (0..512).collect::<Vec<u32>>());
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        let pool = ServerPool::new(16, |_| State::default()).with_worker_threads(3);
        let crew = pool.crew.shared();
        assert_eq!(pool.crew.helpers_started(), 0, "helpers start lazily");
        pool.broadcast(|_, st| st.invocations += 1);
        assert_eq!(pool.crew.helpers_started(), 2);
        // Each helper thread holds the crew's shared state; it is released
        // only once the thread has been joined.
        assert!(crew.upgrade().is_some());
        drop(pool);
        assert!(crew.upgrade().is_none(), "a helper outlived its pool");
    }

    #[test]
    fn two_hundred_pools_leave_no_live_crew() {
        let crews: Vec<_> = (0..200)
            .map(|_| {
                let pool = ServerPool::new(4, |_| State::default()).with_worker_threads(2);
                assert_eq!(pool.broadcast(|id, _| id.raw()), vec![0, 1, 2, 3]);
                assert_eq!(pool.crew.helpers_started(), 1);
                pool.crew.shared()
            })
            .collect();
        assert!(crews.iter().all(|crew| crew.upgrade().is_none()));
    }

    #[test]
    fn a_single_worker_pool_never_starts_a_helper() {
        let pool = ServerPool::new(32, |_| State::default()).with_worker_threads(1);
        pool.broadcast(|_, st| st.invocations += 1);
        assert!(pool.try_broadcast(|id, _| id.raw()).iter().all(|r| r.is_ok()));
        assert_eq!(pool.crew.helpers_started(), 0);
        // Neither does a pool whose only server leaves nothing to share.
        let pool = ServerPool::new(1, |_| State::default()).with_worker_threads(4);
        pool.broadcast(|_, st| st.invocations += 1);
        assert_eq!(pool.crew.helpers_started(), 0);
    }
}
