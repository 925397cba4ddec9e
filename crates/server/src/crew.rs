//! The pool's persistent helper threads.
//!
//! A [`Crew`] owns `size` helper threads, started on the first dispatch
//! that wants one, parked on a condvar between dispatches and joined when
//! the crew is dropped. [`Crew::run`] publishes one *borrowed* job, wakes
//! helpers, and runs the same job on the calling thread; when the caller's
//! run drains the job it withdraws it and waits only for helpers that
//! actually entered it. A short job therefore never waits for a thread to
//! wake, a long one gets every core within one futex wake.
//!
//! This module holds the crate's only `unsafe`: helper threads outlive any
//! one dispatch, so the job they borrow has its lifetime erased ([`Job`]).
//! The fields that keep that sound (`Slot::job`, `Slot::active`) are
//! private to this module and only written here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A borrowed `Fn() + Sync` with its type and lifetime erased: a thin
/// pointer to the closure plus the monomorphized function that calls it.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: fn(*const ()),
}

// SAFETY: `data` is a `&F` with `F: Sync` (see `Job::borrow`), so calling
// `F` through it from another thread is what `Sync` permits, and `call` is
// a plain function pointer. `Job` hands out no other access to the pointee.
// That the pointee is still alive whenever a helper calls it is
// `Crew::run`'s invariant, not this impl's.
unsafe impl Send for Job {}

impl Job {
    fn borrow<F: Fn() + Sync>(job: &F) -> Self {
        // Nested so that nothing else can pair `call` with a pointer that
        // is not an `&F`.
        fn call<F: Fn() + Sync>(data: *const ()) {
            // SAFETY: `data` was made from an `&F` just below, and a `Job`
            // is only called by `helper_loop`, between taking it out of
            // `Slot::job` with `Slot::active` raised and lowering `active`
            // again. `Crew::run`, which borrowed the `F`, neither returns
            // nor unwinds until the job is withdrawn from the slot and
            // `active` is zero (`Withdraw::drop`), so the `F` outlives
            // this reference.
            let job = unsafe { &*data.cast::<F>() };
            job()
        }
        Self { data: (job as *const F).cast(), call: call::<F> }
    }
}

#[derive(Default)]
struct Slot {
    /// The published job; helpers enter it only while it is here.
    job: Option<Job>,
    /// Helpers currently inside a job.
    active: usize,
    /// A dispatcher has published and not yet finished withdrawing.
    busy: bool,
    shutdown: bool,
}

#[derive(Default)]
pub(crate) struct Shared {
    slot: Mutex<Slot>,
    /// Helpers park here for a job or for shutdown.
    work: Condvar,
    /// The dispatcher parks here until `active` reaches zero.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Nothing panics while holding the slot lock and every field
        // update is valid on its own, so poison carries no information.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Helper threads of one pool; see the module docs.
pub(crate) struct Crew {
    size: usize,
    shared: Arc<Shared>,
    helpers: OnceLock<Vec<JoinHandle<()>>>,
}

impl Crew {
    /// A crew of `size` helpers; no thread starts before a dispatch wants
    /// one.
    pub(crate) fn new(size: usize) -> Self {
        Self { size, shared: Arc::default(), helpers: OnceLock::new() }
    }

    /// Run `job` on the calling thread and on up to `helpers` crew threads
    /// at once, returning when every thread that entered it has left it.
    ///
    /// `job` must drain a shared queue: the first call of it to return
    /// marks the job finished, and no helper enters it afterwards. If
    /// another thread's job occupies the crew, `job` runs on the caller
    /// alone.
    pub(crate) fn run<F: Fn() + Sync>(&self, helpers: usize, job: &F) {
        let _withdraw = self.publish(Job::borrow(job), helpers.min(self.size));
        job();
    }

    fn publish(&self, job: Job, helpers: usize) -> Option<Withdraw<'_>> {
        if helpers == 0 {
            return None;
        }
        let started = self.helpers.get_or_init(|| self.start()).len();
        {
            let mut slot = self.shared.lock();
            if slot.busy {
                return None;
            }
            slot.busy = true;
            slot.job = Some(job);
        }
        for _ in 0..helpers.min(started) {
            self.shared.work.notify_one();
        }
        Some(Withdraw(&self.shared))
    }

    fn start(&self) -> Vec<JoinHandle<()>> {
        (0..self.size)
            .map_while(|i| {
                let shared = Arc::clone(&self.shared);
                // A host that refuses a thread leaves the crew short, not
                // broken: the dispatching thread always runs the job.
                std::thread::Builder::new()
                    .name(format!("pdc-crew-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn shared(&self) -> std::sync::Weak<Shared> {
        Arc::downgrade(&self.shared)
    }

    #[cfg(test)]
    pub(crate) fn helpers_started(&self) -> usize {
        self.helpers.get().map_or(0, Vec::len)
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let Some(helpers) = self.helpers.take() else { return };
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for helper in helpers {
            // A helper only unwinds if `helper_loop` itself is broken;
            // there is nobody to report that to from a destructor.
            let _ = helper.join();
        }
    }
}

/// Ends a dispatch: takes the job out of the slot and waits until no
/// helper is inside one, on return and on unwind alike.
struct Withdraw<'a>(&'a Shared);

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.lock();
        slot.job = None;
        while slot.active > 0 {
            slot = self.0.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.busy = false;
    }
}

fn helper_loop(shared: &Shared) {
    let mut slot = shared.lock();
    while !slot.shutdown {
        let Some(job) = slot.job else {
            slot = shared.work.wait(slot).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        slot.active += 1;
        drop(slot);
        // The pool's job catches handler panics itself; should a job
        // unwind anyway, the helper must still leave it (or its dispatcher
        // waits forever) and stay alive for the next one.
        let _ = catch_unwind(AssertUnwindSafe(|| (job.call)(job.data)));
        slot = shared.lock();
        // The job drained: take it down so that helpers still waking up
        // (and this one) go back to sleep instead of re-entering it.
        slot.job = None;
        slot.active -= 1;
        if slot.active == 0 {
            shared.done.notify_one();
        }
    }
}
