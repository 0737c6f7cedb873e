//! Kernel hosting: the SC_THREAD replacement.
//!
//! In the original SystemC model, application code runs inside simulation
//! threads that block on hardware events and that the SystemC scheduler
//! resumes in-process. A kernel here *rendezvous* with the cycle engine at
//! every architectural operation (load, store, FP op, message op): it
//! issues one request, the engine simulates however many cycles the
//! operation takes, answers, and the kernel resumes, computes in zero
//! simulated time, and issues the next request. The engine is the only
//! scheduler — kernels never observe each other except through the
//! simulated hardware — so simulations are fully deterministic.
//!
//! A [`KernelHost`] is the engine-side endpoint. A kernel is a **task**
//! ([`KernelHost::task`]): a future the engine polls in place, on its own
//! thread. The future never leaves that thread, so it need not be `Send`,
//! and the slot it shares with the host is a plain `Rc<RefCell<..>>`. An
//! operation leaves its request in the slot and returns `Pending`;
//! [`KernelHost::fetch`] polls the future once (with a no-op waker, under
//! `catch_unwind`) and takes the request from the slot;
//! [`KernelHost::reply`] fills the slot, and the next poll resumes the
//! kernel with the answer. Resuming a task costs one poll.
//!
//! [`KernelHost::spawn`] hosts what remains of the OS-thread kind, which
//! only the repository benchmark's own kernels still use: a blocking
//! closure on its own OS thread, talking to the host over a pair of
//! rendezvous channels through a [`KernelPort`]. Resuming it costs two
//! thread switches.
//!
//! The protocol is the same strict half-duplex for both:
//!
//! 1. the kernel issues a request (`Req`) and waits;
//! 2. the engine picks the request up with [`KernelHost::fetch`], simulates
//!    the operation, then answers with [`KernelHost::reply`];
//! 3. the kernel resumes and issues the next request.
//!
//! A kernel that returns reports [`Fetched::Finished`] and the engine
//! retires the PE. A kernel that panics reports `Finished` too, and
//! [`KernelHost::join`] returns `true`. A task that returns `Pending`
//! without leaving a request awaited something other than an engine
//! operation, which could never complete: `fetch` panics naming the
//! kernel.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

/// Error observed by a thread kernel when the simulation is torn down
/// while the kernel is still running (e.g. the system hit its cycle
/// limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAbortedError;

impl std::fmt::Display for SimAbortedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation engine terminated while kernel was running")
    }
}

impl std::error::Error for SimAbortedError {}

/// The thread kernel's endpoint: issue a request, block until the engine
/// answers.
#[derive(Debug)]
pub struct KernelPort<Req, Resp> {
    req_tx: SyncSender<Req>,
    resp_rx: Receiver<Resp>,
}

impl<Req, Resp> KernelPort<Req, Resp> {
    /// Send `req` to the engine and block until it replies.
    ///
    /// # Errors
    ///
    /// Returns [`SimAbortedError`] if the engine was dropped, which happens
    /// only when the simulation is being torn down early.
    pub fn call(&self, req: Req) -> Result<Resp, SimAbortedError> {
        self.req_tx.send(req).map_err(|_| SimAbortedError)?;
        self.resp_rx.recv().map_err(|_| SimAbortedError)
    }
}

/// The request/response slot a task shares with its host.
struct Slot<Req, Resp> {
    request: Option<Req>,
    response: Option<Resp>,
}

type SharedSlot<Req, Resp> = Rc<RefCell<Slot<Req, Resp>>>;

/// The task kernel's endpoint: each [`TaskPort::call`] is one engine
/// operation.
pub struct TaskPort<Req, Resp> {
    slot: SharedSlot<Req, Resp>,
}

impl<Req, Resp> fmt::Debug for TaskPort<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskPort").finish_non_exhaustive()
    }
}

impl<Req, Resp> TaskPort<Req, Resp> {
    /// Leave `req` for the engine, yield to it, and return its reply.
    ///
    /// # Panics
    ///
    /// Panics if the task already left a request the engine has not
    /// taken: a task awaits one operation at a time, as a thread kernel
    /// blocks on one.
    pub async fn call(&self, req: Req) -> Resp {
        let pending = self.slot.borrow_mut().request.replace(req);
        assert!(pending.is_none(), "a task issued a second request before the first");
        YieldOnce(false).await;
        self.slot.borrow_mut().response.take().expect("the engine replies before it resumes a task")
    }
}

/// A future that is `Pending` on its first poll and ready on the next:
/// the point where a task hands control back to its host.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

/// Result of [`KernelHost::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched<Req> {
    /// The kernel issued a request and is now waiting for the reply.
    Request(Req),
    /// The kernel function returned; no more requests will arrive.
    Finished,
}

/// A task kernel: the boxed future its host polls.
type TaskFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// What runs the kernel.
enum Backing<Req, Resp> {
    /// A future polled in place; `None` once it returned or panicked.
    Task { future: Option<TaskFuture>, slot: SharedSlot<Req, Resp> },
    /// An OS thread behind two rendezvous channels.
    Thread { req_rx: Receiver<Req>, resp_tx: SyncSender<Resp>, join: Option<JoinHandle<()>> },
}

/// The engine-side endpoint owning one kernel.
pub struct KernelHost<Req, Resp> {
    name: String,
    backing: Backing<Req, Resp>,
    finished: bool,
    panicked: bool,
}

impl<Req, Resp> fmt::Debug for KernelHost<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.backing {
            Backing::Task { .. } => "task",
            Backing::Thread { .. } => "thread",
        };
        f.debug_struct("KernelHost")
            .field("name", &self.name)
            .field("kind", &kind)
            .field("finished", &self.finished)
            .finish()
    }
}

impl<Req: Send + 'static, Resp: Send + 'static> KernelHost<Req, Resp> {
    /// Spawn `kernel` on a dedicated thread and return the engine-side host.
    ///
    /// The kernel receives a [`KernelPort`] for issuing requests. Any panic
    /// inside the kernel is confined to its thread and surfaces as
    /// [`Fetched::Finished`] plus a `true` return from
    /// [`KernelHost::join`].
    pub fn spawn<F>(name: &str, kernel: F) -> Self
    where
        F: FnOnce(KernelPort<Req, Resp>) + Send + 'static,
    {
        // Capacity 1 each way: the protocol is strictly half-duplex, so a
        // single slot is enough and keeps misuse loud (a second unanswered
        // request would deadlock the offending kernel, not corrupt state).
        let (req_tx, req_rx) = sync_channel(1);
        let (resp_tx, resp_rx) = sync_channel(1);
        let port = KernelPort { req_tx, resp_rx };
        let join = std::thread::Builder::new()
            .name(format!("medea-kernel-{name}"))
            .spawn(move || kernel(port))
            .expect("spawning kernel thread");
        KernelHost {
            name: name.to_string(),
            backing: Backing::Thread { req_rx, resp_tx, join: Some(join) },
            finished: false,
            panicked: false,
        }
    }

    /// Host `kernel` as a task: `kernel` receives a [`TaskPort`] and
    /// returns the future the engine polls. Nothing of the kernel runs
    /// before the first [`KernelHost::fetch`]. A panic inside the future
    /// surfaces as [`Fetched::Finished`] plus a `true` return from
    /// [`KernelHost::join`], as a thread kernel's does.
    pub fn task<F, Fut>(name: &str, kernel: F) -> Self
    where
        F: FnOnce(TaskPort<Req, Resp>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let slot = Rc::new(RefCell::new(Slot { request: None, response: None }));
        let future = Box::pin(kernel(TaskPort { slot: Rc::clone(&slot) }));
        KernelHost {
            name: name.to_string(),
            backing: Backing::Task { future: Some(future), slot },
            finished: false,
            panicked: false,
        }
    }

    /// Resume the kernel until its next request (or its termination).
    ///
    /// For a thread kernel this blocks, soundly: the kernel is either about
    /// to send (pure host-time computation) or has returned, so the wait is
    /// bounded by real compute time, never by simulated time. For a task it
    /// polls the future once.
    ///
    /// # Panics
    ///
    /// Panics if a task returns `Pending` without leaving a request: it
    /// awaited something that is not an engine operation.
    pub fn fetch(&mut self) -> Fetched<Req> {
        if self.finished {
            return Fetched::Finished;
        }
        match &mut self.backing {
            Backing::Task { future, slot } => {
                let running = future.as_mut().expect("an unfinished task has its future");
                let mut cx = Context::from_waker(Waker::noop());
                match catch_unwind(AssertUnwindSafe(|| running.as_mut().poll(&mut cx))) {
                    Ok(Poll::Pending) => match slot.borrow_mut().request.take() {
                        Some(req) => return Fetched::Request(req),
                        None => panic!(
                            "kernel on {} is pending without a request: it awaited something \
                             that is not a PE operation",
                            self.name
                        ),
                    },
                    Ok(Poll::Ready(())) => {}
                    Err(_) => self.panicked = true,
                }
                *future = None;
            }
            Backing::Thread { req_rx, .. } => {
                if let Ok(req) = req_rx.recv() {
                    return Fetched::Request(req);
                }
            }
        }
        self.finished = true;
        Fetched::Finished
    }

    /// Answer the kernel's outstanding request, unblocking it.
    ///
    /// A reply sent after a thread kernel exited (possible during teardown)
    /// is silently dropped.
    pub fn reply(&mut self, resp: Resp) {
        match &mut self.backing {
            Backing::Task { slot, .. } => slot.borrow_mut().response = Some(resp),
            Backing::Thread { resp_tx, .. } => {
                let _ = resp_tx.send(resp);
            }
        }
    }

    /// Whether the kernel function has returned (observed via `fetch`).
    pub const fn is_finished(&self) -> bool {
        self.finished
    }

    /// Reap the kernel, returning `true` if it panicked.
    ///
    /// A thread kernel must only be joined once it is unblocked (finished,
    /// or the channels have been dropped).
    pub fn join(&mut self) -> bool {
        match &mut self.backing {
            Backing::Task { .. } => self.panicked,
            Backing::Thread { join, .. } => match join.take() {
                Some(handle) => handle.join().is_err(),
                None => false,
            },
        }
    }
}

impl<Req, Resp> Drop for KernelHost<Req, Resp> {
    fn drop(&mut self) {
        // A task's future is simply dropped with the host. A thread kernel
        // blocked in `call` is woken by dropping our channel ends first,
        // then reaped so tests never leak.
        if let Backing::Thread { req_rx, resp_tx, join } = &mut self.backing {
            let (dead_tx, _) = sync_channel::<Resp>(1);
            *resp_tx = dead_tx;
            let (_, dead_rx) = sync_channel::<Req>(1);
            *req_rx = dead_rx;
            if let Some(handle) = join.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |port| {
            let doubled = port.call(21).unwrap();
            assert_eq!(doubled, 42);
        });
        match host.fetch() {
            Fetched::Request(v) => {
                assert_eq!(v, 21);
                host.reply(v * 2);
            }
            Fetched::Finished => panic!("expected a request"),
        }
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(!host.join());
    }

    #[test]
    fn finished_kernel_reports_finished() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |_port| {});
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.is_finished());
    }

    #[test]
    fn many_roundtrips_stay_ordered() {
        let mut host: KernelHost<u64, u64> = KernelHost::spawn("t", |port| {
            for i in 0..100u64 {
                assert_eq!(port.call(i).unwrap(), i + 1);
            }
        });
        while let Fetched::Request(v) = host.fetch() {
            host.reply(v + 1);
        }
        assert!(!host.join());
    }

    #[test]
    fn drop_unblocks_running_kernel() {
        let host: KernelHost<u32, u32> = KernelHost::spawn("t", |port| {
            // The engine never replies; the kernel must observe the abort
            // rather than hang.
            assert_eq!(port.call(1), Err(SimAbortedError));
        });
        drop(host); // must not deadlock
    }

    #[test]
    fn kernel_panic_is_contained() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |_port| {
            panic!("kernel bug");
        });
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.join(), "join must report the panic");
    }

    #[test]
    fn task_roundtrips_stay_ordered() {
        let mut host: KernelHost<u64, u64> = KernelHost::task("t", |port| async move {
            for i in 0..100u64 {
                assert_eq!(port.call(i).await, i + 1);
            }
        });
        let mut served = 0;
        while let Fetched::Request(v) = host.fetch() {
            host.reply(v + 1);
            served += 1;
        }
        assert_eq!(served, 100);
        assert!(host.is_finished());
        assert!(!host.join());
    }

    #[test]
    fn task_runs_nothing_before_the_first_fetch() {
        let started = Rc::new(std::cell::Cell::new(false));
        let flag = Rc::clone(&started);
        let mut host: KernelHost<u32, u32> = KernelHost::task("t", |_port| async move {
            flag.set(true);
        });
        assert!(!started.get());
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(started.get());
    }

    #[test]
    fn task_panic_is_contained() {
        let mut host: KernelHost<u32, u32> = KernelHost::task("t", |port| async move {
            let _ = port.call(1).await;
            panic!("kernel bug");
        });
        assert_eq!(host.fetch(), Fetched::Request(1));
        host.reply(0);
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.join(), "join must report the panic");
        assert_eq!(host.fetch(), Fetched::Finished, "a finished task stays finished");
    }

    #[test]
    fn task_issuing_two_requests_at_once_panics() {
        // Two operations polled side by side in one poll: the second
        // would overwrite the first's request.
        let mut host: KernelHost<u32, u32> = KernelHost::task("t", |port| async move {
            let mut a = std::pin::pin!(port.call(1));
            let mut b = std::pin::pin!(port.call(2));
            let mut cx = Context::from_waker(Waker::noop());
            let _ = a.as_mut().poll(&mut cx);
            let _ = b.as_mut().poll(&mut cx);
        });
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.join(), "the second request must panic the task");
    }

    #[test]
    #[should_panic(expected = "kernel on stray is pending without a request")]
    fn task_pending_without_a_request_fails_loudly() {
        let mut host: KernelHost<u32, u32> =
            KernelHost::task("stray", |_port| std::future::pending::<()>());
        let _ = host.fetch();
    }
}
