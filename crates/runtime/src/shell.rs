//! The runtime shell: everything a threaded runtime does around
//! dependency resolution, written once over a sealed [`Resolver`] (see
//! the crate docs for the two resolvers and the split between them).

use crate::region::{ReadGuard, Region, RegionId, WriteGuard};
use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use nexuspp_core::{Priority, Submission, SubmitError};
use nexuspp_obs::{Collector, EventKind, MetricsRegistry, Recorder, NO_SHARD};
use nexuspp_sched::{SchedCounts, Scheduler, SchedulerKind, WorkerHandle};
use nexuspp_trace::normalize::normalize_params;
use nexuspp_trace::{AccessMode, Param};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A task body as the shell stores it until it runs.
pub type Job = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;
/// Access grants attached to a task (region, declared mode).
pub type Grants = Arc<Vec<(RegionId, AccessMode)>>;

/// A task's payload: what runs once its resolver declares it ready.
pub struct Work {
    grants: Grants,
    job: Job,
    /// Scheduling class once ready; resolvers hand it back with every
    /// wake so the scheduler can order the burst.
    pub(crate) prio: Priority,
}

impl Work {
    fn new(params: &[Param], job: Job, prio: Priority) -> Work {
        // Grants mirror the normalized (merged-mode) parameter list.
        let grants = Arc::new(params.iter().map(|p| (RegionId(p.addr), p.mode)).collect());
        Work { grants, job, prio }
    }
}

/// How a [`Shell`] resolves dependencies — the only part that differs
/// between [`Runtime`](crate::Runtime) (one locked
/// [`DependencyEngine`](nexuspp_core::DependencyEngine), the centralized
/// Task Maestro) and [`ShardedRuntime`](crate::ShardedRuntime) (a
/// per-shard-locked [`ShardDispatcher`](nexuspp_shard::ShardDispatcher)).
/// Sealed: [`SingleEngine`](crate::runtime::SingleEngine) and
/// [`ShardedDispatch`](crate::sharded::ShardedDispatch) are its two
/// implementations.
pub trait Resolver: Resolve {}

impl<R: Resolve> Resolver for R {}

/// A ready task as the scheduler carries it: the resolver's finish
/// handle plus the payload.
pub type Ready<R> = (<R as Resolve>::Ticket, Work);
/// A rejected submission's error, with the submission handed back.
pub type Rejected = (SubmitError, PendingSpawn);

/// The resolver contract behind [`Resolver`]; unnameable outside this
/// crate, which is what seals it.
pub trait Resolve: Send + Sync + Sized + 'static {
    /// What the resolver needs back to retire a task.
    type Ticket: Send + 'static;
    /// Worker-thread name prefix.
    const WORKER_NAME: &'static str;

    /// The caller-visible task identity behind `ticket`.
    fn tag(ticket: &Self::Ticket) -> u64;

    /// Admit a task and check its dependencies; the ready unit comes
    /// back if nothing blocks it, otherwise the resolver parks it
    /// until a [`finish`](Self::finish) wakes it.
    fn submit(&self, fptr: u64, tag: u64, params: Vec<Param>, work: Work) -> Option<Ready<Self>>;

    /// Non-blocking [`submit`](Self::submit): a rejection hands the
    /// submission back untouched.
    fn try_submit(&self, p: PendingSpawn) -> Result<Option<Ready<Self>>, Rejected>;

    /// Retire a task that ran (or was cancelled): the wakes to
    /// schedule, and how many tasks — possibly other finishers',
    /// drained on their behalf — fully retired.
    fn finish(&self, ticket: Self::Ticket) -> (Vec<(Ready<Self>, Priority)>, u64);

    /// Register the resolver's own metric groups; `get` projects the
    /// registry's shared owner to the resolver.
    fn register_metrics<S: Send + Sync + 'static>(
        _reg: &MetricsRegistry,
        _owner: &Arc<S>,
        _get: fn(&S) -> &Self,
    ) {
    }
}

/// What an explicit [`Shell::shutdown`] hands back: whether the drain
/// stayed graceful, and the executed/cancelled split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// `true` if every task ran to completion within the deadline;
    /// `false` if the hard-deadline abort path cancel-finished queued
    /// tasks.
    pub graceful: bool,
    /// Tasks whose bodies ran (including panicking ones).
    pub executed: u64,
    /// Tasks cancel-finished without running (abort path only).
    pub cancelled: u64,
}

/// A submission rejected by
/// [`try_spawn_lowered`](Shell::try_spawn_lowered), handed back intact
/// (closure included) for resubmission once the retryable condition
/// clears. Opaque: the closure cannot be recovered, only resubmitted via
/// [`try_respawn`](Shell::try_respawn).
pub struct PendingSpawn {
    pub(crate) fptr: u64,
    pub(crate) tag: u64,
    pub(crate) params: Vec<Param>,
    pub(crate) work: Work,
}

impl PendingSpawn {
    /// The caller tag of the rejected submission.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

struct Inner<R: Resolver> {
    resolver: R,
    sched: Scheduler<Ready<R>>,
    /// Tag counter; atomic so submissions don't serialize on a lock.
    submitted: AtomicU64,
    /// Tasks spawned and not yet fully retired. This lock pairs with the
    /// `quiescent` condvar, so it cannot be an atomic.
    pending: Mutex<u64>,
    quiescent: Condvar,
    /// First task panic observed (re-raised at the next barrier).
    panicked: Mutex<Option<String>>,
    /// Hard-deadline shutdown flag: once set, ready tasks cancel-finish
    /// (their bodies are dropped unexecuted but they still retire
    /// through the resolver, so the graph drains and `pending` reaches
    /// zero).
    aborting: AtomicBool,
    /// Tasks whose bodies ran (including panicking ones).
    executed: AtomicU64,
    /// Tasks cancel-finished by a hard-deadline shutdown.
    cancelled: AtomicU64,
    /// Lifecycle-event recorder for the exec phase; the resolver holds
    /// its own clone for the resolution/wake phases. `None` when the
    /// runtime was built without one.
    obs: Option<Arc<Recorder>>,
}

impl<R: Resolver> Inner<R> {
    #[inline]
    fn emit(&self, kind: EventKind, ticket: &R::Ticket) {
        if let Some(r) = &self.obs {
            r.emit(kind, R::tag(ticket), NO_SHARD);
        }
    }

    /// Drop `completed` retired tasks from the pending count, waking
    /// quiescence waiters when it reaches zero.
    fn retire(&self, completed: u64) {
        if completed > 0 {
            let mut p = self.pending.lock();
            *p -= completed;
            if *p == 0 {
                self.quiescent.notify_all();
            }
        }
    }

    /// Block until no spawned task is left unretired.
    fn quiesce(&self) {
        let mut p = self.pending.lock();
        while *p > 0 {
            self.quiescent.wait(&mut p);
        }
    }

    /// Run (or, when aborting, cancel) one ready task and retire it.
    /// Shared by the worker loop and scheduler-aware waiters (`h ==
    /// None` — wakes then go through the external scheduling path).
    fn execute(&self, (ticket, work): Ready<R>, h: Option<&WorkerHandle<Ready<R>>>) {
        if self.aborting.load(Ordering::SeqCst) {
            // Hard-deadline shutdown: drop the body unexecuted (releasing
            // its captures — e.g. a wait_on probe's sender, which is how
            // parked waiters learn the runtime is gone) but still retire
            // the task below so the graph drains.
            drop(work.job);
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            let ctx = TaskCtx {
                grants: work.grants,
            };
            self.emit(EventKind::ExecStart, &ticket);
            // Keep the runtime's bookkeeping sound even when a task
            // panics: record the payload, finish the task, re-raise at
            // the next barrier.
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (work.job)(&ctx)));
            if let Err(payload) = result {
                self.panicked.lock().get_or_insert(panic_msg(&*payload));
            }
            self.emit(EventKind::ExecDone, &ticket);
            self.executed.fetch_add(1, Ordering::Relaxed);
        }
        // The whole wake set — which may include tasks drained on behalf
        // of other finishers — is delivered as one batched scheduling
        // operation: under the mutex queue one lock acquisition and one
        // `Wake(n)` token; under work stealing the burst lands on the
        // finishing worker's own deque and idle workers steal it out.
        let (woken, completed) = self.resolver.finish(ticket);
        match h {
            Some(h) => self.sched.wake_batch(h, woken),
            None => self.sched.wake_batch_external(woken),
        }
        self.retire(completed);
    }
}

/// Render a caught task-panic payload for barrier re-raising.
fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Execution context handed to every task closure. Grants access to the
/// regions the task declared, in the declared modes.
pub struct TaskCtx {
    grants: Grants,
}

impl TaskCtx {
    fn mode_of(&self, id: RegionId) -> Option<AccessMode> {
        self.grants.iter().find(|(g, _)| *g == id).map(|(_, m)| *m)
    }

    /// Read a region declared `input` (or `inout`).
    pub fn read<'r, T>(&self, region: &'r Region<T>) -> ReadGuard<'r, T> {
        match self.mode_of(region.id()) {
            Some(m) if m.reads() => region.begin_read(),
            Some(_) => panic!("region {:?} declared write-only; use write()", region.id()),
            None => panic!("undeclared access to region {:?}", region.id()),
        }
    }

    /// Write a region declared `output` or `inout`.
    pub fn write<'r, T>(&self, region: &'r Region<T>) -> WriteGuard<'r, T> {
        match self.mode_of(region.id()) {
            Some(m) if m.writes() => region.begin_write(),
            Some(_) => panic!("region {:?} declared read-only; use read()", region.id()),
            None => panic!("undeclared access to region {:?}", region.id()),
        }
    }
}

/// Declarative task builder (the embedded-DSL equivalent of a
/// `#pragma css task input(...) output(...) inout(...)` annotation).
pub struct ShellTaskBuilder<'rt, R: Resolver> {
    rt: &'rt Shell<R>,
    accesses: Vec<(RegionId, AccessMode)>,
    high_priority: bool,
}

impl<'rt, R: Resolver> ShellTaskBuilder<'rt, R> {
    /// Declare a read-only parameter.
    pub fn input<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::In));
        self
    }

    /// Declare a write-only parameter.
    pub fn output<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::Out));
        self
    }

    /// Declare a read-write parameter.
    pub fn inout<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::InOut));
        self
    }

    /// Mark the task high priority (the StarSs `highpriority` clause):
    /// once ready, it overtakes queued normal-priority tasks.
    pub fn high_priority(mut self) -> Self {
        self.high_priority = true;
        self
    }

    /// Submit the task. It runs as soon as its dependencies allow. Under
    /// a bounded [`ShardCapacity`](crate::ShardCapacity) this blocks
    /// while any involved shard is full, resuming on that shard's next
    /// finish report.
    pub fn spawn(self, f: impl FnOnce(&TaskCtx) + Send + 'static) {
        let params: Vec<Param> = self
            .accesses
            .iter()
            .map(|(id, m)| Param::new(id.0, 1, *m))
            .collect();
        let params = normalize_params(&params);
        let tag = self.rt.inner.submitted.fetch_add(1, Ordering::Relaxed) + 1;
        let prio = Priority::from_high_flag(self.high_priority);
        self.rt.submit(0, tag, params, Box::new(f), prio);
    }
}

/// The StarSs-like task dataflow runtime, generic over how it resolves
/// dependencies. Use it through the [`Runtime`](crate::Runtime) and
/// [`ShardedRuntime`](crate::ShardedRuntime) aliases.
pub struct Shell<R: Resolver> {
    inner: Arc<Inner<R>>,
    /// Behind a mutex so [`shutdown`](Self::shutdown) can join through
    /// `&self` (services share the runtime in an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<R: Resolver> Shell<R> {
    /// The one constructor every public one delegates to: `n` workers
    /// scheduling through `kind`, stamping lifecycle events into `obs`
    /// if given, resolving through the resolver `make` builds (handed
    /// the recorder too, for its own events).
    pub(crate) fn build(
        n: usize,
        kind: SchedulerKind,
        obs: Option<Arc<Recorder>>,
        make: impl FnOnce(Option<&Arc<Recorder>>) -> R,
    ) -> Self {
        // n == 0 is allowed: no worker threads are spawned and every
        // task executes inside a scheduler-aware waiter (`wait_on`).
        let (mut sched, handles) = Scheduler::new(kind, n);
        if let Some(rec) = &obs {
            sched.set_recorder(Arc::clone(rec), |r: &Ready<R>| R::tag(&r.0));
        }
        let inner = Arc::new(Inner {
            resolver: make(obs.as_ref()),
            sched,
            submitted: AtomicU64::new(0),
            pending: Mutex::new(0),
            quiescent: Condvar::new(),
            panicked: Mutex::new(None),
            aborting: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            obs,
        });
        let workers = handles
            .into_iter()
            .map(|h| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{}-{}", R::WORKER_NAME, h.id()))
                    .spawn(move || worker_loop(&inner, &h))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Shell {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Attach this runtime's [`metrics`](Self::metrics) to `collector`
    /// for periodic sampling (the `with_observer` constructors).
    pub(crate) fn observed(self, collector: &Collector) -> Self {
        collector.attach_registry(Arc::new(self.metrics()));
        self
    }

    /// The resolver this runtime submits through.
    pub(crate) fn resolver(&self) -> &R {
        &self.inner.resolver
    }

    /// Which ready-task scheduler this runtime drives.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.inner.sched.kind()
    }

    /// Scheduler activity counters (steals, parks, …; exact once
    /// quiescent — call after [`barrier`](Self::barrier)).
    pub fn sched_counts(&self) -> SchedCounts {
        self.inner.sched.counts()
    }

    /// The lifecycle-event recorder this runtime stamps into, if built
    /// with one (`with_recorder` or `with_observer`).
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.inner.obs.as_ref()
    }

    /// Build a [`MetricsRegistry`] over every counter surface this
    /// runtime exposes: task accounting (`tasks`), scheduler activity
    /// (`sched`), the resolver's own groups (the sharded runtime adds
    /// wake-path counters, `wake`, and capacity stall/retry totals
    /// including parked time, `capacity`), and — when a recorder is
    /// attached — event-ring accounting (`events`). Snapshots are exact
    /// at quiescence.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let inner = Arc::clone(&self.inner);
        reg.register("tasks", move || {
            vec![
                ("submitted".into(), inner.submitted.load(Ordering::Relaxed)),
                ("pending".into(), *inner.pending.lock()),
                ("executed".into(), inner.executed.load(Ordering::Relaxed)),
                ("cancelled".into(), inner.cancelled.load(Ordering::Relaxed)),
            ]
        });
        let inner = Arc::clone(&self.inner);
        reg.register("sched", move || sched_counters(&inner.sched.counts()));
        R::register_metrics(&reg, &self.inner, |i: &Inner<R>| &i.resolver);
        if let Some(rec) = &self.inner.obs {
            let rec = Arc::clone(rec);
            reg.register("events", move || {
                vec![
                    ("recorded".into(), rec.recorded()),
                    ("dropped".into(), rec.dropped()),
                ]
            });
        }
        reg
    }

    /// Allocate a data region managed by this runtime.
    pub fn region<T>(&self, data: Vec<T>) -> Region<T> {
        Region::new(data)
    }

    /// Begin declaring a task.
    pub fn task(&self) -> ShellTaskBuilder<'_, R> {
        ShellTaskBuilder {
            rt: self,
            accesses: Vec::new(),
            high_priority: false,
        }
    }

    /// Count a task pending, hand it to the resolver, and schedule it if
    /// it came back ready. A parked task resurfaces in a later finish.
    fn submit(&self, fptr: u64, tag: u64, params: Vec<Param>, job: Job, prio: Priority) {
        let work = Work::new(&params, job, prio);
        *self.inner.pending.lock() += 1;
        if let Some(ready) = self.inner.resolver.submit(fptr, tag, params, work) {
            self.inner.sched.submit(ready, prio);
        }
    }

    /// Submit a pre-addressed task — a [`Submission`] whose parameter
    /// addresses were already assigned, typically by the resource-
    /// versioning frontend's lowering — and run `f` when its declared
    /// dependencies allow. No [`Region`]s are involved: the addresses
    /// *are* the dependence-table keys, so `f` receives no data context.
    /// Capacity semantics match [`spawn`](ShellTaskBuilder::spawn)
    /// (bounded shards block the submitter until a slot frees).
    ///
    /// # Panics
    ///
    /// Panics if the submission fails validation (duplicate parameter
    /// addresses) — [`TaskBuilder`](nexuspp_core::TaskBuilder)-built
    /// submissions are always valid.
    pub fn spawn_lowered(&self, sub: Submission, f: impl FnOnce() + Send + 'static) {
        sub.validate().expect("invalid lowered submission");
        let prio = sub.priority;
        let (fptr, tag, params) = sub.into_parts();
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.submit(fptr, tag, params, Box::new(move |_ctx| f()), prio);
    }

    /// Non-blocking form of [`spawn_lowered`](Self::spawn_lowered): a
    /// submission whose shards are at their
    /// [`ShardCapacity`](crate::ShardCapacity) bound is handed back as a
    /// [`PendingSpawn`] with a retryable [`SubmitError`] instead of
    /// parking the submitting thread — the backpressure primitive
    /// service ingress layers signal to remote clients. Resubmit the
    /// returned [`PendingSpawn`] with [`try_respawn`](Self::try_respawn)
    /// after a finish frees slots. Validation failures (duplicate
    /// addresses) surface the same way with a non-retryable error.
    pub fn try_spawn_lowered(
        &self,
        sub: Submission,
        f: impl FnOnce() + Send + 'static,
    ) -> Result<(), (SubmitError, PendingSpawn)> {
        let prio = sub.priority;
        let (fptr, tag, params) = sub.into_parts();
        let work = Work::new(&params, Box::new(move |_ctx| f()), prio);
        self.try_respawn(PendingSpawn {
            fptr,
            tag,
            params,
            work,
        })
    }

    /// Resubmit a spawn previously rejected by
    /// [`try_spawn_lowered`](Self::try_spawn_lowered).
    pub fn try_respawn(&self, p: PendingSpawn) -> Result<(), (SubmitError, PendingSpawn)> {
        let prio = p.work.prio;
        let inner = &self.inner;
        *inner.pending.lock() += 1;
        match inner.resolver.try_submit(p) {
            Ok(ready) => {
                inner.submitted.fetch_add(1, Ordering::Relaxed);
                if let Some(ready) = ready {
                    inner.sched.submit(ready, prio);
                }
                Ok(())
            }
            Err(rejected) => {
                // Roll the optimistic pending increment back; a barrier
                // waiting concurrently must not count a rejected task.
                inner.retire(1);
                Err(rejected)
            }
        }
    }

    /// Block until every producer of `region` submitted so far has
    /// finished — the StarSs `#pragma css wait on(...)` primitive.
    /// Implemented as a high-priority probe task reading the region;
    /// dependency resolution makes it wait for exactly the outstanding
    /// writers (concurrent readers do not delay it).
    ///
    /// Must be called from outside task context (calling it from within a
    /// task can deadlock if all workers block on waits).
    ///
    /// The waiter is scheduler-aware: instead of blocking on a channel
    /// (starving the pool of one thread), it pops/steals ready tasks
    /// and executes them until its probe completes — a graph completes
    /// even at `workers == 0` with a single waiter. If the runtime is
    /// torn down (hard-deadline shutdown cancels the probe), the wait
    /// returns cleanly instead of panicking.
    pub fn wait_on<T>(&self, region: &Region<T>) {
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        self.task().input(region).high_priority().spawn(move |_| {
            let _ = tx.send(());
        });
        loop {
            match rx.try_recv() {
                Ok(()) => return,
                // Probe dropped unexecuted: the runtime is aborting; its
                // producers will never run, so there is nothing to wait
                // for.
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => {}
            }
            // Help: run one ready task (any task — policy order) rather
            // than sleeping on the probe.
            if let Some(ready) = self.inner.sched.try_next_external() {
                self.inner.execute(ready, None);
            } else {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
        }
    }

    /// Graceful explicit shutdown: drain every in-flight task (running
    /// bodies finish, queued tasks execute), then stop and join the
    /// workers. Equivalent to `drop` but hands back a
    /// [`ShutdownReport`] and is callable through a shared reference
    /// (`Arc<ShardedRuntime>` in service deployments). Does not
    /// re-raise task panics. Submitting after shutdown is a caller
    /// error (tasks would queue forever).
    pub fn shutdown(&self) -> ShutdownReport {
        self.shutdown_inner(None)
    }

    /// Shutdown with a hard deadline: wait up to `deadline` for a
    /// graceful drain; past it, flip the abort flag so every
    /// still-queued task **cancel-finishes** — its body is dropped
    /// unexecuted, but it still retires through the resolver, so
    /// dependents drain (cascading the cancellation) and quiescence is
    /// reached. Bodies already running are never interrupted; the join
    /// still waits for them.
    pub fn shutdown_deadline(&self, deadline: Duration) -> ShutdownReport {
        self.shutdown_inner(Some(deadline))
    }

    fn shutdown_inner(&self, deadline: Option<Duration>) -> ShutdownReport {
        let mut graceful = true;
        if let Some(d) = deadline {
            let until = Instant::now() + d;
            let mut p = self.inner.pending.lock();
            while *p > 0 {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                self.inner.quiescent.wait_for(&mut p, left);
            }
            graceful = *p == 0;
        }
        if !graceful {
            // Every queued task now cancel-finishes; the quiesce below
            // waits out the remaining (already-running) bodies.
            self.inner.aborting.store(true, Ordering::SeqCst);
        }
        self.inner.quiesce();
        self.inner.sched.shutdown();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for w in handles {
            let _ = w.join();
        }
        ShutdownReport {
            graceful,
            executed: self.inner.executed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Wait until every submitted task has finished — the equivalent of
    /// `#pragma css barrier`. If any task panicked since the last
    /// barrier, the panic is re-raised here on the calling thread.
    pub fn barrier(&self) {
        self.inner.quiesce();
        if let Some(msg) = self.inner.panicked.lock().take() {
            panic!("task panicked: {msg}");
        }
    }

    /// Synchronously inspect a region's data (callers should reach
    /// quiescence first via [`barrier`](Self::barrier); concurrent writers
    /// are caught by the region's access checker).
    pub fn with_data<T, U>(&self, region: &Region<T>, f: impl FnOnce(&[T]) -> U) -> U {
        let guard = region.begin_read();
        f(&guard)
    }

    /// Number of tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }
}

/// Flatten a [`SchedCounts`] snapshot into registry rows.
fn sched_counters(c: &SchedCounts) -> Vec<(String, u64)> {
    vec![
        ("submitted".into(), c.submitted),
        ("local_pushes".into(), c.local_pushes),
        ("local_pops".into(), c.local_pops),
        ("injector_pops".into(), c.injector_pops),
        ("high_pops".into(), c.high_pops),
        ("steals".into(), c.steals),
        ("parks".into(), c.parks),
        ("unparks".into(), c.unparks),
        ("wake_batches".into(), c.wake_batches),
        ("dispatched".into(), c.dispatched()),
    ]
}

fn worker_loop<R: Resolver>(inner: &Inner<R>, h: &WorkerHandle<Ready<R>>) {
    Recorder::set_thread_worker(h.id() as u32);
    while let Some(ready) = inner.sched.next(h) {
        inner.execute(ready, Some(h));
    }
}

impl<R: Resolver> Drop for Shell<R> {
    fn drop(&mut self) {
        // Drain in-flight work (without re-raising task panics — Drop
        // must not panic), then stop every worker and join it. A no-op
        // beyond the scheduler flag if an explicit shutdown already ran.
        self.shutdown_inner(None);
    }
}
