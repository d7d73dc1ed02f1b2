//! The sharded runtime: the same [`Shell`] as
//! [`Runtime`](crate::Runtime), with dependency resolution partitioned
//! over N engines behind per-shard locks.
//!
//! [`Runtime`](crate::Runtime) funnels every `submit`/`finish` through a
//! single `Mutex<DependencyEngine>` — the software re-creation of the
//! centralized Task Maestro, and under many workers the dominant
//! serialization point. [`ShardedRuntime`] replaces that global lock with
//! a [`ShardDispatcher`]: workers finishing tasks lock only the shards
//! whose addresses the task actually touched, disjoint completions retire
//! fully in parallel, and the dispatcher's deferred-finish rings let one
//! lock holder drain a burst of queued completions in a single
//! acquisition. Readiness semantics are identical — the dispatcher
//! composes the same `DependencyEngine` the single-lock runtime uses, and
//! the sharded composition is differentially verified against it and the
//! oracle in `nexuspp-shard`.
//!
//! Between the shards and the scheduler sits the dispatcher's wake path
//! (see [`WakeMode`]): under the default lock-free mode a worker never
//! holds a shard lock across wake delivery — ready tasks post to
//! per-shard MPSC wake lists as the lock is released, and the worker
//! drains whatever lists it can claim (its own wakes, plus any a
//! concurrent finisher posted and skipped) straight into `wake_batch`.

use crate::shell::{PendingSpawn, Ready, Rejected, Resolve, Shell, ShellTaskBuilder, Work};
use nexuspp_core::{NexusConfig, Priority, ShardCapacity};
use nexuspp_obs::{MetricsRegistry, Recorder};
use nexuspp_sched::SchedulerKind;
use nexuspp_shard::{CapacityCounts, ShardDispatcher, TaskTicket, WakeCounts, WakeMode};
use nexuspp_trace::Param;
use std::sync::Arc;

/// The StarSs-like runtime over sharded, per-shard-locked resolution.
pub type ShardedRuntime = Shell<ShardedDispatch>;

/// Declarative task builder for [`ShardedRuntime`].
pub type ShardedTaskBuilder<'rt> = ShellTaskBuilder<'rt, ShardedDispatch>;

/// The sharded [`Resolver`](crate::Resolver): a [`ShardDispatcher`]
/// that stamps its own resolution and wake events (with real shard ids).
pub struct ShardedDispatch {
    dispatcher: ShardDispatcher<Work>,
}

impl Resolve for ShardedDispatch {
    type Ticket = TaskTicket<Work>;
    const WORKER_NAME: &'static str = "nexuspp-shard-worker";

    fn tag(ticket: &Self::Ticket) -> u64 {
        ticket.tag()
    }

    fn submit(&self, fptr: u64, tag: u64, params: Vec<Param>, work: Work) -> Option<Ready<Self>> {
        let res = self.dispatcher.submit(fptr, tag, &params, work);
        res.ready.map(|work| (res.ticket, work))
    }

    fn try_submit(&self, p: PendingSpawn) -> Result<Option<Ready<Self>>, Rejected> {
        match self.dispatcher.try_submit(p.fptr, p.tag, &p.params, p.work) {
            Ok(res) => Ok(res.ready.map(|work| (res.ticket, work))),
            Err((e, work)) => Err((e, PendingSpawn { work, ..p })),
        }
    }

    fn finish(&self, ticket: Self::Ticket) -> (Vec<(Ready<Self>, Priority)>, u64) {
        // Only the shards this task touched are locked (for table access;
        // wake delivery runs outside the locks under WakeMode::LockFree),
        // and the report may carry wakes and completions drained on
        // behalf of other workers.
        let report = self.dispatcher.finish(ticket);
        let woken = report
            .woken
            .into_iter()
            .map(|(ticket, work)| {
                let prio = work.prio;
                ((ticket, work), prio)
            })
            .collect();
        (woken, report.completed)
    }

    fn register_metrics<S: Send + Sync + 'static>(
        reg: &MetricsRegistry,
        owner: &Arc<S>,
        get: fn(&S) -> &Self,
    ) {
        let o = Arc::clone(owner);
        reg.register("wake", move || {
            let w = get(&o).dispatcher.wake_counts();
            vec![
                ("delivered".into(), w.delivered),
                ("deliveries".into(), w.deliveries),
                ("delivery_ns".into(), w.delivery_ns),
                (
                    "delivery_lock_acquisitions".into(),
                    w.delivery_lock_acquisitions,
                ),
            ]
        });
        let o = Arc::clone(owner);
        reg.register("capacity", move || {
            let per_shard = get(&o).dispatcher.capacity_counts();
            let mut stalls = 0;
            let mut retries = 0;
            let mut stall_ns = 0;
            let mut resident = 0u64;
            for c in &per_shard {
                stalls += c.stalls_observed;
                retries += c.retries_resolved;
                stall_ns += c.stall_ns;
                resident += c.resident as u64;
            }
            vec![
                ("stalls_observed".into(), stalls),
                ("retries_resolved".into(), retries),
                ("stall_ns".into(), stall_ns),
                ("resident".into(), resident),
            ]
        });
    }
}

impl ShardedRuntime {
    /// Start a runtime with `n` worker threads resolving dependencies
    /// across `shards` engines, scheduling through the default
    /// (work-stealing) scheduler.
    pub fn new(n: usize, shards: usize) -> Self {
        ShardedRuntime::with_scheduler(n, shards, SchedulerKind::default())
    }

    /// Start a runtime with an explicit ready-task scheduler kind.
    pub fn with_scheduler(n: usize, shards: usize, kind: SchedulerKind) -> Self {
        ShardedRuntime::with_options(
            n,
            shards,
            kind,
            ShardCapacity::Unbounded,
            WakeMode::default(),
        )
    }

    /// Start a bounded runtime (default scheduler): each shard holds at
    /// most `capacity` resident tasks. A `spawn` whose shards are full
    /// **blocks the submitting thread** until the workers' finish reports
    /// free a slot — the software form of the paper's master-core stall —
    /// so spawn tasks in dependency order (producers first), which the
    /// builder API yields naturally from a single submitting thread.
    pub fn with_capacity(n: usize, shards: usize, capacity: ShardCapacity) -> Self {
        ShardedRuntime::with_options(
            n,
            shards,
            SchedulerKind::default(),
            capacity,
            WakeMode::default(),
        )
    }

    /// Start a runtime with every knob explicit, including how finish
    /// reports deliver wakes out of the shards ([`WakeMode`]: lock-free
    /// wake lists by default, the locked kick-off baseline selectable
    /// for comparison).
    pub fn with_options(
        n: usize,
        shards: usize,
        kind: SchedulerKind,
        capacity: ShardCapacity,
        wake_mode: WakeMode,
    ) -> Self {
        Shell::build(n, kind, None, dispatch(shards, capacity, wake_mode))
    }

    /// Start a runtime (every knob explicit) that records lifecycle
    /// events into `rec`: the dispatcher stamps the resolution and wake
    /// phases (with real shard ids), the scheduler stamps steals and
    /// idle parks, and the workers stamp the exec phase. Drain with
    /// [`nexuspp_obs::Recorder::drain`] after a
    /// [`barrier`](Self::barrier) for a causally ordered stream.
    pub fn with_recorder(
        n: usize,
        shards: usize,
        kind: SchedulerKind,
        capacity: ShardCapacity,
        wake_mode: WakeMode,
        rec: Arc<Recorder>,
    ) -> Self {
        Shell::build(n, kind, Some(rec), dispatch(shards, capacity, wake_mode))
    }

    /// Start a runtime (every knob explicit) observed *online* by
    /// `collector` ([`nexuspp_obs::Collector`]): lifecycle events
    /// stream into the collector's recorder — its background thread
    /// keeps a live [`nexuspp_obs::GraphTracker`] current while tasks
    /// are in flight — and this runtime's [`metrics`](Self::metrics)
    /// registry is attached for periodic sampling. The wake path keeps
    /// its lock-freedom guarantee with the collector attached
    /// (producers only CAS into their event lanes; the collector only
    /// drains the consumer side). Call
    /// [`Collector::finish`](nexuspp_obs::Collector::finish) after the
    /// runtime joins for the complete final state.
    pub fn with_observer(
        n: usize,
        shards: usize,
        kind: SchedulerKind,
        capacity: ShardCapacity,
        wake_mode: WakeMode,
        collector: &nexuspp_obs::Collector,
    ) -> Self {
        ShardedRuntime::with_recorder(n, shards, kind, capacity, wake_mode, collector.recorder())
            .observed(collector)
    }

    /// Number of shards resolution is partitioned over.
    pub fn n_shards(&self) -> usize {
        self.resolver().dispatcher.n_shards()
    }

    /// The per-shard residency bound this runtime submits under.
    pub fn capacity(&self) -> ShardCapacity {
        self.resolver().dispatcher.capacity()
    }

    /// Per-shard stall/retry counters (exact once quiescent — call after
    /// [`barrier`](Self::barrier)).
    pub fn capacity_counts(&self) -> Vec<CapacityCounts> {
        self.resolver().dispatcher.capacity_counts()
    }

    /// How this runtime's workers deliver wakes out of the shards.
    pub fn wake_mode(&self) -> WakeMode {
        self.resolver().dispatcher.wake_mode()
    }

    /// Wake-path activity counters — records delivered, drain attempts,
    /// time in the drain step, and the shard-lock acquisitions it
    /// performed (zero under [`WakeMode::LockFree`]). Exact once
    /// quiescent — call after [`barrier`](Self::barrier).
    pub fn wake_counts(&self) -> WakeCounts {
        self.resolver().dispatcher.wake_counts()
    }
}

/// The resolver maker for [`Shell::build`]: a dispatcher over `shards`
/// engines that records into the runtime's recorder, if it has one.
fn dispatch(
    shards: usize,
    capacity: ShardCapacity,
    wake_mode: WakeMode,
) -> impl FnOnce(Option<&Arc<Recorder>>) -> ShardedDispatch {
    move |obs| {
        let dispatcher =
            ShardDispatcher::with_mode(shards, &NexusConfig::unbounded(), capacity, wake_mode);
        ShardedDispatch {
            dispatcher: match obs {
                Some(rec) => dispatcher.with_recorder(Arc::clone(rec)),
                None => dispatcher,
            },
        }
    }
}
