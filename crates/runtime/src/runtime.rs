//! The single-engine runtime: the [`Shell`] over one locked
//! [`DependencyEngine`] — the software re-creation of the centralized
//! Task Maestro.
//!
//! Every submit and finish takes the same lock, so the resolution and
//! wake events [`SingleEngine`] stamps under it are totally ordered with
//! everything that observes them.

use crate::shell::{PendingSpawn, Ready, Rejected, Resolve, Shell, ShellTaskBuilder, Work};
use nexuspp_core::pool::TdIndex;
use nexuspp_core::{DependencyEngine, NexusConfig, Priority, Submission, TenantId};
use nexuspp_obs::{EventKind, Recorder, NO_SHARD};
use nexuspp_sched::SchedulerKind;
use nexuspp_trace::Param;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The StarSs-like runtime over one locked dependency engine.
pub type Runtime = Shell<SingleEngine>;

/// Declarative task builder for [`Runtime`].
pub type TaskBuilder<'rt> = ShellTaskBuilder<'rt, SingleEngine>;

/// The single-engine [`Resolver`](crate::Resolver): a growable
/// [`DependencyEngine`] and the tasks parked on it, behind one mutex.
pub struct SingleEngine {
    state: Mutex<EngineState>,
    /// Lifecycle-event recorder for the resolution/wake phases.
    obs: Option<Arc<Recorder>>,
}

struct EngineState {
    engine: DependencyEngine,
    /// Tasks waiting on a producer, keyed by descriptor slot.
    parked: HashMap<u32, Ready<SingleEngine>>,
}

impl SingleEngine {
    fn new(obs: Option<&Arc<Recorder>>) -> Self {
        SingleEngine {
            state: Mutex::new(EngineState {
                engine: DependencyEngine::new(&NexusConfig::unbounded()),
                parked: HashMap::new(),
            }),
            obs: obs.cloned(),
        }
    }

    #[inline]
    fn emit(&self, kind: EventKind, task: u64) {
        if let Some(r) = &self.obs {
            r.emit(kind, task, NO_SHARD);
        }
    }

    #[inline]
    fn emit_edge(&self, kind: EventKind, task: u64, aux: u64) {
        if let Some(r) = &self.obs {
            r.emit_edge(kind, task, aux, NO_SHARD);
        }
    }
}

impl Resolve for SingleEngine {
    /// The task's descriptor slot and its caller tag.
    type Ticket = (TdIndex, u64);
    const WORKER_NAME: &'static str = "nexuspp-worker";

    fn tag(ticket: &Self::Ticket) -> u64 {
        ticket.1
    }

    fn submit(&self, fptr: u64, tag: u64, params: Vec<Param>, work: Work) -> Option<Ready<Self>> {
        let mut st = self.state.lock();
        self.emit(EventKind::Submitted, tag);
        self.emit(EventKind::DepCheckStart, tag);
        let (td, ready) = st
            .engine
            .submit(fptr, tag, params)
            .expect("growable engine cannot reject");
        // Emitted under the state lock: a finisher that will wake this
        // task must acquire the same lock first, so its `Ready` event is
        // seq-ordered after this one.
        self.emit(EventKind::DepCheckDone, tag);
        if ready {
            self.emit(EventKind::Ready, tag);
            Some(((td, tag), work))
        } else {
            st.parked.insert(td.0, ((td, tag), work));
            None
        }
    }

    fn try_submit(&self, p: PendingSpawn) -> Result<Option<Ready<Self>>, Rejected> {
        // The growable engine never runs out of room: only a malformed
        // parameter list is rejected.
        let sub = Submission {
            fptr: p.fptr,
            tag: p.tag,
            priority: p.work.prio,
            tenant: TenantId::NONE,
            params: p.params,
        };
        match sub.validate() {
            Ok(()) => Ok(self.submit(p.fptr, p.tag, sub.params, p.work)),
            Err(e) => Err((
                e,
                PendingSpawn {
                    params: sub.params,
                    ..p
                },
            )),
        }
    }

    fn finish(&self, (td, tag): Self::Ticket) -> (Vec<(Ready<Self>, Priority)>, u64) {
        let mut st = self.state.lock();
        let fin = st.engine.finish(td);
        let woken: Vec<(Ready<Self>, Priority)> = fin
            .newly_ready
            .into_iter()
            .map(|ready| {
                let unit = st
                    .parked
                    .remove(&ready.0)
                    .expect("woken task must be parked");
                let prio = unit.1.prio;
                (unit, prio)
            })
            .collect();
        // Emit under the state lock: any later submit/finish holds the
        // same lock, so these events are seq-ordered before everything
        // that observes the wake.
        self.emit(EventKind::Finished, tag);
        for (((_, woke), _), _) in &woken {
            self.emit_edge(EventKind::Ready, *woke, tag);
            self.emit_edge(EventKind::WakePosted, *woke, tag);
        }
        drop(st);
        for (((_, woke), _), _) in &woken {
            self.emit(EventKind::WakeDelivered, *woke);
        }
        (woken, 1)
    }
}

impl Runtime {
    /// Start a runtime with `n` worker threads and the default
    /// (work-stealing) scheduler.
    pub fn new(n: usize) -> Self {
        Runtime::with_scheduler(n, SchedulerKind::default())
    }

    /// Start a runtime with `n` worker threads scheduling ready tasks
    /// through `kind`.
    pub fn with_scheduler(n: usize, kind: SchedulerKind) -> Self {
        Shell::build(n, kind, None, SingleEngine::new)
    }

    /// Start a runtime that records lifecycle events into `rec`. Every
    /// submit/wake/exec transition is stamped into the recorder's
    /// per-thread rings; drain with [`nexuspp_obs::Recorder::drain`]
    /// after a [`barrier`](Self::barrier) for a causally ordered stream.
    pub fn with_recorder(n: usize, kind: SchedulerKind, rec: Arc<Recorder>) -> Self {
        Shell::build(n, kind, Some(rec), SingleEngine::new)
    }

    /// Start a runtime observed *online* by `collector`
    /// ([`nexuspp_obs::Collector`]): lifecycle events stream into the
    /// collector's recorder (its background thread keeps a live
    /// [`nexuspp_obs::GraphTracker`] current while tasks are in
    /// flight), and this runtime's [`metrics`](Self::metrics) registry
    /// is attached for periodic sampling. Producers never block on the
    /// collector — it only ever drains the consumer side of the event
    /// rings. Call [`Collector::finish`](nexuspp_obs::Collector::finish)
    /// after the runtime joins for the complete final state.
    pub fn with_observer(
        n: usize,
        kind: SchedulerKind,
        collector: &nexuspp_obs::Collector,
    ) -> Self {
        Runtime::with_recorder(n, kind, collector.recorder()).observed(collector)
    }
}
