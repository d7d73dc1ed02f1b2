//! Re-running an [`IncrementalProgram`] on the Nexus++ backends.
//!
//! [`IncrementalProgram::rerun`] is the tentpole operation: walk the
//! dirty cone in the maintained dependency order, validate each member
//! against its memo (content fingerprints, so renumbered-but-equal
//! bindings cut off early), and resubmit **only the invalidated tasks**
//! as a *partial* lowered stream to the chosen [`Backend`] — the batch
//! engine, the concurrent dispatcher, or the threaded runtime. Cached
//! outputs of clean producers are spliced in as already-available
//! inputs, so a re-run's cost scales with the edit, not the program.
//!
//! # Why partial streams are safe
//!
//! The engines resolve dependencies by submission-order address
//! matching. A partial stream emitted in (maintained) topological order
//! preserves every true edge *between resubmitted tasks*: producers
//! precede consumers, and their (resource, version) addresses — the
//! frontend's public [`Lowering::address`] contract — match exactly.
//! Addresses of clean producers simply never appear, so their consumers
//! start dependency-free, which is correct because their inputs are
//! memoized contents, not pending writes. Under the raw lowering the
//! collapsed per-resource addresses add extra serialization, but only
//! *backwards* (earlier submissions), i.e. a superset of the true edges
//! — acyclic and semantically safe, exactly as in full-program lowering.
//!
//! # What a re-run pays per task
//!
//! Like a Nexus++ Task Maestro, which stays resident and pays a small
//! table cost per task, a re-run pays only for the tasks it validates
//! and re-executes:
//!
//! * the cone walk looks each member's order index up once and sorts
//!   `(order, key)` pairs;
//! * validation borrows the resolved declaration, hashes contents with
//!   each resource's cached name hash, and keys every map by task or
//!   `(resource, version)` through a fixed integer hasher;
//! * the [`Backend::Runtime`] path reuses one long-lived threaded
//!   runtime per program (next section).
//!
//! # The live splice proof
//!
//! The [`Backend::Runtime`] path does not just schedule dummy bodies:
//! every resubmitted task's closure *computes its outputs* on the
//! runtime's worker threads, ordered only by the engines' dependency
//! tracking. Each invalidated write owns one output slot, indexed by
//! its position in the plan; a body reads its inputs — memoized
//! contents resolved while planning, or the slots of predecessors in
//! the same re-run — and writes its own slots. After the barrier, the
//! concurrently computed slots must equal the memoized plan — a live
//! end-to-end check that splicing cached outputs under partial
//! resubmission preserves the dataflow. The validation walk itself
//! holds **no shard locks**: it runs entirely on the caller's thread
//! before anything is submitted.
//!
//! The runtime is the program's own: started by the first
//! [`Backend::Runtime`] re-run, kept for every later one with the same
//! `(workers, shards)`, replaced only when that shape changes, and
//! joined when the program drops. Reusing it is safe because each
//! re-run ends at a barrier, where the runtime is quiescent and no task
//! is resident on any shard — so the (resource, version) addresses a
//! later re-run submits again meet empty dependence tables.

use crate::program::{IncrementalProgram, RESOURCE_SIZE};
use crate::store::{self, IntMap, IntSet};
use nexuspp_core::{Submission, TaskBuilder};
use nexuspp_frontend::exec::{run_on_dispatcher, run_on_engine};
use nexuspp_frontend::{LoweredProgram, Lowering, ResourceId, Version};
use nexuspp_runtime::ShardedRuntime;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which execution backend a re-run resubmits invalidated tasks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The batch-style sharded engine, drained single-threadedly.
    Engine {
        /// Number of dependence-table shards.
        shards: usize,
    },
    /// The concurrent shard dispatcher with finisher worker threads.
    Dispatcher {
        /// Number of dependence-table shards.
        shards: usize,
        /// Number of finisher workers.
        workers: usize,
    },
    /// The full threaded runtime; task bodies compute contents live
    /// (see the [module docs](self)). The program keeps the runtime
    /// across re-runs while `workers` and `shards` stay the same.
    Runtime {
        /// Number of worker threads.
        workers: usize,
        /// Number of dependence-table shards.
        shards: usize,
    },
}

impl Backend {
    /// Stable label (used by benchmarks and reports).
    pub fn name(&self) -> String {
        match self {
            Backend::Engine { shards } => format!("engine/{shards}"),
            Backend::Dispatcher { shards, workers } => format!("dispatcher/{shards}x{workers}"),
            Backend::Runtime { workers, shards } => format!("runtime/{workers}w{shards}s"),
        }
    }
}

/// What one [`rerun`](IncrementalProgram::rerun) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrReport {
    /// Tasks currently declared.
    pub total: usize,
    /// Size of the structural dirty cone the walk validated (touched
    /// keys plus forward closure).
    pub dirtied: usize,
    /// Tasks whose fingerprint changed: re-executed on the backend.
    pub reran: usize,
    /// Tasks spliced from the memo store (`reused + reran == total`,
    /// always).
    pub reused: usize,
    /// Pearce–Kelly maintenance work (nodes visited + shifted) spent by
    /// the edits since the previous report — the online-ordering cost
    /// of this round of edits.
    pub order_maintenance_ops: u64,
    /// Declarations re-bound by the edits committed since the previous
    /// report — the binding cost of this round of edits. A structural
    /// edit re-binds the edited tasks and the later tasks on resources
    /// whose writer set it changed; a `SetInitial` re-binds none.
    pub rebind_ops: u64,
    /// Keys of the re-executed tasks, sorted.
    pub reran_keys: Vec<u64>,
    /// Backend execution order of the re-executed tasks (tags, in the
    /// order they actually ran).
    pub executed: Vec<u64>,
}

/// The threaded runtime a program keeps between
/// [`Backend::Runtime`] re-runs, with the shape it was started with.
pub(crate) struct WarmRuntime {
    workers: usize,
    shards: usize,
    rt: ShardedRuntime,
}

/// Where a live body finds one input.
#[derive(Debug, Clone, Copy)]
enum Input {
    /// Spliced: a memoized (or initial) content, resolved while
    /// planning.
    Known(u64),
    /// Written by an earlier task of the same re-run, into this output
    /// slot.
    Slot(u32),
}

/// One output slot: a content some invalidated task writes live.
#[derive(Debug, Default)]
struct Slot {
    content: AtomicU64,
    written: AtomicBool,
}

/// One invalidated task, as its live body sees it.
#[derive(Debug)]
struct LiveTask {
    key: u64,
    fptr: u64,
    /// Its inputs, in declaration order: a range of [`Splice::inputs`].
    inputs: Range<usize>,
    /// Its output slots, one per written resource in declaration order.
    outputs: Range<usize>,
}

/// The invalidated tasks of one re-run, fully planned (inputs
/// resolved, outputs recomputed and memoized) before anything touches a
/// backend, in the flat form the live bodies share.
#[derive(Debug, Default)]
struct Splice {
    /// In maintained topological order; the index is the plan position.
    tasks: Vec<LiveTask>,
    inputs: Vec<Input>,
    /// Per output slot: the `(resource, version)` written and the
    /// resource's name hash.
    writes: Vec<(ResourceId, Version, u64)>,
    slots: Vec<Slot>,
    /// Keys in the order their bodies ran (the first `logged` entries).
    log: Vec<AtomicU64>,
    logged: AtomicUsize,
}

impl Splice {
    /// The body of plan position `i`: read the inputs, write the output
    /// slots, log the key.
    fn execute(&self, i: usize) {
        let t = &self.tasks[i];
        let inputs = &self.inputs[t.inputs.clone()];
        let content = |input: &Input| match *input {
            Input::Known(c) => c,
            Input::Slot(s) => {
                let slot = &self.slots[s as usize];
                assert!(
                    slot.written.load(Ordering::Acquire),
                    "input available: spliced or produced by a predecessor"
                );
                slot.content.load(Ordering::Relaxed)
            }
        };
        for s in t.outputs.clone() {
            let out =
                store::task_output_hashed(t.fptr, self.writes[s].2, inputs.iter().map(content));
            self.slots[s].content.store(out, Ordering::Relaxed);
            self.slots[s].written.store(true, Ordering::Release);
        }
        let at = self.logged.fetch_add(1, Ordering::AcqRel);
        self.log[at].store(t.key, Ordering::Release);
    }

    /// The execution log, after the barrier.
    fn executed(&self) -> Vec<u64> {
        self.log[..self.logged.load(Ordering::Acquire)]
            .iter()
            .map(|k| k.load(Ordering::Acquire))
            .collect()
    }
}

impl IncrementalProgram {
    /// Validate the dirty cone and re-execute exactly the invalidated
    /// tasks on `backend`, splicing memoized outputs for everything
    /// else. With an empty memo store this degenerates to a full
    /// from-scratch run; with no pending edits it is a no-op that
    /// touches no backend at all.
    ///
    /// The walk proceeds in the maintained topological order, so every
    /// task's inputs are resolved (memoized or just recomputed) before
    /// the task itself is validated. Store mutation happens here, on
    /// the caller's thread, under `&mut self` — the single-writer rule.
    pub fn rerun(&mut self, lowering: Lowering, backend: &Backend) -> IncrReport {
        let total = self.len();
        let cone = self.cone_in_order();
        let dirtied = cone.len();

        // Phase 1 (caller thread, no locks): validate the cone in
        // dependency order, recompute what changed, refresh memos, and
        // plan the live run.
        let mut splice = Splice::default();
        let mut subs: Vec<Submission> = Vec::new();
        // (resource, version) → output slot, for versions this re-run
        // recomputes.
        let mut slot_of: IntMap<(ResourceId, Version), u32> = IntMap::default();
        // Per-task scratch, reused across the cone.
        let mut reads: Vec<(ResourceId, Version)> = Vec::new();
        let mut read_pairs: Vec<(u64, u64)> = Vec::new();
        let mut inputs: Vec<Input> = Vec::new();
        let mut write_hashes: Vec<u64> = Vec::new();
        for &(_, key) in &cone {
            let d = &self.resolved[&key];
            reads.clear();
            read_pairs.clear();
            inputs.clear();
            for &(r, v) in &d.reads {
                let content = if v == 0 {
                    self.initial_content(r)
                } else {
                    let p = self.producers[&(r, v)];
                    if p == key {
                        // A self-read of the task's own mint: its content
                        // is the task's own output — circular, and never
                        // an edge in the frontend either.
                        continue;
                    }
                    self.memo_output(p, r)
                };
                reads.push((r, v));
                read_pairs.push((self.name_hashes[r.0 as usize], content));
                inputs.push(
                    slot_of
                        .get(&(r, v))
                        .map_or(Input::Known(content), |&s| Input::Slot(s)),
                );
            }
            write_hashes.clear();
            write_hashes.extend(
                d.writes
                    .iter()
                    .map(|&(r, _)| self.name_hashes[r.0 as usize]),
            );
            let fp = store::fingerprint(d.fptr, d.priority, &read_pairs, &write_hashes);
            if self.store.record(key).map(|rec| rec.fingerprint) == Some(fp) {
                continue; // early cutoff: the memo stands
            }
            let contents = || read_pairs.iter().map(|&(_, c)| c);
            self.store.refresh(
                key,
                fp,
                d.writes
                    .iter()
                    .zip(&write_hashes)
                    .map(|(&(r, _), &h)| (r, store::task_output_hashed(d.fptr, h, contents()))),
            );

            let mut b = TaskBuilder::new(d.fptr).tag(key).priority(d.priority);
            for &(r, v) in &reads {
                b = b.reads(lowering.address(r, v), RESOURCE_SIZE);
            }
            for &(r, v) in &d.writes {
                b = b.writes(lowering.address(r, v), RESOURCE_SIZE);
            }
            subs.push(b.build());
            let first = splice.writes.len();
            for (&(r, v), &h) in d.writes.iter().zip(&write_hashes) {
                slot_of.insert((r, v), splice.writes.len() as u32);
                splice.writes.push((r, v, h));
            }
            let at = splice.inputs.len();
            splice.inputs.extend_from_slice(&inputs);
            splice.tasks.push(LiveTask {
                key,
                fptr: d.fptr,
                inputs: at..splice.inputs.len(),
                outputs: first..splice.writes.len(),
            });
        }

        // Phase 2: resubmit the invalidated tasks as a partial lowered
        // stream (already in maintained topological order).
        let mut reran_keys: Vec<u64> = splice.tasks.iter().map(|t| t.key).collect();
        reran_keys.sort_unstable();
        let reran = splice.tasks.len();
        let executed = if subs.is_empty() {
            Vec::new()
        } else {
            let mut partial = LoweredProgram {
                lowering,
                edges: self.partial_edges(&splice),
                tasks: subs,
            };
            let executed = match *backend {
                Backend::Engine { shards } => run_on_engine(&partial, shards),
                Backend::Dispatcher { shards, workers } => {
                    run_on_dispatcher(&partial, shards, workers)
                }
                Backend::Runtime { workers, shards } => {
                    let subs = std::mem::take(&mut partial.tasks);
                    self.run_spliced_on_runtime(splice, subs, workers, shards)
                }
            };
            let mut got = executed.clone();
            got.sort_unstable();
            assert_eq!(got, reran_keys, "backend ran exactly the invalidated tasks");
            assert!(
                partial.order_respects_edges(&executed),
                "partial resubmission respected every true edge among reran tasks"
            );
            executed
        };

        let ops_total = self.topo().ops();
        let report = IncrReport {
            total,
            dirtied,
            reran,
            reused: total - reran,
            order_maintenance_ops: ops_total - self.ops_reported,
            rebind_ops: std::mem::take(&mut self.rebinds),
            reran_keys,
            executed,
        };
        self.ops_reported = ops_total;
        self.touched.clear();
        self.bump("runs", 1);
        self.bump("total", report.total as u64);
        self.bump("dirtied", report.dirtied as u64);
        self.bump("reran", report.reran as u64);
        self.bump("reused", report.reused as u64);
        self.bump("order_ops", report.order_maintenance_ops);
        report
    }

    /// Add `v` to the live counter `name`, if counters are attached.
    fn bump(&self, name: &str, v: u64) {
        if let Some(c) = self.metrics.as_ref().and_then(|g| g.counter(name)) {
            c.add(v);
        }
    }

    /// The true edges *among* the re-executed tasks (for order
    /// checking), read off their own adjacency.
    fn partial_edges(&self, splice: &Splice) -> Vec<(u64, u64)> {
        let reran: IntSet<u64> = splice.tasks.iter().map(|t| t.key).collect();
        splice
            .tasks
            .iter()
            .flat_map(|t| {
                self.topo
                    .successors(t.key)
                    .filter(|s| reran.contains(s))
                    .map(move |s| (t.key, s))
            })
            .collect()
    }

    /// The program's runtime for `(workers, shards)`: the one it kept
    /// if the shape matches, else a fresh one (the old one joined
    /// first), counted in `runtime_starts`.
    fn warm_runtime(&mut self, workers: usize, shards: usize) -> &ShardedRuntime {
        let fits = matches!(&self.runtime, Some(w) if (w.workers, w.shards) == (workers, shards));
        if !fits {
            self.runtime = None;
            self.runtime = Some(WarmRuntime {
                workers,
                shards,
                rt: ShardedRuntime::new(workers, shards),
            });
            self.bump("runtime_starts", 1);
        }
        &self.runtime.as_ref().expect("started above").rt
    }

    /// The live splice run (see the [module docs](self)): spawn every
    /// invalidated task on the program's runtime with a body that
    /// computes its outputs into its slots, then assert the concurrent
    /// result equals the memoized plan.
    fn run_spliced_on_runtime(
        &mut self,
        mut splice: Splice,
        subs: Vec<Submission>,
        workers: usize,
        shards: usize,
    ) -> Vec<u64> {
        splice.slots = splice.writes.iter().map(|_| Slot::default()).collect();
        splice.log = splice.tasks.iter().map(|_| AtomicU64::new(0)).collect();
        let splice = Arc::new(splice);
        let rt = self.warm_runtime(workers, shards);
        for (i, sub) in subs.into_iter().enumerate() {
            let live = Arc::clone(&splice);
            rt.spawn_lowered(sub, move || live.execute(i));
        }
        rt.barrier();
        debug_assert!(
            rt.capacity_counts().iter().all(|c| c.resident == 0),
            "a runtime kept across re-runs is quiescent after the barrier: no task resident on any shard"
        );
        for t in &splice.tasks {
            let rec = self.store.record(t.key).expect("just memoized");
            for s in t.outputs.clone() {
                let (r, v, _) = splice.writes[s];
                let slot = &splice.slots[s];
                let live = slot
                    .written
                    .load(Ordering::Acquire)
                    .then(|| slot.content.load(Ordering::Relaxed));
                assert_eq!(
                    live,
                    rec.output(r),
                    "live spliced run diverged from the memoized plan at ({r:?}, v{v})"
                );
            }
        }
        splice.executed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, Edit};
    use nexuspp_core::Priority;

    fn add(key: u64, fptr: u64, accesses: Vec<Access>) -> Edit {
        Edit::AddTask {
            key,
            fptr,
            priority: Priority::Normal,
            accesses,
        }
    }

    fn diamond() -> IncrementalProgram {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(
            0,
            0x10,
            vec![Access::Read("in".into()), Access::Write("a".into())],
        ))
        .unwrap();
        ip.edit(add(
            1,
            0x11,
            vec![Access::Read("a".into()), Access::Write("b".into())],
        ))
        .unwrap();
        ip.edit(add(
            2,
            0x12,
            vec![Access::Read("a".into()), Access::Write("c".into())],
        ))
        .unwrap();
        ip.edit(add(
            3,
            0x13,
            vec![
                Access::Read("b".into()),
                Access::Read("c".into()),
                Access::Write("out".into()),
            ],
        ))
        .unwrap();
        ip
    }

    #[test]
    fn first_rerun_is_from_scratch_then_noop() {
        for backend in [
            Backend::Engine { shards: 2 },
            Backend::Dispatcher {
                shards: 2,
                workers: 2,
            },
            Backend::Runtime {
                workers: 2,
                shards: 2,
            },
        ] {
            let mut ip = diamond();
            let r1 = ip.rerun(Lowering::Renamed, &backend);
            assert_eq!(
                (r1.total, r1.reran, r1.reused),
                (4, 4, 0),
                "{}",
                backend.name()
            );
            assert_eq!(r1.reran + r1.reused, r1.total);
            let r2 = ip.rerun(Lowering::Renamed, &backend);
            assert_eq!((r2.reran, r2.reused, r2.dirtied), (0, 4, 0));
            assert!(r2.executed.is_empty());
        }
    }

    #[test]
    fn one_edit_reruns_only_the_cone() {
        let mut ip = diamond();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        let before = ip.final_contents();
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 42,
        })
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(
            r.reran_keys,
            vec![0, 1, 2, 3],
            "whole diamond depends on in"
        );
        let after = ip.final_contents();
        assert_ne!(before, after);

        // An edit to a leaf output's producer function: only the sink
        // re-runs beyond it.
        ip.edit(Edit::Retarget {
            key: 1,
            accesses: vec![Access::Read("a".into()), Access::Write("b".into())],
        })
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        // Retarget with identical accesses: in the cone, but contents
        // unchanged — early cutoff everywhere.
        assert_eq!(r.reran, 0);
        assert!(r.dirtied >= 1);
        assert_eq!(ip.final_contents(), after);
    }

    #[test]
    fn raw_lowering_partial_streams_agree_with_renamed() {
        for backend in [
            Backend::Engine { shards: 2 },
            Backend::Runtime {
                workers: 3,
                shards: 2,
            },
        ] {
            let mut a = diamond();
            let mut b = diamond();
            a.rerun(Lowering::Renamed, &backend);
            b.rerun(Lowering::Raw, &backend);
            for ip in [&mut a, &mut b] {
                ip.edit(Edit::SetInitial {
                    resource: "in".into(),
                    seed: 9,
                })
                .unwrap();
            }
            a.rerun(Lowering::Renamed, &backend);
            b.rerun(Lowering::Raw, &backend);
            assert_eq!(a.final_contents(), b.final_contents(), "{}", backend.name());
        }
    }

    #[test]
    fn invalidate_all_matches_incremental_contents() {
        let mut inc = diamond();
        inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        inc.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 5,
        })
        .unwrap();
        inc.edit(add(
            4,
            0x20,
            vec![Access::Read("out".into()), Access::Write("post".into())],
        ))
        .unwrap();
        let r = inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert!(r.reran > 0);

        let mut scratch = diamond();
        scratch
            .edit(Edit::SetInitial {
                resource: "in".into(),
                seed: 5,
            })
            .unwrap();
        scratch
            .edit(add(
                4,
                0x20,
                vec![Access::Read("out".into()), Access::Write("post".into())],
            ))
            .unwrap();
        let rs = scratch.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(rs.reran, 5, "empty store reruns everything");
        assert_eq!(inc.final_contents(), scratch.final_contents());

        // invalidate_all on the incremental copy: same contents again.
        inc.invalidate_all();
        let rf = inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(rf.reran, 5);
        assert_eq!(inc.final_contents(), scratch.final_contents());
    }

    #[test]
    fn metrics_funnel_adds_up() {
        use nexuspp_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut ip = diamond();
        ip.register_metrics(&reg, "incr");
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 3,
        })
        .unwrap();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        let snap = reg.snapshot();
        assert_eq!(snap.get("incr", "runs"), Some(2));
        assert_eq!(
            snap.get("incr", "reran").unwrap() + snap.get("incr", "reused").unwrap(),
            snap.get("incr", "total").unwrap(),
            "reran + reused == total, cumulatively"
        );
    }
}
