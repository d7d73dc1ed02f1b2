//! # nexuspp-runtime — a real StarSs-like task dataflow runtime
//!
//! The paper's premise is that StarSs lets a programmer annotate plain
//! function calls with `input`/`output`/`inout` clauses and have the
//! runtime discover the task graph. There is no StarSs toolchain for Rust,
//! so this crate provides the equivalent embedded API — and executes real
//! closures on a thread pool, resolving dependencies with the *same*
//! [`nexuspp_core::DependencyEngine`] the hardware model uses (in its
//! growable software configuration). Semantics are therefore tested once
//! (against the oracle resolver) and shared between the simulator and this
//! runtime.
//!
//! ## One shell, two resolvers
//!
//! The paper's bottleneck is the per-task dependency resolution a master
//! core performs, so that is the only step the two runtimes do
//! differently. Everything around it — workers and the ready-task
//! scheduler, pending/quiescent accounting, panic capture, hard-deadline
//! abort, the task builder, `wait_on`, `barrier`, `shutdown`, and the
//! `tasks`/`sched`/`events` metrics — is one [`Shell`], generic over a
//! sealed [`Resolver`]:
//!
//! - [`Runtime`] = `Shell<`[`SingleEngine`]`>`: one growable engine
//!   behind one mutex, the software re-creation of the centralized Task
//!   Maestro (see [`runtime`]).
//! - [`ShardedRuntime`] = `Shell<`[`ShardedDispatch`]`>`: resolution
//!   partitioned across N engines behind per-shard locks, with lock-free
//!   wake delivery and optional per-shard capacity bounds (see
//!   [`sharded`]). It adds the `wake`/`capacity` metric groups and the
//!   shard accessors.
//!
//! The shell is monomorphized per resolver, so neither runtime pays for
//! dynamic dispatch on the per-task path.
//!
//! ```
//! use nexuspp_runtime::Runtime;
//!
//! let rt = Runtime::new(4);
//! let a = rt.region(vec![1u64; 8]);
//! let b = rt.region(vec![0u64; 8]);
//! {
//!     let (a, b) = (a.clone(), b.clone());
//!     rt.task()
//!         .input(&a)
//!         .output(&b)
//!         .spawn(move |t| {
//!             let av = t.read(&a);
//!             let mut bv = t.write(&b);
//!             for (x, y) in av.iter().zip(bv.iter_mut()) {
//!                 *y = x * 2;
//!             }
//!         });
//! }
//! rt.barrier(); // like `#pragma css barrier`
//! assert_eq!(rt.with_data(&b, |v| v.to_vec()), vec![2u64; 8]);
//! ```
//!
//! Both runtimes hand ready tasks to their workers through the
//! `nexuspp-sched` scheduling layer: per-worker work-stealing deques by
//! default, with the previous global mutex queue selectable via
//! [`SchedulerKind`] (`Runtime::with_scheduler` /
//! `ShardedRuntime::with_scheduler`) for differential comparison.

#![deny(missing_docs)]

pub mod region;
pub mod runtime;
pub mod sharded;
mod shell;
pub mod stress;

pub use nexuspp_core::ShardCapacity;
pub use nexuspp_sched::{SchedCounts, SchedulerKind};
pub use nexuspp_shard::{CapacityCounts, WakeCounts, WakeMode};
pub use region::{Region, RegionId};
pub use runtime::{Runtime, SingleEngine, TaskBuilder};
pub use sharded::{ShardedDispatch, ShardedRuntime, ShardedTaskBuilder};
pub use shell::{PendingSpawn, Resolver, Shell, ShellTaskBuilder, ShutdownReport, TaskCtx};
