//! Lifetime of the threaded runtime an `IncrementalProgram` keeps
//! across `Backend::Runtime` re-runs, in its own test binary with a
//! single test so no sibling test's threads perturb the process's
//! thread count.

use nexuspp_core::testsupport::wait_until;
use nexuspp_core::Priority;
use nexuspp_frontend::Lowering;
use nexuspp_incr::{Access, Backend, Edit, IncrementalProgram};
use nexuspp_obs::MetricsRegistry;
use std::time::Duration;

/// Live threads in this process (Linux: one entry per task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(1)
}

/// A small halo stencil, `cells` wide and `steps` deep: the task for
/// cell `i` at step `t` reads cells `i-1..=i+1` at version `t-1` and
/// writes cell `i`.
fn stencil(cells: u32, steps: u32) -> IncrementalProgram {
    let cell = |i: u32| format!("c{i}");
    let mut edits = Vec::new();
    for t in 1..=steps {
        for i in 0..cells {
            let mut accesses: Vec<Access> = (i.saturating_sub(1)..=(i + 1).min(cells - 1))
                .map(|j| Access::ReadVersion(cell(j), t - 1))
                .collect();
            accesses.push(Access::Write(cell(i)));
            edits.push(Edit::AddTask {
                key: u64::from(t * cells + i),
                fptr: 0x40 + u64::from(i % 3),
                priority: Priority::Normal,
                accesses,
            });
        }
    }
    let mut ip = IncrementalProgram::new();
    ip.edit_batch(edits).expect("the stencil is acyclic");
    ip
}

fn runtime_starts(reg: &MetricsRegistry) -> u64 {
    reg.snapshot().get("incr", "runtime_starts").unwrap_or(0)
}

#[test]
fn a_program_keeps_one_runtime_per_backend_shape() {
    one_runtime_serves_every_rerun_and_joins_on_drop();
    runtime_restarts_exactly_when_its_shape_changes();
}

/// 200 edit + re-run rounds on one `Backend::Runtime` start one
/// runtime; the thread count stays within its workers and returns to
/// the baseline once the program drops.
fn one_runtime_serves_every_rerun_and_joins_on_drop() {
    let baseline = thread_count();
    let workers = 2;
    let backend = Backend::Runtime { workers, shards: 4 };
    let reg = MetricsRegistry::new();
    let mut ip = stencil(8, 4);
    ip.register_metrics(&reg, "incr");
    let first = ip.rerun(Lowering::Renamed, &backend);
    assert_eq!(
        first.reran, first.total,
        "the first run executes everything"
    );
    for round in 0..200u64 {
        ip.edit(Edit::SetInitial {
            resource: format!("c{}", round % 8),
            seed: round + 1,
        })
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &backend);
        assert!(r.reran > 0, "round {round}: a fresh seed re-runs its cone");
        let now = thread_count();
        assert!(
            now <= baseline + workers,
            "round {round}: {now} threads, baseline {baseline} + {workers} workers"
        );
    }
    assert_eq!(runtime_starts(&reg), 1, "201 re-runs, one runtime");
    assert_eq!(reg.snapshot().get("incr", "runs"), Some(201));
    drop(ip);
    wait_until(
        Duration::from_secs(10),
        &format!("thread count back to baseline {baseline}"),
        || thread_count() <= baseline,
    );
}

/// Switching `Runtime{1,2}` → `Runtime{3,4}` → `Engine{2}` →
/// `Runtime{1,2}` starts a runtime exactly when the shape differs from
/// the kept one, and the contents match a twin that runs only on the
/// engine.
fn runtime_restarts_exactly_when_its_shape_changes() {
    let baseline = thread_count();
    let reg = MetricsRegistry::new();
    let mut live = stencil(6, 3);
    live.register_metrics(&reg, "incr");
    let mut twin = stencil(6, 3);
    let engine = Backend::Engine { shards: 2 };
    // (backend, runtime starts after its re-run)
    let steps = [
        (
            Backend::Runtime {
                workers: 1,
                shards: 2,
            },
            1,
        ),
        (
            Backend::Runtime {
                workers: 1,
                shards: 2,
            },
            1,
        ),
        (
            Backend::Runtime {
                workers: 3,
                shards: 4,
            },
            2,
        ),
        (engine, 2),
        (
            Backend::Runtime {
                workers: 1,
                shards: 2,
            },
            3,
        ),
    ];
    for (round, (backend, starts)) in steps.into_iter().enumerate() {
        let edit = Edit::SetInitial {
            resource: format!("c{round}"),
            seed: 100 + round as u64,
        };
        live.edit(edit.clone()).unwrap();
        twin.edit(edit).unwrap();
        let r = live.rerun(Lowering::Renamed, &backend);
        twin.rerun(Lowering::Renamed, &engine);
        assert!(r.reran > 0, "round {round}");
        assert_eq!(
            runtime_starts(&reg),
            starts,
            "round {round} on {}",
            backend.name()
        );
        assert_eq!(
            live.final_contents(),
            twin.final_contents(),
            "round {round} on {}",
            backend.name()
        );
        assert!(thread_count() <= baseline + 3, "at most one runtime alive");
    }
    // A re-run with nothing dirty touches no backend, so it starts
    // nothing either.
    let idle = live.rerun(
        Lowering::Renamed,
        &Backend::Runtime {
            workers: 2,
            shards: 2,
        },
    );
    assert_eq!(idle.reran, 0);
    assert_eq!(runtime_starts(&reg), 3);
    drop(live);
    wait_until(
        Duration::from_secs(10),
        &format!("thread count back to baseline {baseline}"),
        || thread_count() <= baseline,
    );
}
