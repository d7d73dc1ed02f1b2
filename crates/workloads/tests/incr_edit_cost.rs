//! Edit cost is proportional to the edit, not the program — proven by
//! counting, not timing.
//!
//! One `Retarget` (an interior task drops its left-neighbour read) and
//! one `SetInitial` (an interior cell's initial contents) are applied to
//! halo stencils of 1k, 10k and 100k tasks that differ only in width.
//! The edited cell sits far from both boundaries, so its light-cone is
//! the same at every size, and so must be every count the layer
//! reports: declarations re-bound, Pearce–Kelly maintenance work, the
//! dirty cone and the re-executed set. Building the stencil through one
//! `edit_batch` re-binds each declaration exactly once, so the build is
//! linear in the task count.

use nexuspp_frontend::Lowering;
use nexuspp_incr::{Access, Backend, Edit, IncrReport};
use nexuspp_workloads::IncrStencilSpec;

const BACKEND: Backend = Backend::Engine { shards: 2 };
/// The edited cell and timestep: the light-cone from step 5 over the
/// remaining 5 steps stays clear of both boundaries at 100 cells.
const CELL: u32 = 50;
const STEP: u32 = 5;

/// The counts of one edit's re-run that must not depend on size.
fn counts(r: &IncrReport) -> (u64, u64, usize, usize) {
    (r.rebind_ops, r.order_maintenance_ops, r.dirtied, r.reran)
}

/// Build `spec`, run it from scratch, then apply one `Retarget` and one
/// `SetInitial`, re-running after each.
fn edit_counts(spec: &IncrStencilSpec) -> [(u64, u64, usize, usize); 2] {
    let mut ip = spec.build();
    let first = ip.rerun(Lowering::Renamed, &BACKEND);
    assert_eq!(
        first.rebind_ops,
        spec.task_count(),
        "the batch build re-binds each declaration once"
    );
    assert_eq!(first.reran as u64, spec.task_count());

    let accesses = vec![
        Access::ReadVersion(spec.cell(CELL), STEP - 1),
        Access::ReadVersion(spec.cell(CELL + 1), STEP - 1),
        Access::Write(spec.cell(CELL)),
    ];
    ip.edit(Edit::Retarget {
        key: spec.key(CELL, STEP),
        accesses,
    })
    .unwrap();
    let retarget = ip.rerun(Lowering::Renamed, &BACKEND);

    ip.edit(Edit::SetInitial {
        resource: spec.cell(CELL),
        seed: 77,
    })
    .unwrap();
    let seed = ip.rerun(Lowering::Renamed, &BACKEND);
    [counts(&retarget), counts(&seed)]
}

#[test]
fn one_edit_costs_the_same_at_1k_10k_and_100k_tasks() {
    let sizes = [100u32, 1_000, 10_000].map(|cells| IncrStencilSpec { cells, steps: 10 });
    let runs: Vec<_> = sizes.iter().map(edit_counts).collect();
    let [retarget, seed] = runs[0];
    // A retarget that keeps the task's writes re-binds only itself; a
    // content edit re-binds nothing. Both re-run a light-cone.
    assert_eq!(retarget.0, 1, "retarget re-binds the edited task alone");
    assert_eq!(seed.0, 0, "a content edit re-binds nothing");
    assert!(retarget.3 > 0 && seed.3 > 0, "both edits re-run something");
    for (spec, run) in sizes.iter().zip(&runs) {
        assert_eq!(
            run,
            &runs[0],
            "{}-task stencil: (rebind_ops, order_maintenance_ops, dirtied, reran) \
             of [retarget, set-initial] must match the 1k-task stencil",
            spec.task_count()
        );
    }
}
