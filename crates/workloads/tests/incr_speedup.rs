//! The headline incremental-reuse guarantee on the 1000-task stencil:
//! a single-cell edit re-runs only its light-cone (structural
//! assertion, always on), and the wall-clock win over from-scratch is
//! at least 2× (measured assertion, release builds only — debug-build
//! timing is noise).

use nexuspp_core::testsupport::timing_lock;
use nexuspp_frontend::Lowering;
use nexuspp_incr::Backend;
use nexuspp_workloads::IncrStencilSpec;
use std::time::{Duration, Instant};

const BACKEND: Backend = Backend::Engine { shards: 4 };

/// Best-of-`rounds` timing of one from-scratch + one 1-edit re-run,
/// returning `(from_scratch, one_edit)` and asserting the structural
/// bound every round.
fn measure(spec: &IncrStencilSpec, rounds: u64) -> (Duration, Duration) {
    let mut ip = spec.build();
    let (mut best_full, mut best_edit) = (Duration::MAX, Duration::MAX);
    for round in 0..rounds {
        ip.invalidate_all();
        let t0 = Instant::now();
        let full = ip.rerun(Lowering::Renamed, &BACKEND);
        best_full = best_full.min(t0.elapsed());
        assert_eq!(full.reran as u64, spec.task_count());

        ip.edit_batch(spec.touch_edits(1, round)).unwrap();
        let t1 = Instant::now();
        let one = ip.rerun(Lowering::Renamed, &BACKEND);
        best_edit = best_edit.min(t1.elapsed());

        // Structural bound, independent of the clock: the re-executed
        // set stays inside the touched cell's light-cone, well under
        // the full program.
        assert!(one.reran > 0, "a fresh seed must dirty the cone");
        assert!(
            (one.reran as u64) <= spec.cone_bound(0),
            "reran {} exceeds the light-cone bound {}",
            one.reran,
            spec.cone_bound(0)
        );
        assert_eq!((one.reran + one.reused) as u64, spec.task_count());
    }
    (best_full, best_edit)
}

#[test]
fn one_edit_rerun_beats_from_scratch() {
    let _timing = timing_lock();
    let spec = IncrStencilSpec::thousand();
    assert_eq!(spec.task_count(), 1000);
    // The structural win is ~10×: the cone of one cell is at most
    // steps * (2 * steps + 1) tasks of cells * steps.
    assert!(spec.cone_bound(0) * 2 < spec.task_count());

    let (full, edit) = measure(&spec, 3);
    if cfg!(debug_assertions) {
        // Debug timing is dominated by allocator noise; the structural
        // assertions above already ran. Nothing more to check.
        return;
    }
    let ratio = full.as_secs_f64() / edit.as_secs_f64().max(1e-9);
    assert!(
        ratio >= 2.0,
        "1-edit re-run must be at least 2x faster than from-scratch: \
         from-scratch {full:?}, 1-edit {edit:?} (ratio {ratio:.2})"
    );
}
