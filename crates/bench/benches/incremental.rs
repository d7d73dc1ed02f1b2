//! Incremental re-execution: what a memoized re-run costs relative to
//! from-scratch on the 1000-task halo-exchange stencil
//! (`IncrStencilSpec::thousand`, 100 cells × 10 steps).
//!
//! Three points on the edit-size curve, all through the same
//! `IncrementalProgram::rerun` path on the batch engine backend:
//!
//! * `from_scratch` — `invalidate_all` then re-run: the degenerate
//!   empty-store case, the baseline every other row is compared to.
//! * `edit1` — one initial-contents edit: the dirty cone is one cell's
//!   light-cone (~`steps²` of `cells × steps` tasks), so most of the
//!   program is spliced from the memo store.
//! * `edit10` — ten spread-out edits: overlapping cones cover most of
//!   the stencil, the regime where incrementality approaches (but never
//!   exceeds) from-scratch cost.
//! * `retarget1` — one structural edit: an interior task alternately
//!   drops and restores its left-neighbour read. The commit re-binds
//!   that one declaration and its edge delta; the re-run covers the
//!   task's light-cone.
//! * `edit1_runtime` — `edit1` on the threaded runtime backend
//!   (`Backend::Runtime`), the path live editors use: task bodies
//!   compute contents on worker threads, and the program keeps one
//!   runtime across every re-run, so the row times validation, spawn
//!   and execution, not runtime start-up.
//!
//! The ≥ 2× one-edit win is asserted in release CI by
//! `crates/workloads/tests/incr_speedup.rs`; the numbers here are the
//! same contrast under criterion timing, persisted to
//! `BENCH_incremental.json` by the CI summary sink.

use criterion::{criterion_group, criterion_main, Criterion};
use nexuspp_frontend::Lowering;
use nexuspp_incr::{Access, Backend, Edit};
use nexuspp_workloads::IncrStencilSpec;

const BACKEND: Backend = Backend::Engine { shards: 4 };
const RUNTIME: Backend = Backend::Runtime {
    workers: 2,
    shards: 4,
};

fn bench_rerun(c: &mut Criterion) {
    let spec = IncrStencilSpec::thousand();
    let mut g = c.benchmark_group("incremental/rerun");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));

    let mut ip = spec.build();
    g.bench_function("from_scratch", |b| {
        b.iter(|| {
            ip.invalidate_all();
            ip.rerun(Lowering::Renamed, &BACKEND).reran
        });
    });

    // Each timed iteration applies a fresh-seed edit batch so the cone
    // genuinely re-executes (repeating a seed would hit early cutoff
    // and time an empty run). The edit itself is inside the timer on
    // purpose: an editor pays for commit + re-run, not re-run alone.
    for edits in [1u32, 10] {
        let mut round = 0u64;
        let mut ip = spec.build();
        ip.rerun(Lowering::Renamed, &BACKEND);
        g.bench_function(&format!("edit{edits}"), |b| {
            b.iter(|| {
                round += 1;
                ip.edit_batch(spec.touch_edits(edits, round)).unwrap();
                ip.rerun(Lowering::Renamed, &BACKEND).reran
            });
        });
    }

    let mut ip = spec.build();
    ip.rerun(Lowering::Renamed, &BACKEND);
    let (i, t) = (spec.cells / 2, spec.steps / 2);
    let mut drop_left = false;
    g.bench_function("retarget1", |b| {
        b.iter(|| {
            drop_left = !drop_left;
            let mut accesses = Vec::with_capacity(4);
            if !drop_left {
                accesses.push(Access::ReadVersion(spec.cell(i - 1), t - 1));
            }
            accesses.push(Access::ReadVersion(spec.cell(i), t - 1));
            accesses.push(Access::ReadVersion(spec.cell(i + 1), t - 1));
            accesses.push(Access::Write(spec.cell(i)));
            ip.edit(Edit::Retarget {
                key: spec.key(i, t),
                accesses,
            })
            .unwrap();
            ip.rerun(Lowering::Renamed, &BACKEND).reran
        });
    });

    let mut round = 0u64;
    let mut ip = spec.build();
    ip.rerun(Lowering::Renamed, &RUNTIME);
    g.bench_function("edit1_runtime", |b| {
        b.iter(|| {
            round += 1;
            ip.edit_batch(spec.touch_edits(1, round)).unwrap();
            ip.rerun(Lowering::Renamed, &RUNTIME).reran
        });
    });
    g.finish();
}

criterion_group!(benches, bench_rerun);
criterion_main!(benches);
