//! The PR's acceptance bar, asserted: on the imbalanced steal-stress
//! workload at 4 workers, the work-stealing scheduler beats the mutex
//! ready-queue baseline by ≥ 1.5× wall-clock.
//!
//! The workload is almost pure scheduling (task bodies are a few atomic
//! increments), so the comparison isolates the layer this PR replaces:
//! per task, the baseline pays one queue-lock round to enqueue, a wake
//! token through a Mutex+Condvar channel (send + recv), and another
//! queue-lock round to dequeue; work stealing pays a handful of atomic
//! operations on the owner's deque. That advantage does not depend on
//! core count — it holds even on a single-CPU host, where the deciding
//! factor is serialized lock round-trips and futex wake-ups per task
//! rather than parallel speedup — so the bar is robust on small CI
//! machines. Both sides take the best of three runs to shed scheduler
//! warm-up and OS noise.

use nexuspp_core::testsupport::timing_lock;
use nexuspp_sched::stress::{best_of, ChainStressSpec};
use nexuspp_sched::SchedulerKind;

#[test]
fn work_stealing_beats_mutex_queue_by_1_5x_at_4_workers() {
    let _timing = timing_lock();
    let spec = ChainStressSpec {
        workers: 4,
        chains: 8,
        chain_len: 4000,
        spin_ns: 0,
    };
    let mutex = best_of(SchedulerKind::MutexQueue, &spec, 3);
    let ws = best_of(SchedulerKind::WorkStealing, &spec, 3);
    let ratio = mutex.elapsed.as_secs_f64() / ws.elapsed.as_secs_f64();
    println!(
        "steal_stress @4 workers, {} tasks: mutex-queue {:?}, work-stealing {:?} \
         ({ratio:.2}x, {} steals)",
        spec.task_count(),
        mutex.elapsed,
        ws.elapsed,
        ws.counts.steals
    );
    assert!(
        ratio >= 1.5,
        "work stealing must beat the mutex ready queue by >= 1.5x on the \
         imbalanced steal-stress workload (got {ratio:.2}x: mutex {:?} vs ws {:?})",
        mutex.elapsed,
        ws.elapsed
    );
}
