//! The PR's acceptance bar, asserted: on the wide fan-in wake-stress
//! workload at 4 finisher workers, the lock-free wake path beats the
//! locked kick-off-list baseline by ≥ 1.3× on **wake-delivery time**,
//! and performs **zero shard-lock acquisitions** doing it.
//!
//! What is measured: the dispatcher's [`WakeCounts::delivery_ns`] — the
//! time finishers spend in the drain-to-report step, from deciding to
//! collect deliverable wakes to handing them to the report. Under
//! [`WakeMode::Locked`] that step must take the shard lock, so on the
//! hot shard every delivery attempt queues behind whoever is currently
//! *resolving* (draining the finish ring, walking kick-off entries) —
//! the serialization the ROADMAP item named. Under
//! [`WakeMode::LockFree`] it is one atomic emptiness check plus a
//! CAS-claimed drain of the MPSC wake list: it never waits on table
//! access, which is why the bar holds even on a single-CPU host where
//! end-to-end wall-clock is pinned to the (identical) resolution work.
//! Both sides take the best of three runs to shed warm-up and OS noise;
//! end-to-end wall-clock is printed alongside for context.
//!
//! The zero-acquisition assertion is the structural half of the bar: the
//! counter instruments the delivery step itself, so a future regression
//! that sneaks a lock back into the wake path fails loudly here.

use nexuspp_core::testsupport::timing_lock;
use nexuspp_shard::stress::{best_of, WakeStressSpec};
use nexuspp_shard::WakeMode;

#[test]
fn lock_free_wake_delivery_beats_locked_kickoff_by_1_3x_at_4_workers() {
    let _timing = timing_lock();
    let spec = WakeStressSpec {
        finishers: 4,
        producers: 256,
        consumers_per: 24,
        shards: 4,
        spin_ns: 0,
    };
    let locked = best_of(WakeMode::Locked, &spec, 3);
    let lock_free = best_of(WakeMode::LockFree, &spec, 3);
    assert!(
        locked.wake_counts.delivery_lock_acquisitions > 0,
        "the locked baseline must go through the shard lock"
    );
    assert_eq!(
        lock_free.wake_counts.delivery_lock_acquisitions, 0,
        "lock-free wake delivery must perform zero shard-lock acquisitions"
    );
    let ratio =
        locked.wake_counts.delivery_ns as f64 / lock_free.wake_counts.delivery_ns.max(1) as f64;
    println!(
        "wake_stress @4 workers, {} tasks / {} wakes: delivery locked {:?} vs lock-free {:?} \
         ({ratio:.2}x); end-to-end locked {:?} vs lock-free {:?}",
        spec.task_count(),
        spec.wake_count(),
        locked.delivery_time(),
        lock_free.delivery_time(),
        locked.elapsed,
        lock_free.elapsed,
    );
    assert!(
        ratio >= 1.3,
        "lock-free wake delivery must beat the locked kick-off lists by >= 1.3x on the \
         wide fan-in wake-stress workload (got {ratio:.2}x: locked {:?} vs lock-free {:?})",
        locked.delivery_time(),
        lock_free.delivery_time()
    );
}
