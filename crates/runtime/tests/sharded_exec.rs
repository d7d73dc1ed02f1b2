//! End-to-end execution tests for the sharded runtime: real closures on
//! real threads, dependency resolution partitioned over per-shard locks.
//! Dataflow results must be schedule-independent, so every test asserts
//! exact values no matter how shards interleave.

use nexuspp_runtime::{Resolver, Runtime, ShardedRuntime, Shell};

#[test]
fn two_stage_pipeline_produces_exact_result() {
    for shards in [1, 2, 4, 8] {
        let rt = ShardedRuntime::new(4, shards);
        let src = rt.region(vec![1u64; 64]);
        let mid = rt.region(vec![0u64; 64]);
        let sum = rt.region(vec![0u64]);
        {
            let (src, mid) = (src.clone(), mid.clone());
            rt.task().input(&src).output(&mid).spawn(move |t| {
                let s = t.read(&src);
                let mut m = t.write(&mid);
                for (out, inp) in m.iter_mut().zip(s.iter()) {
                    *out = inp * 3;
                }
            });
        }
        {
            let (mid, sum) = (mid.clone(), sum.clone());
            rt.task().input(&mid).output(&sum).spawn(move |t| {
                t.write(&sum)[0] = t.read(&mid).iter().sum();
            });
        }
        rt.barrier();
        assert_eq!(rt.with_data(&sum, |v| v[0]), 3 * 64, "shards={shards}");
    }
}

#[test]
fn long_chain_serializes_increments() {
    let rt = ShardedRuntime::new(4, 4);
    let cell = rt.region(vec![0u64]);
    for _ in 0..200 {
        let cell = cell.clone();
        rt.task().inout(&cell).spawn(move |t| {
            t.write(&cell)[0] += 1;
        });
    }
    rt.barrier();
    assert_eq!(rt.with_data(&cell, |v| v[0]), 200);
}

#[test]
fn wide_fanout_joins_exactly_once() {
    let rt = ShardedRuntime::new(4, 4);
    let seed = rt.region(vec![7u64]);
    let outs: Vec<_> = (0..32).map(|_| rt.region(vec![0u64])).collect();
    let total = rt.region(vec![0u64]);
    {
        let seed = seed.clone();
        rt.task().output(&seed).spawn(move |t| {
            t.write(&seed)[0] = 5;
        });
    }
    for out in &outs {
        let (seed, out) = (seed.clone(), out.clone());
        rt.task().input(&seed).output(&out).spawn(move |t| {
            t.write(&out)[0] = t.read(&seed)[0] * 2;
        });
    }
    {
        let total = total.clone();
        let mut b = rt.task();
        for out in &outs {
            b = b.input(out);
        }
        let outs = outs.clone();
        b.output(&total).spawn(move |t| {
            t.write(&total)[0] = outs.iter().map(|o| t.read(o)[0]).sum();
        });
    }
    rt.barrier();
    assert_eq!(rt.with_data(&total, |v| v[0]), 32 * 10);
}

#[test]
fn many_independent_tasks_all_complete() {
    let rt = ShardedRuntime::new(4, 4);
    let regions: Vec<_> = (0..256).map(|i| rt.region(vec![i as u64])).collect();
    for r in &regions {
        let r = r.clone();
        rt.task().inout(&r).spawn(move |t| {
            t.write(&r)[0] += 1000;
        });
    }
    rt.barrier();
    for (i, r) in regions.iter().enumerate() {
        assert_eq!(rt.with_data(r, |v| v[0]), i as u64 + 1000);
    }
    assert_eq!(rt.submitted(), 256);
}

#[test]
fn wait_on_blocks_for_outstanding_writers() {
    let rt = ShardedRuntime::new(2, 4);
    let slow = rt.region(vec![0u64]);
    {
        let slow = slow.clone();
        rt.task().output(&slow).spawn(move |t| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            t.write(&slow)[0] = 99;
        });
    }
    rt.wait_on(&slow);
    assert_eq!(rt.with_data(&slow, |v| v[0]), 99);
    rt.barrier();
}

/// A wavefront-style stencil over a strip of cells: cell `i` at step `s`
/// reads cells `i-1` and `i` from the previous step. Dataflow semantics
/// make the result schedule-independent, so the single-engine runtime and
/// the sharded runtime must produce identical strips.
fn stencil_single() -> Vec<u64> {
    let rt = Runtime::new(3);
    let cells: Vec<_> = (0..12).map(|i| rt.region(vec![i as u64])).collect();
    for _step in 0..6 {
        for i in 1..cells.len() {
            let (left, cur) = (cells[i - 1].clone(), cells[i].clone());
            rt.task().input(&left).inout(&cur).spawn(move |t| {
                let l = t.read(&left)[0];
                t.write(&cur)[0] += l;
            });
        }
    }
    rt.barrier();
    cells.iter().map(|c| rt.with_data(c, |v| v[0])).collect()
}

fn stencil_sharded(shards: usize) -> Vec<u64> {
    let rt = ShardedRuntime::new(3, shards);
    let cells: Vec<_> = (0..12).map(|i| rt.region(vec![i as u64])).collect();
    for _step in 0..6 {
        for i in 1..cells.len() {
            let (left, cur) = (cells[i - 1].clone(), cells[i].clone());
            rt.task().input(&left).inout(&cur).spawn(move |t| {
                let l = t.read(&left)[0];
                t.write(&cur)[0] += l;
            });
        }
    }
    rt.barrier();
    cells.iter().map(|c| rt.with_data(c, |v| v[0])).collect()
}

#[test]
fn matches_single_engine_runtime_results() {
    let reference = stencil_single();
    for shards in [1, 2, 4, 8] {
        assert_eq!(stencil_sharded(shards), reference, "shards={shards}");
    }
}

#[test]
fn panic_in_task_is_reraised_at_barrier() {
    panic_reraised_at_barrier(Runtime::new(2));
    panic_reraised_at_barrier(ShardedRuntime::new(2, 2));
}

fn panic_reraised_at_barrier<R: Resolver>(rt: Shell<R>) {
    let r = rt.region(vec![0u64]);
    {
        let r = r.clone();
        rt.task().output(&r).spawn(move |_t| {
            panic!("sharded task boom");
        });
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()));
    assert!(err.is_err(), "barrier must re-raise the task panic");
}

#[test]
fn high_priority_probe_overtakes_backlog() {
    // Functional smoke: a high-priority probe on an idle region returns
    // promptly even with a backlog of queued normal tasks.
    let rt = ShardedRuntime::new(1, 4);
    let busy = rt.region(vec![0u64]);
    let idle = rt.region(vec![42u64]);
    for _ in 0..20 {
        let busy = busy.clone();
        rt.task().inout(&busy).spawn(move |t| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.write(&busy)[0] += 1;
        });
    }
    rt.wait_on(&idle); // must not wait for the 20ms backlog chain
    rt.barrier();
    assert_eq!(rt.with_data(&busy, |v| v[0]), 20);
}
