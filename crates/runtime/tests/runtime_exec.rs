//! End-to-end tests of the threaded runtime: real closures, real data,
//! dependency semantics equal to sequential execution.

use nexuspp_core::testsupport::wait_until;
use nexuspp_desim::Rng;
use nexuspp_runtime::Runtime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn chain_of_transformations() {
    let rt = Runtime::new(4);
    let a = rt.region(vec![1u64; 64]);
    let b = rt.region(vec![0u64; 64]);
    let c = rt.region(vec![0u64; 64]);
    {
        let (a2, b2) = (a.clone(), b.clone());
        rt.task().input(&a).output(&b).spawn(move |t| {
            let av = t.read(&a2);
            let mut bv = t.write(&b2);
            for i in 0..av.len() {
                bv[i] = av[i] * 3;
            }
        });
    }
    {
        let (b2, c2) = (b.clone(), c.clone());
        rt.task().input(&b).output(&c).spawn(move |t| {
            let bv = t.read(&b2);
            let mut cv = t.write(&c2);
            for i in 0..bv.len() {
                cv[i] = bv[i] + 1;
            }
        });
    }
    rt.barrier();
    assert_eq!(rt.with_data(&c, |v| v.to_vec()), vec![4u64; 64]);
}

#[test]
fn fan_out_fan_in_sums() {
    let rt = Runtime::new(8);
    let src = rt.region((0..1000u64).collect::<Vec<_>>());
    let partials: Vec<_> = (0..10).map(|_| rt.region(vec![0u64])).collect();
    let total = rt.region(vec![0u64]);
    for (k, p) in partials.iter().enumerate() {
        let (src2, p2) = (src.clone(), p.clone());
        rt.task().input(&src).output(p).spawn(move |t| {
            let s = t.read(&src2);
            let mut out = t.write(&p2);
            out[0] = s[k * 100..(k + 1) * 100].iter().sum();
        });
    }
    {
        let mut b = rt.task().output(&total);
        for p in &partials {
            b = b.input(p);
        }
        let (ps, tot): (Vec<_>, _) = (partials.clone(), total.clone());
        b.spawn(move |t| {
            let mut sum = 0;
            for p in &ps {
                sum += t.read(p)[0];
            }
            t.write(&tot)[0] = sum;
        });
    }
    rt.barrier();
    assert_eq!(rt.with_data(&total, |v| v[0]), (0..1000u64).sum());
}

#[test]
fn waw_and_war_order_preserved() {
    // Writers and readers interleaved on one region: the final value must
    // be the last writer's, and each reader must observe its program-order
    // predecessor's value.
    let rt = Runtime::new(8);
    let x = rt.region(vec![0u64]);
    let seen = Arc::new(AtomicU64::new(0));
    for round in 1..=20u64 {
        let x2 = x.clone();
        rt.task().inout(&x).spawn(move |t| {
            t.write(&x2)[0] = round;
        });
        for _ in 0..3 {
            let (x2, seen2) = (x.clone(), Arc::clone(&seen));
            rt.task().input(&x).spawn(move |t| {
                let v = t.read(&x2)[0];
                assert_eq!(v, round, "reader observed the wrong round");
                seen2.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    rt.barrier();
    assert_eq!(rt.with_data(&x, |v| v[0]), 20);
    assert_eq!(seen.load(Ordering::Relaxed), 60);
}

#[test]
fn wavefront_stencil_matches_sequential() {
    // The H.264-style wavefront from Listing 1 computed for real: each
    // cell = left + upright + 1, with one region per cell.
    const ROWS: usize = 12;
    const COLS: usize = 10;
    let rt = Runtime::new(6);
    let grid: Vec<Vec<_>> = (0..ROWS)
        .map(|_| (0..COLS).map(|_| rt.region(vec![0i64])).collect())
        .collect();
    for i in 0..ROWS {
        for j in 0..COLS {
            let mut b = rt.task().inout(&grid[i][j]);
            let left = (j > 0).then(|| grid[i][j - 1].clone());
            let upright = (i > 0 && j + 1 < COLS).then(|| grid[i - 1][j + 1].clone());
            if let Some(l) = &left {
                b = b.input(l);
            }
            if let Some(u) = &upright {
                b = b.input(u);
            }
            let me = grid[i][j].clone();
            b.spawn(move |t| {
                let lv = left.as_ref().map(|l| t.read(l)[0]).unwrap_or(0);
                let uv = upright.as_ref().map(|u| t.read(u)[0]).unwrap_or(0);
                t.write(&me)[0] = lv + uv + 1;
            });
        }
    }
    rt.barrier();
    // Sequential reference.
    let mut reference = vec![vec![0i64; COLS]; ROWS];
    for i in 0..ROWS {
        for j in 0..COLS {
            let l = if j > 0 { reference[i][j - 1] } else { 0 };
            let u = if i > 0 && j + 1 < COLS {
                reference[i - 1][j + 1]
            } else {
                0
            };
            reference[i][j] = l + u + 1;
        }
    }
    for i in 0..ROWS {
        for j in 0..COLS {
            assert_eq!(
                rt.with_data(&grid[i][j], |v| v[0]),
                reference[i][j],
                "cell ({i},{j})"
            );
        }
    }
}

#[test]
fn random_program_equals_sequential_execution() {
    // Random reads/writes over a few regions: dataflow semantics must
    // reproduce exactly the sequential (submission-order) result.
    let mut rng = Rng::new(777);
    const REGIONS: usize = 6;
    const TASKS: usize = 400;

    // Script the program first so both executions agree.
    // op = (targets(write), sources(read), multiplier)
    let mut script = Vec::new();
    for _ in 0..TASKS {
        let dst = rng.gen_range(REGIONS as u64) as usize;
        let src = rng.gen_range(REGIONS as u64) as usize;
        let mul = 1 + rng.gen_range(5);
        script.push((dst, src, mul));
    }

    // Sequential reference.
    let mut reference = [1u64; REGIONS];
    for &(dst, src, mul) in &script {
        reference[dst] = reference[src].wrapping_mul(mul).wrapping_add(1);
    }

    // Parallel execution.
    let rt = Runtime::new(8);
    let regions: Vec<_> = (0..REGIONS).map(|_| rt.region(vec![1u64])).collect();
    for &(dst, src, mul) in &script {
        let d = regions[dst].clone();
        let s = regions[src].clone();
        if dst == src {
            rt.task().inout(&regions[dst]).spawn(move |t| {
                let v = t.read(&s)[0];
                t.write(&d)[0] = v.wrapping_mul(mul).wrapping_add(1);
            });
        } else {
            rt.task()
                .input(&regions[src])
                .output(&regions[dst])
                .spawn(move |t| {
                    let v = t.read(&s)[0];
                    t.write(&d)[0] = v.wrapping_mul(mul).wrapping_add(1);
                });
        }
    }
    rt.barrier();
    for (k, r) in regions.iter().enumerate() {
        assert_eq!(rt.with_data(r, |v| v[0]), reference[k], "region {k}");
    }
}

#[test]
fn tasks_can_spawn_tasks() {
    let rt = Arc::new(Runtime::new(4));
    let out = rt.region(vec![0u64]);
    {
        let (rt2, out2) = (Arc::clone(&rt), out.clone());
        rt.task().spawn(move |_| {
            let inner_out = out2.clone();
            rt2.task().inout(&out2).spawn(move |t| {
                t.write(&inner_out)[0] = 42;
            });
        });
    }
    // Wait for the outer task, then the inner one.
    rt.barrier();
    rt.barrier();
    assert_eq!(rt.with_data(&out, |v| v[0]), 42);
}

#[test]
fn barrier_on_idle_runtime_returns() {
    let rt = Runtime::new(2);
    rt.barrier();
    rt.barrier();
    assert_eq!(rt.submitted(), 0);
}

#[test]
fn drop_joins_workers_cleanly() {
    for _ in 0..5 {
        let rt = Runtime::new(3);
        let r = rt.region(vec![0u64]);
        for i in 0..50u64 {
            let r2 = r.clone();
            rt.task().inout(&r).spawn(move |t| {
                t.write(&r2)[0] += i;
            });
        }
        drop(rt); // implicit barrier + join
    }
}

#[test]
#[should_panic(expected = "undeclared access")]
fn undeclared_access_is_caught() {
    let rt = Runtime::new(1);
    let a = rt.region(vec![0u64]);
    let b = rt.region(vec![0u64]);
    let (_a2, b2) = (a.clone(), b.clone());
    rt.task().input(&a).spawn(move |t| {
        // b was never declared: must panic (and poison the test thread).
        let _ = t.read(&b2);
    });
    rt.barrier();
}

#[test]
fn wait_on_observes_produced_value() {
    let rt = Runtime::new(4);
    let x = rt.region(vec![0u64]);
    for round in 1..=5u64 {
        let x2 = x.clone();
        rt.task().inout(&x).spawn(move |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.write(&x2)[0] = round;
        });
        // `wait on` the region: must see exactly this round's value even
        // though later rounds will be submitted afterwards.
        rt.wait_on(&x);
        assert_eq!(rt.with_data(&x, |v| v[0]), round);
    }
    rt.barrier();
}

#[test]
fn high_priority_overtakes_queued_tasks() {
    use std::sync::Mutex;
    let rt = Runtime::new(1); // single worker → strict queue ordering
    let order = Arc::new(Mutex::new(Vec::new()));
    let gate = rt.region(vec![0u8]);
    {
        // Occupy the worker so later submissions pile up in the queue.
        let g = gate.clone();
        rt.task().inout(&gate).spawn(move |t| {
            let _w = t.write(&g);
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
    }
    for k in 0..4u64 {
        let order2 = Arc::clone(&order);
        rt.task().spawn(move |_| {
            order2.lock().unwrap().push(format!("normal-{k}"));
        });
    }
    {
        let order2 = Arc::clone(&order);
        rt.task().high_priority().spawn(move |_| {
            order2.lock().unwrap().push("HIGH".to_string());
        });
    }
    rt.barrier();
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 5);
    assert_eq!(
        order[0], "HIGH",
        "the high-priority task must run before queued normals: {order:?}"
    );
}

#[test]
fn wait_on_does_not_wait_for_readers() {
    // `wait on` blocks on producers, not on slow concurrent readers:
    // the reader below cannot finish until the test releases it, and
    // the test releases it only after `wait_on` has returned. Waiting
    // on the reader would stall until its (long) receive timeout, and
    // the reader would then report that it never saw the release.
    let rt = Runtime::new(4);
    let x = rt.region(vec![7u64]);
    let started = Arc::new(AtomicU64::new(0));
    let released = Arc::new(AtomicBool::new(false));
    let (release, hold) = crossbeam::channel::bounded::<()>(1);
    {
        let (x2, s2, r2) = (x.clone(), Arc::clone(&started), Arc::clone(&released));
        rt.task().input(&x).spawn(move |t| {
            let _v = t.read(&x2)[0];
            s2.fetch_add(1, Ordering::SeqCst);
            let got = hold.recv_timeout(Duration::from_secs(30));
            r2.store(got.is_ok(), Ordering::SeqCst);
        });
    }
    // The reader holds its grant on a worker, so `wait_on` cannot run
    // it inline while helping.
    wait_until(Duration::from_secs(10), "the reader to start", || {
        started.load(Ordering::SeqCst) == 1
    });
    // No outstanding writer: returns while the reader runs.
    rt.wait_on(&x);
    // A reader that already gave up has dropped its end of the channel;
    // the assertion below then reports it.
    let _ = release.send(());
    rt.barrier();
    assert!(
        released.load(Ordering::SeqCst),
        "wait_on must not block on the slow reader"
    );
}
