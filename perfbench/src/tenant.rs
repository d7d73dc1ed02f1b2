//! `tenant-stream`: four tenants' `ServiceStressSpec::pressure` programs,
//! repeated for the run length and offered by one client thread through
//! `SubmissionHandle::try_submit` in an open loop: arrivals follow a
//! fixed rate with seeded exponential gaps, whatever the service does.
//!
//! Each task is timed from when it was due to be sent until its body
//! ends; a refused task counts as missing every latency limit.

use crate::checks;
use crate::common::{self, median, quantile, quantile_sorted, Outcome, Setups};
use crate::spans::Spans;
use crate::wavefront::{delta_sched, delta_wake, push_counts};
use crate::{RunConfig, Size};
use nexuspp::core::{ShardCapacity, Submission};
use nexuspp::desim::Rng;
use nexuspp::service::{
    IngressError, ResolverService, ServiceConfig, ServiceTask, SubmissionHandle,
};
use nexuspp::workloads::ServiceStressSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Per-tenant programs.
    pub spec: ServiceStressSpec,
    /// In-flight budget per tenant (below the `chains` a program keeps
    /// resident, so budget denial happens).
    pub budget: u64,
    /// Dependence-table shards.
    pub shards: usize,
    /// Resident tasks per shard (small enough that capacity retries
    /// happen).
    pub capacity: usize,
    /// Ingress lane bound per tenant (large enough that refusals are
    /// rare at the offered rate).
    pub lane_capacity: usize,
    /// Offered arrivals per second. Fixed, so a faster service sees the
    /// same load: about an eighth of the closed-loop capacity measured
    /// on a 2-CPU virtual machine (`service.closed_loop_tasks_per_s`,
    /// ~390k/s). At a quarter or half of it, the client's own wake-ups
    /// and any other load on the host's CPUs set the latency; at this
    /// rate it stayed put with a bursty CPU hog running beside it.
    pub rate_per_s: f64,
    /// Body spin time per task.
    pub body_ns: u64,
}

impl Params {
    /// The parameters for `size`.
    pub fn for_size(size: Size) -> Params {
        let full = Params {
            spec: ServiceStressSpec::pressure(),
            budget: 6,
            shards: 2,
            capacity: 16,
            lane_capacity: 4096,
            rate_per_s: 50_000.0,
            body_ns: 1_000,
        };
        match size {
            Size::Full => full,
            Size::Tiny => Params {
                spec: ServiceStressSpec::quick(),
                budget: 3,
                capacity: 4,
                rate_per_s: 5_000.0,
                ..full
            },
        }
    }
}

/// What bodies record, indexed by arrival number.
struct Slots {
    start_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
    bodies: AtomicU64,
    epoch: Instant,
}

impl Slots {
    /// Slots for `ends` timed tasks, `starts` of them with start times.
    fn new(ends: usize, starts: usize) -> Arc<Slots> {
        let zeros = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Slots {
            start_ns: zeros(starts),
            end_ns: zeros(ends),
            bodies: AtomicU64::new(0),
            epoch: Instant::now(),
        })
    }

    fn body(&self, k: Option<usize>, spin_ns: u64) {
        let start = self.now_ns();
        common::spin(spin_ns);
        if let Some(k) = k {
            if let Some(slot) = self.start_ns.get(k) {
                slot.store(start, Ordering::Relaxed);
            }
            if let Some(slot) = self.end_ns.get(k) {
                slot.store(self.now_ns(), Ordering::Relaxed);
            }
        }
        self.bodies.fetch_add(1, Ordering::Release);
    }

    /// Nanoseconds since the epoch, never 0 (0 marks "not yet").
    fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }
}

struct Setup {
    service: ResolverService,
    handles: Vec<SubmissionHandle>,
    programs: Vec<Vec<Submission>>,
    slots: Arc<Slots>,
    /// Tasks accepted so far (warm-up included).
    accepted: u64,
}

fn start(p: &Params, workers: usize, slots: Arc<Slots>) -> Setup {
    let mut cfg = ServiceConfig::new(workers, p.shards)
        .capacity(ShardCapacity::Bounded(p.capacity))
        .lane_capacity(p.lane_capacity);
    let programs = p.spec.programs();
    for (t, _) in &programs {
        cfg = cfg.tenant(*t, p.budget);
    }
    let service = ResolverService::start(cfg);
    let handles = programs
        .iter()
        .map(|(t, _)| service.handle(*t).expect("registered tenant"))
        .collect();
    Setup {
        service,
        handles,
        programs: programs.into_iter().map(|(_, prog)| prog).collect(),
        slots,
        accepted: 0,
    }
}

/// Offer `n` tasks closed-loop (blocking on backpressure) and wait
/// until all have run. Returns the elapsed time.
fn closed_loop(s: &mut Setup, body_ns: u64, n: usize) -> Duration {
    let t0 = Instant::now();
    for k in 0..n {
        let t = k % s.handles.len();
        let sub = s.programs[t][(k / s.handles.len()) % s.programs[t].len()].clone();
        let slots = Arc::clone(&s.slots);
        let task = ServiceTask::new(sub, move || slots.body(None, body_ns));
        s.handles[t]
            .submit_blocking(task)
            .unwrap_or_else(|_| panic!("service closed during warm-up"));
        s.accepted += 1;
    }
    wait_for(&s.slots, s.accepted, Duration::from_secs(30));
    t0.elapsed()
}

/// Wait until `n` bodies have run or `limit` passes.
fn wait_for(slots: &Slots, n: u64, limit: Duration) {
    let t0 = Instant::now();
    while slots.bodies.load(Ordering::Acquire) < n && t0.elapsed() <= limit {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let p = Params::for_size(cfg.size);
    let workers = cfg.workers();
    let measure_ns = cfg.measure.as_nanos() as f64;
    // Arrival slots for the whole timed phase, with headroom for the
    // Poisson count.
    let max_tasks = (p.rate_per_s * cfg.measure.as_secs_f64() * 1.2) as usize + 1024;
    let warm = p.spec.task_count() as usize * 4;
    let setup = || {
        let mut s = start(&p, workers, Slots::new(0, 0));
        closed_loop(&mut s, p.body_ns, warm);
        s
    };
    // Open-loop arrivals cannot pause, so set-ups are timed only before
    // and after the timed phase.
    let (mut s, setups) = Setups::first(setup);
    let rt = Arc::clone(s.service.runtime());
    let (sched0, wake0) = (rt.sched_counts(), rt.wake_counts());
    let denied0: u64 = s
        .service
        .tenant_counts()
        .iter()
        .map(|(_, c)| c.denied)
        .sum();
    let retries0 = capacity_retries(&s.service);

    // The open loop. Due times and body stamps are offsets from the
    // timed slots' epoch. Body start times feed only the traced
    // queue-time metrics.
    let mut rng = Rng::new(cfg.seed ^ 0x7E4A);
    let mean_gap_ns = 1e9 / p.rate_per_s;
    let mut cursor = vec![0usize; s.programs.len()];
    let mut due_ns: Vec<u64> = Vec::with_capacity(max_tasks);
    let mut accepted_flag: Vec<bool> = Vec::with_capacity(max_tasks);
    let traced_len = if cfg.traced { max_tasks } else { 0 };
    let mut accept_ns: Vec<u64> = Vec::with_capacity(traced_len);
    let mut late_ns: Vec<f64> = Vec::with_capacity(traced_len);
    let mut submit_ns: Vec<f64> = Vec::with_capacity(traced_len);
    let slots = Slots::new(max_tasks, if cfg.traced { max_tasks } else { 0 });
    let epoch = slots.epoch;
    let mut next_due = exp_gap(&mut rng, mean_gap_ns);
    while next_due < measure_ns && due_ns.len() < max_tasks {
        let now = epoch.elapsed().as_nanos() as f64;
        if next_due > now {
            // Sleep even for short gaps: a spinning client would take a
            // CPU the service needs. The kernel's timer slack then wakes
            // the client a few arrivals at a time; that lateness counts
            // in the latency and is reported as client.late_us_p99.
            std::thread::sleep(Duration::from_nanos((next_due - now) as u64));
            continue;
        }
        let k = due_ns.len();
        let t = rng.gen_range(s.programs.len() as u64) as usize;
        let prog = &s.programs[t];
        let mut sub = prog[cursor[t] % prog.len()].clone();
        cursor[t] += 1;
        sub.tag = k as u64;
        let body_slots = Arc::clone(&slots);
        let body_ns = p.body_ns;
        let task = ServiceTask::new(sub, move || body_slots.body(Some(k), body_ns));
        let a = Instant::now();
        let res = s.handles[t].try_submit(task);
        let b = Instant::now();
        spans.record("service.try_submit", k as u32, None, a, b);
        due_ns.push(next_due as u64);
        if cfg.traced {
            submit_ns.push((b - a).as_nanos() as f64);
            late_ns.push(a.saturating_duration_since(epoch).as_nanos() as f64 - next_due);
            accept_ns.push(b.saturating_duration_since(epoch).as_nanos() as u64);
        }
        match res {
            Ok(()) => accepted_flag.push(true),
            Err(IngressError::Backpressure(_)) => accepted_flag.push(false),
            Err(IngressError::Closed(_)) => {
                accepted_flag.push(false);
                break;
            }
        }
        next_due += exp_gap(&mut rng, mean_gap_ns);
    }
    let offered = due_ns.len();
    let window_s = epoch.elapsed().as_secs_f64();
    let accepted_timed = accepted_flag.iter().filter(|&&a| a).count() as u64;
    // A task still not run after this counts as lost.
    wait_for(&slots, accepted_timed, Duration::from_secs(30));

    let retries = capacity_retries(&s.service) - retries0;
    let denied: u64 = s
        .service
        .tenant_counts()
        .iter()
        .map(|(_, c)| c.denied)
        .sum::<u64>()
        - denied0;
    let (sched1, wake1) = (rt.sched_counts(), rt.wake_counts());
    let capacity_per_s = if cfg.traced {
        let n = p.rate_per_s as usize;
        n as f64 / closed_loop(&mut s, p.body_ns, n).as_secs_f64()
    } else {
        0.0
    };
    let report = s.service.shutdown();

    // Latencies; refused or never-run tasks miss every limit.
    let mut lat_ms = Vec::with_capacity(offered);
    let mut queue_us = Vec::new();
    let mut missing = 0u64;
    let mut completed = 0u64;
    for k in 0..offered {
        let end = slots.end_ns[k].load(Ordering::Relaxed);
        if accepted_flag[k] && end > 0 {
            completed += 1;
            lat_ms.push(end.saturating_sub(due_ns[k]) as f64 / 1e6);
            if let (Some(start), Some(&accept)) = (slots.start_ns.get(k), accept_ns.get(k)) {
                let start = start.load(Ordering::Relaxed);
                queue_us.push(start.saturating_sub(accept) as f64 / 1e3);
            }
        } else {
            missing += 1;
            lat_ms.push(f64::INFINITY);
        }
    }
    lat_ms.sort_by(f64::total_cmp);

    let mut out = Outcome {
        attempted: offered as u64,
        failed: missing,
        ..Outcome::default()
    };
    let peaks: Vec<(u64, u64)> = report
        .tenants
        .iter()
        .map(|(_, c)| (c.peak, c.cap))
        .collect();
    let body_runs = s.slots.bodies.load(Ordering::Acquire) + slots.bodies.load(Ordering::Acquire);
    let check = checks::tenant(
        s.accepted + accepted_timed,
        report.runtime.executed,
        report.runtime.cancelled,
        report.dropped_ingress,
        body_runs,
        &peaks,
    );
    // The accounting check counts as one more operation; it fails too
    // when the service did not shut down gracefully.
    out.attempted += 1;
    let check = check.and_then(|()| {
        if report.graceful {
            Ok(())
        } else {
            Err("service shutdown was not graceful".to_string())
        }
    });
    if let Err(e) = check {
        out.failed += 1;
        out.notes.push(e);
    }
    out.correct = out.failed == 0;
    out.notes.push(format!(
        "tenant-stream: {offered} tasks offered at {} /s over {window_s:.2} s, {missing} refused or lost; \
         {} tenants, budget {}, {} workers + 1 client thread",
        p.rate_per_s,
        s.programs.len(),
        p.budget,
        workers
    ));
    let m = &mut out.metrics;
    if cfg.traced {
        m.push("service.try_submit_ns_p50", median(&submit_ns), "ns");
        m.push(
            "service.try_submit_ns_p99",
            quantile(&submit_ns, 0.99),
            "ns",
        );
        m.push("service.queue_us_p50", median(&queue_us), "us");
        m.push("service.queue_us_p99", quantile(&queue_us, 0.99), "us");
        m.push(
            "service.refused_frac",
            (offered as u64 - accepted_timed) as f64 / offered.max(1) as f64,
            "frac",
        );
        m.push(
            "service.budget_denied_per_task",
            denied as f64 / accepted_timed.max(1) as f64,
            "1/task",
        );
        m.push(
            "service.capacity_retries_per_task",
            retries as f64 / accepted_timed.max(1) as f64,
            "1/task",
        );
        m.push("service.closed_loop_tasks_per_s", capacity_per_s, "1/s");
        m.push("client.late_us_p99", quantile(&late_ns, 0.99) / 1e3, "us");
        push_counts(
            m,
            &delta_sched(&sched1, &sched0),
            &delta_wake(&wake1, &wake0),
            accepted_timed,
        );
        common::push_tails(m, &lat_ms);
    } else {
        m.push("setup_s", setups.finish(setup), "s");
        m.push("op_ms_p50", quantile_sorted(&lat_ms, 0.5), "ms");
        m.push("tasks_per_s", completed as f64 / window_s, "1/s");
    }
    out
}

/// An exponentially distributed gap with the given mean.
fn exp_gap(rng: &mut Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen_f64()).ln()
}

/// Capacity rejections absorbed by the ingress retry slots, summed over
/// tenants, from the service's metrics registry.
fn capacity_retries(service: &ResolverService) -> u64 {
    service
        .tenant_counts()
        .iter()
        .map(|(t, _)| {
            service
                .metrics_snapshot()
                .get(&t.to_string(), "capacity_retries")
                .unwrap_or(0)
        })
        .sum()
}
