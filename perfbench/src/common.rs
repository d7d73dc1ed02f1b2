//! Shared pieces: statistics, the metric lists, repeated set-up and the
//! result line.

use std::time::{Duration, Instant};

/// Every per-layer metric the traced mode prints, with its unit. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    // wavefront: the cumulative ledger, one stage per layer.
    ("frontend.declare_ns_per_task", "ns"),
    ("frontend.lower_ns_per_task", "ns"),
    ("shard.engine_ns_per_task", "ns"),
    ("shard.dispatcher_ns_per_task", "ns"),
    ("runtime.increment_ns_per_task", "ns"),
    ("ledger.full_stack_ns_per_task", "ns"),
    ("ledger.full_stack_ms", "ms"),
    ("runtime.spawn_ns_p50", "ns"),
    ("runtime.spawn_ns_per_task", "ns"),
    ("runtime.barrier_tail_ms", "ms"),
    ("runtime.worker_busy_frac", "frac"),
    ("obs.recorder_overhead_frac", "frac"),
    ("trace.overhead_ms", "ms"),
    ("ref.software_rts_model_ns_per_task", "ns"),
    ("ref.taskmachine_sim_ns_per_task", "ns"),
    // wavefront and tenant-stream: scheduler and wake-path counters.
    ("sched.steals_per_task", "1/task"),
    ("sched.parks_per_task", "1/task"),
    ("sched.unparks_per_task", "1/task"),
    ("sched.wake_batches_per_task", "1/task"),
    ("wake.delivered_per_delivery", "count"),
    ("wake.delivery_ns_per_task", "ns"),
    ("wake.lock_acquisitions", "count"),
    // tenant-stream: admission.
    ("service.try_submit_ns_p50", "ns"),
    ("service.try_submit_ns_p99", "ns"),
    ("service.queue_us_p50", "us"),
    ("service.queue_us_p99", "us"),
    ("service.refused_frac", "frac"),
    ("service.budget_denied_per_task", "1/task"),
    ("service.capacity_retries_per_task", "1/task"),
    ("service.closed_loop_tasks_per_s", "1/s"),
    ("client.late_us_p99", "us"),
    // stencil-edits: the incremental layer.
    ("incr.commit_seed_us_p50", "us"),
    ("incr.commit_struct_us_p50", "us"),
    ("incr.rerun_us_p50", "us"),
    ("incr.reran_per_edit", "count"),
    ("incr.dirtied_per_edit", "count"),
    ("incr.order_ops_per_edit", "count"),
    ("incr.reuse_frac", "frac"),
    // paper-model: the simulators.
    ("taskmachine.host_ms_per_sim", "ms"),
    ("baseline.software_rts_host_ms", "ms"),
    ("taskmachine.speedup_64", "x"),
    ("taskmachine.speedup_64_wavefront", "x"),
    ("baseline.software_rts_speedup_64", "x"),
    ("baseline.software_rts_speedup_64_wavefront", "x"),
    // every workload: tails of the end-to-end operation time and peak
    // memory (too noisy on a shared 2-CPU host to gate on: wavefront's
    // heap ratchets up with rare scheduling events), failures, spans.
    ("op_ms_p95", "ms"),
    ("op_ms_p99", "ms"),
    ("op_samples", "count"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "frac"),
    ("spans.recorded", "count"),
];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("tasks_per_s", "1/s"),
];

/// The `p` quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, p)
}

/// [`quantile`] over already sorted values.
pub fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (v[lo], v[hi]);
    if a == b {
        a
    } else {
        a + (b - a) * (pos - lo as f64)
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail metrics of an operation-time sample (ms): p95, p99 and
/// the sample count, so a reader can tell how many samples lie beyond.
pub fn push_tails(m: &mut Metrics, samples_ms: &[f64]) {
    m.push("op_ms_p95", quantile(samples_ms, 0.95), "ms");
    m.push("op_ms_p99", quantile(samples_ms, 0.99), "ms");
    m.push("op_samples", samples_ms.len() as f64, "count");
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Busy-wait for `ns` nanoseconds (a task body standing in for real
/// work), returning the time actually spent.
pub fn spin(ns: u64) -> u64 {
    let start = Instant::now();
    let want = Duration::from_nanos(ns);
    loop {
        let spent = start.elapsed();
        if spent >= want {
            return spent.as_nanos() as u64;
        }
        std::hint::spin_loop();
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed before the timed phase, and as many after it.
pub const SETUPS: usize = 6;
/// How often a closed-loop workload times one more set-up during its
/// timed phase.
pub const SETUP_EVERY: Duration = Duration::from_secs(2);

/// The set-up times of one run; `setup_s` is their median. The first
/// two or three set-ups of a process run cold (page faults, a fresh
/// heap), and the host's speed changes over seconds with other load on
/// it, so set-ups are timed at many moments of the run: [`SETUPS`]
/// before the timed phase, one every [`SETUP_EVERY`] during it where the
/// workload can pause, and [`SETUPS`] after it.
pub struct Setups {
    secs: Vec<f64>,
    last: Instant,
}

impl Setups {
    /// Run `setup` [`SETUPS`] times, keeping the last result. Earlier
    /// results are dropped (their runtimes shut down) before the next
    /// set-up starts.
    pub fn first<T>(mut setup: impl FnMut() -> T) -> (T, Setups) {
        let mut s = Setups {
            secs: Vec::new(),
            last: Instant::now(),
        };
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            last = Some(s.time(&mut setup));
        }
        (last.expect("at least one set-up ran"), s)
    }

    fn time<T>(&mut self, setup: &mut impl FnMut() -> T) -> T {
        let t0 = Instant::now();
        let v = setup();
        self.secs.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        v
    }

    /// Time one more set-up, dropping its result, if [`SETUP_EVERY`]
    /// has passed since the last one ended.
    pub fn between<T>(&mut self, mut setup: impl FnMut() -> T) {
        if self.last.elapsed() >= SETUP_EVERY {
            drop(self.time(&mut setup));
        }
    }

    /// Time [`SETUPS`] more set-ups and return the median of all, in
    /// seconds.
    pub fn finish<T>(mut self, mut setup: impl FnMut() -> T) -> f64 {
        for _ in 0..SETUPS {
            drop(self.time(&mut setup));
        }
        median(&self.secs)
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Record one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Add every metric of `list` not yet recorded, with value 0: the
    /// layer was not exercised by this workload.
    pub fn fill_missing(&mut self, list: &[(&str, &str)]) {
        for (name, unit) in list {
            if self.get(name).is_none() {
                self.push(name, 0.0, unit);
            }
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (the workload defines its operation).
    pub attempted: u64,
    /// Operations that failed: refused, never executed, or part of a
    /// repetition whose output check failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| {
                // A latency that never ended (a refused task) is infinite;
                // JSON has no infinity, so it prints as the largest float.
                let v = if v.is_finite() { *v } else { f64::MAX };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
