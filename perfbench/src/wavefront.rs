//! `wavefront`: the paper's 120×68 H.264 macroblock wavefront, declared
//! by name through the frontend, lowered `Renamed`, and spawned from one
//! master thread on `ShardedRuntime`.
//!
//! The untraced run times whole programs, from the first declaration
//! until `barrier` returns. The traced run builds the cumulative ledger:
//! each stage runs the same program through one more layer, and each
//! layer's number is what its stage adds over the one before.

use crate::checks;
use crate::common::{self, median, Metrics, Outcome, Setups};
use crate::spans::{SpanId, Spans};
use crate::{RunConfig, Size};
use nexuspp::baseline::SoftwareRtsConfig;
use nexuspp::core::{NexusConfig, ShardCapacity, Submission};
use nexuspp::frontend::{LoweredProgram, Lowering, Program};
use nexuspp::obs::Recorder;
use nexuspp::runtime::{SchedCounts, SchedulerKind, ShardedRuntime, WakeCounts, WakeMode};
use nexuspp::shard::{ShardDispatcher, ShardedEngine};
use nexuspp::taskmachine::{simulate_trace, MachineConfig};
use nexuspp::trace::{MemCost, Trace};
use nexuspp::workloads::{GridPattern, GridSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dependence-table shards of every resolver in this workload.
pub const SHARDS: usize = 4;
/// Task bodies spin for the trace's execution time divided by this.
pub const SPIN_DIVISOR: f64 = 10.0;
/// The simulated function every macroblock task calls.
const DECODE: u64 = 0xDEC0DE;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Input {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Resource name of macroblock `X[i][j]`, row-major.
    pub names: Vec<String>,
    /// Body spin time per task, row-major.
    pub spin_ns: Vec<u64>,
    /// The hand-addressed trace's RAW edges `(producer, consumer)`,
    /// sorted.
    pub expected_edges: Vec<(u64, u64)>,
    /// The hand-addressed trace itself (its timing drives the bodies).
    pub trace: Trace,
}

impl Input {
    /// Generate the grid for `seed` (the seed drives the per-task
    /// execution-time jitter).
    pub fn generate(size: Size, seed: u64) -> Input {
        let grid = match size {
            Size::Full => GridSpec::default(),
            Size::Tiny => GridSpec {
                rows: 6,
                cols: 5,
                ..GridSpec::default()
            },
        };
        let grid = GridSpec { seed, ..grid };
        let trace = grid.generate(GridPattern::Wavefront);
        let names = (0..grid.rows)
            .flat_map(|i| (0..grid.cols).map(move |j| format!("X[{i}][{j}]")))
            .collect();
        let spin_ns = trace
            .tasks
            .iter()
            .map(|t| (t.exec.as_ns_f64() / SPIN_DIVISOR) as u64)
            .collect();
        Input {
            rows: grid.rows,
            cols: grid.cols,
            names,
            spin_ns,
            expected_edges: raw_edges(&trace),
            trace,
        }
    }

    /// Tasks in the program.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The true (read-after-write) dependence edges of a hand-addressed
/// trace, as `(producer id, consumer id)` sorted.
pub fn raw_edges(trace: &Trace) -> Vec<(u64, u64)> {
    let mut last_writer: HashMap<u64, u64> = HashMap::new();
    let mut edges = Vec::new();
    for t in &trace.tasks {
        for p in &t.params {
            if p.mode.reads() {
                if let Some(&w) = last_writer.get(&p.addr) {
                    edges.push((w, t.id));
                }
            }
        }
        for p in &t.params {
            if p.mode.writes() {
                last_writer.insert(p.addr, t.id);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Declare the wavefront by name:
/// `decode(X[i][j-1], X[i-1][j+1], inout X[i][j])`, row-major.
pub fn declare(input: &Input) -> Program {
    let (rows, cols) = (input.rows as usize, input.cols as usize);
    let mut p = Program::new();
    for i in 0..rows {
        for j in 0..cols {
            let id = i * cols + j;
            let mut t = p.task(DECODE);
            if j > 0 {
                t = t.reads(&input.names[id - 1]);
            }
            if i > 0 && j + 1 < cols {
                t = t.reads(&input.names[id - cols + 1]);
            }
            t.read_writes(&input.names[id])
                .submit()
                .expect("wavefront reads only blocks written earlier");
        }
    }
    p
}

/// Lower a declared wavefront with renaming.
pub fn lower(p: &Program) -> LoweredProgram {
    p.lower(Lowering::Renamed)
        .expect("the wavefront lowers without cycles")
}

/// What task bodies record: how often each task ran, in which order,
/// and how long bodies spun.
pub struct Exec {
    runs: Vec<AtomicU32>,
    order: Vec<AtomicU64>,
    pos: AtomicUsize,
    busy_ns: AtomicU64,
    spin_ns: Vec<u64>,
}

impl Exec {
    /// Logs for a program of `spin_ns.len()` tasks.
    pub fn new(spin_ns: &[u64]) -> Exec {
        Exec {
            runs: spin_ns.iter().map(|_| AtomicU32::new(0)).collect(),
            order: spin_ns.iter().map(|_| AtomicU64::new(0)).collect(),
            pos: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            spin_ns: spin_ns.to_vec(),
        }
    }

    fn reset(&self) {
        for r in &self.runs {
            r.store(0, Ordering::Relaxed);
        }
        self.pos.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
    }

    /// The body of task `tag`.
    fn body(&self, tag: u64) {
        let spent = common::spin(self.spin_ns[tag as usize]);
        self.runs[tag as usize].fetch_add(1, Ordering::Relaxed);
        let k = self.pos.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.order.get(k) {
            slot.store(tag, Ordering::Relaxed);
        }
        self.busy_ns.fetch_add(spent, Ordering::Relaxed);
    }

    /// Run counts per task and the executed order (read after a
    /// barrier, which orders every body before it).
    fn snapshot(&self) -> (Vec<u32>, Vec<u64>) {
        let runs = self
            .runs
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();
        let n = self.pos.load(Ordering::Relaxed).min(self.order.len());
        let order = self.order[..n]
            .iter()
            .map(|o| o.load(Ordering::Relaxed))
            .collect();
        (runs, order)
    }
}

/// Timings of one full-stack repetition.
#[derive(Debug, Clone, Copy)]
pub struct RepTiming {
    /// First declaration until `barrier` returned.
    pub total: Duration,
    /// The spawn loop (master side).
    pub spawn: Duration,
    /// From the last spawn until `barrier` returned.
    pub barrier_tail: Duration,
    /// Body time over workers × total.
    pub busy_frac: f64,
}

/// Where a traced repetition records its `spawn_lowered` calls: as spans
/// under `parent`, and as durations in `spawn_ns` (kept in full even when
/// the span recorder is past its cap).
pub struct SpawnTrace<'a> {
    /// The span recorder.
    pub spans: &'a mut Spans,
    /// Repetition id of the spans.
    pub rep: u32,
    /// Parent span of every call.
    pub parent: Option<SpanId>,
    /// Every call's duration in ns.
    pub spawn_ns: &'a mut Vec<f64>,
}

/// One whole program on `rt`: declare, lower, spawn every task, barrier.
/// With `trace`, every `spawn_lowered` call is timed and recorded.
/// Returns the timing and the check result.
pub fn full_stack(
    rt: &ShardedRuntime,
    workers: usize,
    input: &Input,
    exec: &Arc<Exec>,
    mut trace: Option<SpawnTrace>,
) -> (RepTiming, Result<(), String>) {
    exec.reset();
    let t0 = Instant::now();
    let program = declare(input);
    let LoweredProgram {
        lowering,
        tasks,
        edges,
    } = lower(&program);
    let t_spawn = Instant::now();
    for sub in tasks {
        let tag = sub.tag;
        let e = Arc::clone(exec);
        match trace.as_mut() {
            None => rt.spawn_lowered(sub, move || e.body(tag)),
            Some(t) => {
                let a = Instant::now();
                rt.spawn_lowered(sub, move || e.body(tag));
                let b = Instant::now();
                t.spans
                    .record("runtime.spawn_lowered", t.rep, t.parent, a, b);
                t.spawn_ns.push((b - a).as_nanos() as f64);
            }
        }
    }
    let t_spawned = Instant::now();
    rt.barrier();
    let t_end = Instant::now();
    let total = t_end - t0;
    let busy = exec.busy_ns.load(Ordering::Relaxed) as f64;
    let timing = RepTiming {
        total,
        spawn: t_spawned - t_spawn,
        barrier_tail: t_end - t_spawned,
        busy_frac: busy / (workers as f64 * total.as_nanos() as f64),
    };
    drop(program);
    let (runs, order) = exec.snapshot();
    let lowered = LoweredProgram {
        lowering,
        tasks: Vec::new(),
        edges,
    };
    (
        timing,
        checks::wavefront(&input.expected_edges, &lowered, &runs, &order),
    )
}

/// Ledger stage 3: drain the lowered stream single-threadedly through a
/// fresh `ShardedEngine` (`submit_task` everything, then `finish` in
/// ready order). Returns the tasks retired.
pub fn engine_drain(tasks: Vec<Submission>) -> usize {
    let mut eng = ShardedEngine::new(SHARDS, &NexusConfig::unbounded());
    let mut ready = VecDeque::new();
    for sub in tasks {
        let (id, is_ready) = eng.submit_task(sub).expect("unbounded engine admits all");
        if is_ready {
            ready.push_back(id);
        }
    }
    let mut done = 0;
    while let Some(id) = ready.pop_front() {
        done += 1;
        ready.extend(eng.finish(id).newly_ready);
    }
    done
}

/// Ledger stage 4: the same drain as [`engine_drain`] through a fresh
/// `ShardDispatcher` instead, still on this one thread (`submit`
/// everything, then `finish` in ready order). The difference to stage 3
/// is the cost of the dispatcher's shard locks, finish rings and wake
/// lists, without any parallelism to hide it. Returns the tasks retired.
pub fn dispatcher_drain(tasks: Vec<Submission>) -> usize {
    let d = ShardDispatcher::<()>::new(SHARDS, &NexusConfig::unbounded());
    let mut ready = VecDeque::new();
    for sub in tasks {
        let (fptr, tag, params) = sub.into_parts();
        let res = d.submit(fptr, tag, &params, ());
        if res.ready.is_some() {
            ready.push_back(res.ticket);
        }
    }
    let mut done = 0;
    while let Some(ticket) = ready.pop_front() {
        let rep = d.finish(ticket);
        done += rep.completed as usize;
        ready.extend(rep.woken.into_iter().map(|(t, ())| t));
    }
    done
}

struct Setup {
    input: Input,
    exec: Arc<Exec>,
    rt: ShardedRuntime,
}

fn setup(cfg: &RunConfig) -> Setup {
    let input = Input::generate(cfg.size, cfg.seed);
    let exec = Arc::new(Exec::new(&input.spin_ns));
    let rt = ShardedRuntime::new(cfg.workers(), SHARDS);
    for _ in 0..3 {
        let (_, ok) = full_stack(&rt, cfg.workers(), &input, &exec, None);
        ok.expect("warm-up repetition passes its check");
    }
    Setup { input, exec, rt }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    if cfg.traced {
        return run_traced(cfg, spans);
    }
    let (s, mut setups) = Setups::first(|| setup(cfg));
    let n = s.input.len() as f64;
    let mut out = Outcome::default();
    let mut makespans = Vec::new();
    let start = Instant::now();
    while start.elapsed() < cfg.measure {
        let (t, ok) = full_stack(&s.rt, cfg.workers(), &s.input, &s.exec, None);
        out.attempted += 1;
        if let Err(e) = ok {
            out.failed += 1;
            out.notes.push(format!("repetition {}: {e}", out.attempted));
        }
        makespans.push(common::ms(t.total));
        setups.between(|| setup(cfg));
    }
    drop(s);
    let setup_s = setups.finish(|| setup(cfg));
    let timed_s: f64 = makespans.iter().sum::<f64>() / 1e3;
    out.correct = out.failed == 0;
    out.notes.push(format!(
        "wavefront: {} repetitions of {} tasks, {} workers",
        makespans.len(),
        n,
        cfg.workers()
    ));
    let m = &mut out.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("op_ms_p50", median(&makespans), "ms");
    m.push("tasks_per_s", n * makespans.len() as f64 / timed_s, "1/s");
    out
}

/// Per-stage samples of the traced run, in ms per repetition.
#[derive(Default)]
struct Ledger {
    declare: Vec<f64>,
    lower: Vec<f64>,
    engine: Vec<f64>,
    dispatcher: Vec<f64>,
    full: Vec<f64>,
    full_traced: Vec<f64>,
    full_recorder: Vec<f64>,
    spawn: Vec<f64>,
    tail: Vec<f64>,
    busy: Vec<f64>,
}

fn run_traced(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let s = setup(cfg);
    let workers = cfg.workers();
    let n = s.input.len();
    let nf = n as f64;
    let recorder = Arc::new(Recorder::new(workers));
    let rt_rec = ShardedRuntime::with_recorder(
        workers,
        SHARDS,
        SchedulerKind::default(),
        ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&recorder),
    );
    let mut out = Outcome::default();
    let mut l = Ledger::default();
    let mut spawn_ns = Vec::new();
    let check = |out: &mut Outcome, r: Result<(), String>| {
        out.attempted += 1;
        if let Err(e) = r {
            out.failed += 1;
            out.notes.push(e);
        }
    };
    let (sched0, wake0) = (s.rt.sched_counts(), s.rt.wake_counts());
    let mut rt_tasks = 0u64;
    let start = Instant::now();
    let mut rep = 0u32;
    while start.elapsed() < cfg.measure {
        let round = spans.open("wavefront.round", rep, None);
        let stage = |spans: &mut Spans, name, f: &mut dyn FnMut()| {
            let id = spans.open(name, rep, Some(round));
            let t0 = Instant::now();
            f();
            let d = common::ms(t0.elapsed());
            spans.close(id);
            d
        };
        l.declare.push(stage(spans, "frontend.declare", &mut || {
            drop(std::hint::black_box(declare(&s.input)));
        }));
        l.lower.push(stage(spans, "frontend.lower", &mut || {
            drop(std::hint::black_box(lower(&declare(&s.input))));
        }));
        let mut retired = 0;
        l.engine.push(stage(spans, "shard.engine", &mut || {
            retired = engine_drain(lower(&declare(&s.input)).tasks);
        }));
        check(&mut out, count_check("engine", retired, n));
        l.dispatcher.push(stage(spans, "shard.dispatcher", &mut || {
            retired = dispatcher_drain(lower(&declare(&s.input)).tasks);
        }));
        check(&mut out, count_check("dispatcher", retired, n));

        // The three full-stack variants run in a rotating order, so none
        // always follows the dispatcher stage.
        for variant in (0..3).map(|k| (k + rep as usize) % 3) {
            match variant {
                0 => {
                    let id = spans.open("runtime.full_stack", rep, Some(round));
                    let (t, ok) = full_stack(&s.rt, workers, &s.input, &s.exec, None);
                    spans.close(id);
                    check(&mut out, ok);
                    l.full.push(common::ms(t.total));
                    l.spawn.push(t.spawn.as_nanos() as f64 / nf);
                    l.tail.push(common::ms(t.barrier_tail));
                    l.busy.push(t.busy_frac);
                }
                1 => {
                    let id = spans.open("runtime.full_stack_traced", rep, Some(round));
                    let traced = Some(SpawnTrace {
                        spans: &mut *spans,
                        rep,
                        parent: Some(id),
                        spawn_ns: &mut spawn_ns,
                    });
                    let (t, ok) = full_stack(&s.rt, workers, &s.input, &s.exec, traced);
                    spans.close(id);
                    check(&mut out, ok);
                    l.full_traced.push(common::ms(t.total));
                }
                _ => {
                    let id = spans.open("runtime.full_stack_recorder", rep, Some(round));
                    let (t, ok) = full_stack(&rt_rec, workers, &s.input, &s.exec, None);
                    spans.close(id);
                    check(&mut out, ok);
                    l.full_recorder.push(common::ms(t.total));
                    drop(recorder.drain());
                }
            }
        }
        rt_tasks += 2 * n as u64;

        spans.close(round);
        rep += 1;
    }
    out.correct = out.failed == 0;

    let per_task = |v: &[f64]| median(v) * 1e6 / nf;
    let stages = [
        per_task(&l.declare),
        per_task(&l.lower),
        per_task(&l.engine),
        per_task(&l.dispatcher),
        per_task(&l.full),
    ];
    let m = &mut out.metrics;
    m.push("frontend.declare_ns_per_task", stages[0], "ns");
    m.push("frontend.lower_ns_per_task", stages[1] - stages[0], "ns");
    m.push("shard.engine_ns_per_task", stages[2] - stages[1], "ns");
    m.push("shard.dispatcher_ns_per_task", stages[3] - stages[2], "ns");
    m.push("runtime.increment_ns_per_task", stages[4] - stages[3], "ns");
    m.push("ledger.full_stack_ns_per_task", stages[4], "ns");
    m.push("ledger.full_stack_ms", median(&l.full), "ms");
    common::push_tails(m, &l.full);
    m.push("runtime.spawn_ns_p50", median(&spawn_ns), "ns");
    m.push("runtime.spawn_ns_per_task", median(&l.spawn), "ns");
    m.push("runtime.barrier_tail_ms", median(&l.tail), "ms");
    m.push("runtime.worker_busy_frac", median(&l.busy), "frac");
    m.push(
        "obs.recorder_overhead_frac",
        median(&l.full_recorder) / median(&l.full) - 1.0,
        "frac",
    );
    m.push(
        "trace.overhead_ms",
        median(&l.full_traced) - median(&l.full),
        "ms",
    );
    push_counts(
        m,
        &delta_sched(&s.rt.sched_counts(), &sched0),
        &delta_wake(&s.rt.wake_counts(), &wake0),
        rt_tasks,
    );

    let refs = references(&s.input, workers);
    m.push("ref.software_rts_model_ns_per_task", refs.0, "ns");
    m.push("ref.taskmachine_sim_ns_per_task", refs.1, "ns");
    out.notes.push(format!(
        "wavefront ledger over {rep} rounds ({n} tasks, {workers} workers), ns/task added per stage:"
    ));
    let labels = ["declare", "lower", "engine", "dispatcher", "runtime"];
    for (k, label) in labels.iter().enumerate() {
        let prev = if k == 0 { 0.0 } else { stages[k - 1] };
        out.notes.push(format!(
            "  {label:<11} {:>10.1}  (cumulative {:>10.1})",
            stages[k] - prev,
            stages[k]
        ));
    }
    out.notes.push(format!(
        "reference rows, per task: software-runtime model {:.1} ns, Task Machine simulated makespan {:.1} ns \
         (both models, not validated against real hardware); measured full stack {:.1} ns",
        refs.0, refs.1, stages[4]
    ));
    out
}

fn count_check(stage: &str, retired: usize, n: usize) -> Result<(), String> {
    if retired == n {
        Ok(())
    } else {
        Err(format!("{stage} stage retired {retired} of {n} tasks"))
    }
}

/// The two model rows beside the ledger: the software-runtime model's
/// master cost per task for the lowered program's parameter counts
/// (`submit_base + finish_base + per_param × params`, charged once on
/// submit and once on finish as `simulate_software_rts` does), and the
/// Task Machine's simulated makespan per task for the same trace as the
/// bodies run (execution time scaled down, no memory time) at the same
/// worker count.
pub fn references(input: &Input, workers: usize) -> (f64, f64) {
    let lp = lower(&declare(input));
    let params: usize = lp.tasks.iter().map(|t| t.params.len()).sum();
    let mean_params = params as f64 / lp.tasks.len() as f64;
    let c = SoftwareRtsConfig::default();
    let model = c.submit_base.as_ns_f64()
        + c.finish_base.as_ns_f64()
        + 2.0 * c.per_param.as_ns_f64() * mean_params;
    let mut scaled = input.trace.clone();
    for t in &mut scaled.tasks {
        t.exec = nexuspp::desim::SimTime::from_ns_f64(t.exec.as_ns_f64() / SPIN_DIVISOR);
        t.read = MemCost::None;
        t.write = MemCost::None;
    }
    let sim = simulate_trace(MachineConfig::with_workers(workers), &scaled)
        .expect("the Task Machine simulates the wavefront");
    (model, sim.makespan.as_ns_f64() / input.len() as f64)
}

/// Counter differences `now − before`.
pub fn delta_sched(now: &SchedCounts, before: &SchedCounts) -> SchedCounts {
    SchedCounts {
        submitted: now.submitted - before.submitted,
        local_pushes: now.local_pushes - before.local_pushes,
        local_pops: now.local_pops - before.local_pops,
        injector_pops: now.injector_pops - before.injector_pops,
        high_pops: now.high_pops - before.high_pops,
        steals: now.steals - before.steals,
        parks: now.parks - before.parks,
        unparks: now.unparks - before.unparks,
        wake_batches: now.wake_batches - before.wake_batches,
    }
}

/// Counter differences `now − before`.
pub fn delta_wake(now: &WakeCounts, before: &WakeCounts) -> WakeCounts {
    WakeCounts {
        delivered: now.delivered - before.delivered,
        deliveries: now.deliveries - before.deliveries,
        delivery_ns: now.delivery_ns - before.delivery_ns,
        delivery_lock_acquisitions: now.delivery_lock_acquisitions
            - before.delivery_lock_acquisitions,
    }
}

/// The scheduler and wake-path metrics, per task over `tasks`.
pub fn push_counts(m: &mut Metrics, s: &SchedCounts, w: &WakeCounts, tasks: u64) {
    let per = |v: u64| v as f64 / tasks.max(1) as f64;
    m.push("sched.steals_per_task", per(s.steals), "1/task");
    m.push("sched.parks_per_task", per(s.parks), "1/task");
    m.push("sched.unparks_per_task", per(s.unparks), "1/task");
    m.push("sched.wake_batches_per_task", per(s.wake_batches), "1/task");
    m.push(
        "wake.delivered_per_delivery",
        w.delivered as f64 / w.deliveries.max(1) as f64,
        "count",
    );
    m.push("wake.delivery_ns_per_task", per(w.delivery_ns), "ns");
    m.push(
        "wake.lock_acquisitions",
        w.delivery_lock_acquisitions as f64,
        "count",
    );
}
