//! `paper-model`: the Task Machine (`taskmachine::simulate_trace`) and
//! the software-runtime model (`baseline::simulate_software_rts`) on the
//! paper's H.264 wavefront and independent-task traces, at 1 and 64
//! workers. Single-threaded and deterministic: the simulated speedups of
//! a seed repeat exactly, only the host time varies.

use crate::checks::{self, PaperResult};
use crate::common::{self, median, Outcome, Setups};
use crate::spans::Spans;
use crate::RunConfig;
use nexuspp::baseline::{simulate_software_rts, SoftwareRtsConfig};
use nexuspp::desim::SimTime;
use nexuspp::hw::MemoryConfig;
use nexuspp::taskmachine::{simulate_trace, MachineConfig};
use nexuspp::trace::Trace;
use nexuspp::workloads::{GridPattern, GridSpec};
use std::time::Instant;

/// Worker count of the paper's headline configuration.
pub const WORKERS: usize = 64;

/// The two traces for `seed` (the seed drives the timing jitter). Every
/// size uses the paper's grid: the paper-claim bands hold only there,
/// and one repetition takes well under a second.
pub fn traces(seed: u64) -> (Trace, Trace) {
    let grid = GridSpec {
        seed,
        ..GridSpec::default()
    };
    (
        grid.generate(GridPattern::Wavefront),
        grid.generate(GridPattern::Independent),
    )
}

/// Makespans of one repetition: each model at 1 and 64 workers on each
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Makespans {
    /// Task Machine `[wavefront, independent]` at `[1, 64]` workers.
    pub tm: [[SimTime; 2]; 2],
    /// Software runtime `[wavefront, independent]` at `[1, 64]` workers.
    pub sw: [[SimTime; 2]; 2],
}

impl Makespans {
    /// The speedups the checks and metrics use.
    pub fn result(&self) -> PaperResult {
        let s = |m: [SimTime; 2]| m[0] / m[1];
        PaperResult {
            tm_wavefront_64: s(self.tm[0]),
            tm_independent_64: s(self.tm[1]),
            sw_wavefront_64: s(self.sw[0]),
            sw_independent_64: s(self.sw[1]),
            sw_over_tm_independent_64: self.sw[1][1] / self.tm[1][1],
        }
    }
}

/// Host time spent per model in one repetition.
struct HostTime {
    tm_ms: Vec<f64>,
    sw_ms: Vec<f64>,
}

/// One repetition: eight simulations.
fn repetition(traces: [&Trace; 2], host: &mut HostTime, spans: &mut Spans, rep: u32) -> Makespans {
    let parent = spans.open("paper.repetition", rep, None);
    let mut tm = [[SimTime::ZERO; 2]; 2];
    let mut sw = [[SimTime::ZERO; 2]; 2];
    let (rts, mem) = (SoftwareRtsConfig::default(), MemoryConfig::default());
    for (k, trace) in traces.iter().enumerate() {
        for (w, workers) in [1, WORKERS].into_iter().enumerate() {
            let t0 = Instant::now();
            tm[k][w] = simulate_trace(MachineConfig::with_workers(workers), trace)
                .expect("the Task Machine simulates the paper's traces")
                .makespan;
            let t1 = Instant::now();
            let mut src = (*trace).clone().into_source();
            let t2 = Instant::now();
            sw[k][w] = simulate_software_rts(&mut src, workers, &rts, &mem);
            let t3 = Instant::now();
            spans.record("taskmachine.simulate_trace", rep, Some(parent), t0, t1);
            spans.record("baseline.simulate_software_rts", rep, Some(parent), t2, t3);
            host.tm_ms.push(common::ms(t1 - t0));
            host.sw_ms.push(common::ms(t3 - t2));
        }
    }
    spans.close(parent);
    Makespans { tm, sw }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    // Set-up generates the traces and warms up with one repetition.
    let setup = || {
        let (wave, indep) = traces(cfg.seed);
        let mut host = HostTime {
            tm_ms: Vec::new(),
            sw_ms: Vec::new(),
        };
        repetition([&wave, &indep], &mut host, &mut Spans::new(false, 0), 0);
        (wave, indep)
    };
    let ((wave, indep), mut setups) = Setups::first(setup);
    let n_sim_tasks = 4.0 * (wave.len() + indep.len()) as f64;
    let mut host = HostTime {
        tm_ms: Vec::new(),
        sw_ms: Vec::new(),
    };
    let mut rep_ms = Vec::new();
    let mut out = Outcome::default();
    let mut first: Option<Makespans> = None;
    let start = Instant::now();
    while start.elapsed() < cfg.measure || rep_ms.is_empty() {
        let t0 = Instant::now();
        let m = repetition([&wave, &indep], &mut host, spans, rep_ms.len() as u32);
        rep_ms.push(common::ms(t0.elapsed()));
        out.attempted += 1;
        let check = match first {
            None => checks::paper(&m.result()),
            Some(f) if f == m => Ok(()),
            Some(_) => Err("simulated makespans differ between repetitions".to_string()),
        };
        if let Err(e) = check {
            out.failed += 1;
            out.notes.push(format!("repetition {}: {e}", rep_ms.len()));
        }
        first.get_or_insert(m);
        if !cfg.traced {
            setups.between(setup);
        }
    }
    out.correct = out.failed == 0;
    let r = first.expect("at least one repetition ran").result();
    out.notes.push(format!(
        "paper-model: {} repetitions of 8 simulations ({} + {} tasks); speedup at {WORKERS} workers: \
         Task Machine {:.2} (independent) / {:.2} (wavefront), software runtime {:.2} / {:.2}",
        rep_ms.len(),
        wave.len(),
        indep.len(),
        r.tm_independent_64,
        r.tm_wavefront_64,
        r.sw_independent_64,
        r.sw_wavefront_64
    ));
    let timed_s = rep_ms.iter().sum::<f64>() / 1e3;
    let m = &mut out.metrics;
    if cfg.traced {
        m.push("taskmachine.host_ms_per_sim", median(&host.tm_ms), "ms");
        m.push("baseline.software_rts_host_ms", median(&host.sw_ms), "ms");
        m.push("taskmachine.speedup_64", r.tm_independent_64, "x");
        m.push("taskmachine.speedup_64_wavefront", r.tm_wavefront_64, "x");
        m.push("baseline.software_rts_speedup_64", r.sw_independent_64, "x");
        m.push(
            "baseline.software_rts_speedup_64_wavefront",
            r.sw_wavefront_64,
            "x",
        );
        common::push_tails(m, &rep_ms);
    } else {
        m.push("setup_s", setups.finish(setup), "s");
        m.push("op_ms_p50", median(&rep_ms), "ms");
        m.push(
            "tasks_per_s",
            n_sim_tasks * rep_ms.len() as f64 / timed_s,
            "1/s",
        );
    }
    out
}
