//! The nexuspp benchmark: four workloads driven through the public API
//! of the resolver stack, each output checked, each timing reported
//! with its unit.
//!
//! * [`wavefront`] — the paper's 120×68 H.264 macroblock wavefront,
//!   declared by name, lowered `Renamed`, spawned on `ShardedRuntime`.
//! * [`tenant`] — four tenants streaming into `ResolverService` in an
//!   open loop.
//! * [`stencil`] — live edits on a 10k-task `IncrementalProgram`.
//! * [`paper`] — the Task Machine and software-runtime models on the
//!   paper's traces.
//!
//! Every workload prints the same end-to-end metrics (so one gate
//! covers all four) and, in the traced mode, one shared set of
//! per-layer metrics; a layer the workload does not exercise reads 0.

pub mod checks;
pub mod common;
pub mod paper;
pub mod spans;
pub mod stencil;
pub mod tenant;
pub mod wavefront;

use common::Outcome;
use spans::Spans;
use std::time::Duration;

/// Names of the four workloads, as the command line takes them.
pub const WORKLOADS: [&str; 4] = ["wavefront", "tenant-stream", "stencil-edits", "paper-model"];

/// Input size: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined on.
    Full,
    /// Small enough to run every workload in a unit test.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub measure: Duration,
    /// Traced mode (per-layer metrics) instead of end-to-end metrics.
    pub traced: bool,
    /// Input size.
    pub size: Size,
}

impl RunConfig {
    /// Runtime workers beside one submitting or client thread, so that
    /// the benchmark's threads match the host's CPUs (at least one
    /// worker).
    pub fn workers(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .max(2)
            - 1
    }
}

/// Run `workload`, returning its outcome (metrics and check results).
pub fn run(workload: &str, cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = match workload {
        "wavefront" => wavefront::run(cfg, spans),
        "tenant-stream" => tenant::run(cfg, spans),
        "stencil-edits" => stencil::run(cfg, spans),
        "paper-model" => paper::run(cfg, spans),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if cfg.traced {
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.push("failed_frac", failed_frac, "frac");
        out.metrics.push("peak_rss_mb", common::peak_rss_mb(), "MB");
        out.metrics
            .push("spans.recorded", spans.recorded() as f64, "count");
        out.metrics.fill_missing(common::PER_LAYER);
    }
    Ok(out)
}
