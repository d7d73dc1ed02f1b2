//! The output checks, as pure functions over what a run produced, so
//! the tests can hand them corrupted results.

use nexuspp::frontend::LoweredProgram;

/// `wavefront`: every task ran exactly once, the executed order
/// respects every lowered RAW edge, and the lowered edge set equals the
/// hand-addressed trace's dependence edges (`expected`, sorted).
pub fn wavefront(
    expected: &[(u64, u64)],
    lowered: &LoweredProgram,
    runs: &[u32],
    order: &[u64],
) -> Result<(), String> {
    if let Some(tag) = runs.iter().position(|&r| r != 1) {
        return Err(format!("task {tag} ran {} times", runs[tag]));
    }
    if order.len() != runs.len() {
        return Err(format!(
            "{} executions logged for {} tasks",
            order.len(),
            runs.len()
        ));
    }
    if !lowered.order_respects_edges(order) {
        return Err("executed order violates a RAW edge".into());
    }
    let mut edges = lowered.edges.clone();
    edges.sort_unstable();
    if edges != expected {
        return Err(format!(
            "lowered edges ({}) differ from the trace's ({})",
            edges.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// `tenant-stream`: every accepted task is accounted exactly once
/// (`executed + cancelled + dropped == accepted`), each accepted task's
/// body ran at most once and every body that ran belongs to an accepted
/// task, and no tenant's in-flight peak exceeded its budget
/// (`peaks` holds `(peak, cap)` per tenant).
pub fn tenant(
    accepted: u64,
    executed: u64,
    cancelled: u64,
    dropped: u64,
    body_runs: u64,
    peaks: &[(u64, u64)],
) -> Result<(), String> {
    if executed + cancelled + dropped != accepted {
        return Err(format!(
            "accepted {accepted} != executed {executed} + cancelled {cancelled} + dropped {dropped}"
        ));
    }
    if body_runs != executed {
        return Err(format!(
            "{body_runs} bodies ran but the service reports {executed} executed"
        ));
    }
    if let Some((i, (peak, cap))) = peaks.iter().enumerate().find(|(_, (p, c))| p > c) {
        return Err(format!(
            "tenant #{i} peaked at {peak} over its budget {cap}"
        ));
    }
    Ok(())
}

/// `stencil-edits`: the edited program's final contents equal a fresh
/// program built with the same edits and run from scratch.
pub fn stencil(incremental: &[(String, u64)], fresh: &[(String, u64)]) -> Result<(), String> {
    if incremental.len() != fresh.len() {
        return Err(format!(
            "{} resources after edits, {} from scratch",
            incremental.len(),
            fresh.len()
        ));
    }
    match incremental.iter().zip(fresh).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!(
            "{} = {:#x}, from scratch {} = {:#x}",
            a.0, a.1, b.0, b.1
        )),
        None => Ok(()),
    }
}

/// The simulated speedups of one `paper-model` repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperResult {
    /// Task Machine, independent trace, 64 workers over 1.
    pub tm_independent_64: f64,
    /// Task Machine, wavefront trace, 64 workers over 1.
    pub tm_wavefront_64: f64,
    /// Software runtime model, independent trace, 64 over 1.
    pub sw_independent_64: f64,
    /// Software runtime model, wavefront trace, 64 over 1.
    pub sw_wavefront_64: f64,
    /// Software-runtime makespan over Task Machine makespan, both on
    /// the independent trace at 64 workers.
    pub sw_over_tm_independent_64: f64,
}

/// `paper-model`: the speedups fall inside the bands the repository's
/// paper-claim tests assert (54× ± 40% for independent tasks at 64
/// workers; the wavefront below its average parallelism of 27 and
/// below the independent speedup; the software runtime at least 2×
/// slower than the hardware at 64 workers).
pub fn paper(r: &PaperResult) -> Result<(), String> {
    if (r.tm_independent_64 / 54.0 - 1.0).abs() >= 0.4 {
        return Err(format!(
            "independent speedup at 64 workers {} outside 54 ± 40%",
            r.tm_independent_64
        ));
    }
    if r.tm_wavefront_64 >= 27.0 {
        return Err(format!(
            "wavefront speedup {} beats its average parallelism",
            r.tm_wavefront_64
        ));
    }
    if r.tm_independent_64 <= r.tm_wavefront_64 {
        return Err("the wavefront must be ramp-limited below independent tasks".into());
    }
    if r.sw_over_tm_independent_64 <= 2.0 {
        return Err(format!(
            "software runtime only {}x slower than the Task Machine at 64 workers",
            r.sw_over_tm_independent_64
        ));
    }
    Ok(())
}
