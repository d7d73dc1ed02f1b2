//! `stencil-edits`: live edits on an `IncrementalProgram` over a
//! 10k-task halo stencil (1000 cells × 10 steps), built and run from
//! scratch during set-up, then edited in seeded rounds. Each round
//! commits one edit and re-runs the program on `Backend::Runtime`.
//!
//! In every group of four rounds one is structural (`Retarget` dropping
//! or restoring a task's left-neighbour read, which replays the whole
//! declaration list) and three are content edits (`SetInitial` on a
//! random cell, which skip replay), so the two ways the layer works are
//! mixed in a fixed ratio. The timed operation is one such group: a
//! gain for one edit kind that costs the other shows in its time, and
//! the structural commit, which is single-threaded, outweighs the
//! runtime start-up each re-run pays.

use crate::checks;
use crate::common::{self, median, Outcome, Setups};
use crate::spans::Spans;
use crate::{RunConfig, Size};
use nexuspp::desim::Rng;
use nexuspp::frontend::Lowering;
use nexuspp::incr::{Access, Backend, Edit, IncrReport, IncrementalProgram};
use nexuspp::workloads::IncrStencilSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Shards of the runtime each re-run uses.
const SHARDS: usize = 4;
/// Rounds per timed operation, one of them structural.
pub const GROUP: u64 = 4;
/// Rounds whose reports feed the exact per-edit counts (a fixed prefix
/// of the seeded sequence, so the counts repeat for a seed).
pub const COUNTED_ROUNDS: usize = 64;

/// The stencil for `size`.
pub fn spec(size: Size) -> IncrStencilSpec {
    match size {
        Size::Full => IncrStencilSpec {
            cells: 1000,
            steps: 10,
        },
        Size::Tiny => IncrStencilSpec {
            cells: 12,
            steps: 4,
        },
    }
}

/// The access list of the task advancing cell `i` at step `t`, as
/// [`IncrStencilSpec::decl_edits`] declares it, optionally without the
/// left-neighbour read.
pub fn accesses(spec: &IncrStencilSpec, i: u32, t: u32, drop_left: bool) -> Vec<Access> {
    let mut a = Vec::with_capacity(4);
    if i > 0 && !drop_left {
        a.push(Access::ReadVersion(spec.cell(i - 1), t - 1));
    }
    a.push(Access::ReadVersion(spec.cell(i), t - 1));
    if i + 1 < spec.cells {
        a.push(Access::ReadVersion(spec.cell(i + 1), t - 1));
    }
    a.push(Access::Write(spec.cell(i)));
    a
}

/// The seeded edit sequence, with the net state the edits leave behind
/// (for the from-scratch comparison).
pub struct Edits {
    spec: IncrStencilSpec,
    rng: Rng,
    round: u64,
    /// Keys whose left read is currently dropped.
    dropped: BTreeSet<u64>,
    /// Latest seed per edited cell.
    seeds: BTreeMap<u32, u64>,
    structural_slot: u64,
}

impl Edits {
    /// The sequence for `seed`.
    pub fn new(spec: IncrStencilSpec, seed: u64) -> Edits {
        let mut rng = Rng::new(seed ^ 0x57E1);
        let structural_slot = rng.gen_range(GROUP);
        Edits {
            spec,
            rng,
            round: 0,
            dropped: BTreeSet::new(),
            seeds: BTreeMap::new(),
            structural_slot,
        }
    }

    /// The next round's edit and whether it is structural.
    pub fn next_edit(&mut self) -> (Edit, bool) {
        let structural = self.round % GROUP == self.structural_slot;
        self.round += 1;
        if self.round.is_multiple_of(GROUP) {
            self.structural_slot = self.rng.gen_range(GROUP);
        }
        let s = self.spec;
        if structural {
            // Restore a dropped read half the time there is one;
            // otherwise drop the left read of a random interior task.
            let restore = !self.dropped.is_empty() && self.rng.gen_range(2) == 0;
            let key = if restore {
                let k = self.rng.gen_range(self.dropped.len() as u64) as usize;
                *self.dropped.iter().nth(k).expect("index within the set")
            } else {
                let i = 1 + self.rng.gen_range(u64::from(s.cells - 1)) as u32;
                let t = 1 + self.rng.gen_range(u64::from(s.steps)) as u32;
                s.key(i, t)
            };
            let (i, t) = ((key % s.cells as u64) as u32, (key / s.cells as u64) as u32);
            let drop_left = !self.dropped.remove(&key);
            if drop_left {
                self.dropped.insert(key);
            }
            let edit = Edit::Retarget {
                key,
                accesses: accesses(&s, i, t, drop_left),
            };
            (edit, true)
        } else {
            let cell = self.rng.gen_range(u64::from(s.cells)) as u32;
            let seed = self.rng.next_u64() | 1;
            self.seeds.insert(cell, seed);
            let edit = Edit::SetInitial {
                resource: s.cell(cell),
                seed,
            };
            (edit, false)
        }
    }

    /// The net effect of every edit so far, as one batch.
    pub fn net(&self) -> Vec<Edit> {
        let s = self.spec;
        let retargets = self.dropped.iter().map(|&key| {
            let (i, t) = ((key % s.cells as u64) as u32, (key / s.cells as u64) as u32);
            Edit::Retarget {
                key,
                accesses: accesses(&s, i, t, true),
            }
        });
        let seeds = self.seeds.iter().map(|(&cell, &seed)| Edit::SetInitial {
            resource: s.cell(cell),
            seed,
        });
        retargets.chain(seeds).collect()
    }
}

/// A fresh program with `net` applied, run from scratch on the batch
/// engine: the oracle the edited program must agree with.
pub fn from_scratch(spec: &IncrStencilSpec, net: Vec<Edit>) -> Vec<(String, u64)> {
    let mut ip = spec.build();
    ip.edit_batch(net)
        .expect("net edits apply to a fresh stencil");
    ip.rerun(Lowering::Renamed, &Backend::Engine { shards: SHARDS });
    ip.final_contents()
}

fn setup(spec: &IncrStencilSpec, backend: &Backend) -> IncrementalProgram {
    let mut ip = spec.build();
    let first = ip.rerun(Lowering::Renamed, backend);
    assert_eq!(first.reran, ip.len(), "the first run executes everything");
    ip
}

/// Run the workload.
pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let spec = spec(cfg.size);
    let backend = Backend::Runtime {
        workers: cfg.workers(),
        shards: SHARDS,
    };
    let (mut ip, mut setups) = Setups::first(|| setup(&spec, &backend));
    let mut edits = Edits::new(spec, cfg.seed);
    let mut group_ms = Vec::new();
    let mut rounds = 0u32;
    let mut commit_seed_us = Vec::new();
    let mut commit_struct_us = Vec::new();
    let mut rerun_us = Vec::new();
    let mut counted: Vec<IncrReport> = Vec::new();
    let mut reran_tasks = 0u64;
    let mut out = Outcome::default();
    let start = Instant::now();
    while start.elapsed() < cfg.measure || counted.len() < COUNTED_ROUNDS {
        let mut group = 0.0;
        for _ in 0..GROUP {
            let (edit, structural) = edits.next_edit();
            let rep = rounds;
            rounds += 1;
            let t0 = Instant::now();
            let committed = ip.edit(edit);
            let t1 = Instant::now();
            let report = ip.rerun(Lowering::Renamed, &backend);
            let t2 = Instant::now();
            let round = spans.record("incr.round", rep, None, t0, t2);
            let commit = if structural {
                "incr.commit_struct"
            } else {
                "incr.commit_seed"
            };
            spans.record(commit, rep, Some(round), t0, t1);
            spans.record("incr.rerun", rep, Some(round), t1, t2);
            out.attempted += 1;
            if let Err(e) = committed {
                out.failed += 1;
                out.notes.push(format!("round {rep}: edit rejected: {e:?}"));
            }
            group += common::ms(t2 - t0);
            let commit_us = (t1 - t0).as_nanos() as f64 / 1e3;
            if structural {
                commit_struct_us.push(commit_us);
            } else {
                commit_seed_us.push(commit_us);
            }
            rerun_us.push((t2 - t1).as_nanos() as f64 / 1e3);
            reran_tasks += report.reran as u64;
            if counted.len() < COUNTED_ROUNDS {
                counted.push(report);
            }
        }
        group_ms.push(group);
        if !cfg.traced {
            setups.between(|| setup(&spec, &backend));
        }
    }
    // The final check counts as one more operation.
    out.attempted += 1;
    let check = checks::stencil(&ip.final_contents(), &from_scratch(&spec, edits.net()));
    if let Err(e) = check {
        out.failed += 1;
        out.notes.push(format!("final contents: {e}"));
    }
    out.correct = out.failed == 0;
    out.notes.push(format!(
        "stencil-edits: {rounds} rounds in {} groups of {GROUP} on a {}-task stencil, {} structural; \
         runtime backend with {} workers",
        group_ms.len(),
        spec.task_count(),
        commit_struct_us.len(),
        cfg.workers()
    ));
    let timed_s = group_ms.iter().sum::<f64>() / 1e3;
    let m = &mut out.metrics;
    if cfg.traced {
        let per = |f: &dyn Fn(&IncrReport) -> f64| {
            counted.iter().map(f).sum::<f64>() / counted.len().max(1) as f64
        };
        m.push("incr.commit_seed_us_p50", median(&commit_seed_us), "us");
        m.push("incr.commit_struct_us_p50", median(&commit_struct_us), "us");
        m.push("incr.rerun_us_p50", median(&rerun_us), "us");
        m.push("incr.reran_per_edit", per(&|r| r.reran as f64), "count");
        m.push("incr.dirtied_per_edit", per(&|r| r.dirtied as f64), "count");
        m.push(
            "incr.order_ops_per_edit",
            per(&|r| r.order_maintenance_ops as f64),
            "count",
        );
        let total: usize = counted.iter().map(|r| r.total).sum();
        let reused: usize = counted.iter().map(|r| r.reused).sum();
        m.push(
            "incr.reuse_frac",
            reused as f64 / total.max(1) as f64,
            "frac",
        );
        common::push_tails(m, &group_ms);
    } else {
        let setup_s = setups.finish(|| setup(&spec, &backend));
        m.push("setup_s", setup_s, "s");
        m.push("op_ms_p50", median(&group_ms), "ms");
        m.push("tasks_per_s", reran_tasks as f64 / timed_s, "1/s");
    }
    out
}
