//! Every workload at a tiny size through every check, in both modes,
//! plus one corrupted result per check that the check must reject.

use perfbench::checks::{self, PaperResult};
use perfbench::common::{END_TO_END, PER_LAYER};
use perfbench::spans::Spans;
use perfbench::stencil::{self, Edits};
use perfbench::wavefront::{declare, lower, Input};
use perfbench::{RunConfig, Size, WORKLOADS};
use std::time::Duration;

fn tiny(traced: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        measure: Duration::from_millis(200),
        traced,
        size: Size::Tiny,
    }
}

fn names(m: &perfbench::common::Metrics) -> Vec<&str> {
    let mut v: Vec<&str> = m.0.iter().map(|(n, _, _)| n.as_str()).collect();
    v.sort_unstable();
    v
}

fn sorted(list: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    let mut v: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
    v.sort_unstable();
    v
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in WORKLOADS {
        let mut spans = Spans::new(false, 0);
        let out = perfbench::run(w, &tiny(false), &mut spans).unwrap();
        assert!(out.correct, "{w}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{w}: {:?}", out.notes);
        assert!(out.attempted > 0, "{w}");
        assert_eq!(names(&out.metrics), sorted(END_TO_END), "{w}");
        for (n, v, _) in &out.metrics.0 {
            assert!(v.is_finite() && *v > 0.0, "{w}: {n} = {v}");
        }
        assert_eq!(spans.recorded(), 0, "{w}: untraced runs keep no spans");
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in WORKLOADS {
        let mut spans = Spans::new(true, 100_000);
        let out = perfbench::run(w, &tiny(true), &mut spans).unwrap();
        assert!(out.correct, "{w}: {:?}", out.notes);
        assert_eq!(names(&out.metrics), sorted(PER_LAYER), "{w}");
        for (n, v, _) in &out.metrics.0 {
            assert!(v.is_finite(), "{w}: {n} = {v}");
        }
        assert!(spans.recorded() > 0, "{w}: traced runs record spans");
        assert!(spans
            .to_json()
            .starts_with("{\"dropped\": 0, \"spans\": [{\"id\": 0"));
    }
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`, in
/// order.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let section = text.split(&format!("\"{key}\"")).nth(1).unwrap();
    let section = &section[..section.find(']').unwrap()];
    let field = |obj: &str, f: &str| {
        let rest = obj.split(&format!("\"{f}\": \"")).nth(1).unwrap();
        rest[..rest.find('"').unwrap()].to_string()
    };
    section
        .split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
}

#[test]
fn unknown_workload_is_an_error() {
    let mut spans = Spans::new(false, 0);
    assert!(perfbench::run("nope", &tiny(false), &mut spans).is_err());
}

/// A correct wavefront result: every task once, in lowered
/// (topological) order.
fn wavefront_result() -> (Input, nexuspp::frontend::LoweredProgram, Vec<u32>, Vec<u64>) {
    let input = Input::generate(Size::Tiny, 3);
    let lp = lower(&declare(&input));
    let order: Vec<u64> = lp.tasks.iter().map(|t| t.tag).collect();
    let runs = vec![1; input.len()];
    (input, lp, runs, order)
}

#[test]
fn wavefront_check_accepts_a_correct_run() {
    let (input, lp, runs, order) = wavefront_result();
    assert!(!input.expected_edges.is_empty());
    checks::wavefront(&input.expected_edges, &lp, &runs, &order).unwrap();
}

#[test]
fn wavefront_check_rejects_a_dropped_task() {
    let (input, lp, mut runs, mut order) = wavefront_result();
    let lost = order.pop().unwrap();
    runs[lost as usize] = 0;
    assert!(checks::wavefront(&input.expected_edges, &lp, &runs, &order).is_err());
}

#[test]
fn wavefront_check_rejects_a_task_run_twice() {
    let (input, lp, mut runs, mut order) = wavefront_result();
    runs[0] = 2;
    order.push(0);
    assert!(checks::wavefront(&input.expected_edges, &lp, &runs, &order).is_err());
}

#[test]
fn wavefront_check_rejects_a_reversed_edge() {
    let (input, lp, runs, mut order) = wavefront_result();
    let (p, c) = lp.edges[lp.edges.len() / 2];
    let pos = |t: u64, o: &[u64]| o.iter().position(|&x| x == t).unwrap();
    let (a, b) = (pos(p, &order), pos(c, &order));
    order.swap(a, b);
    assert!(checks::wavefront(&input.expected_edges, &lp, &runs, &order).is_err());
}

#[test]
fn wavefront_check_rejects_a_wrong_edge_set() {
    let (input, mut lp, runs, order) = wavefront_result();
    lp.edges.pop();
    assert!(checks::wavefront(&input.expected_edges, &lp, &runs, &order).is_err());
}

#[test]
fn tenant_check_accepts_exact_accounting() {
    checks::tenant(100, 90, 6, 4, 90, &[(3, 6), (6, 6)]).unwrap();
}

#[test]
fn tenant_check_rejects_a_lost_task() {
    assert!(checks::tenant(100, 89, 6, 4, 89, &[(3, 6)]).is_err());
}

#[test]
fn tenant_check_rejects_a_body_run_twice() {
    assert!(checks::tenant(100, 90, 6, 4, 91, &[(3, 6)]).is_err());
}

#[test]
fn tenant_check_rejects_a_peak_over_budget() {
    assert!(checks::tenant(100, 90, 6, 4, 90, &[(3, 6), (7, 6)]).is_err());
}

#[test]
fn stencil_check_accepts_the_edited_program() {
    let spec = stencil::spec(Size::Tiny);
    let mut ip = spec.build();
    let backend = nexuspp::incr::Backend::Engine { shards: 2 };
    ip.rerun(nexuspp::frontend::Lowering::Renamed, &backend);
    let mut edits = Edits::new(spec, 11);
    for _ in 0..24 {
        ip.edit(edits.next_edit().0).unwrap();
        ip.rerun(nexuspp::frontend::Lowering::Renamed, &backend);
    }
    let fresh = stencil::from_scratch(&spec, edits.net());
    checks::stencil(&ip.final_contents(), &fresh).unwrap();
}

#[test]
fn stencil_check_rejects_a_wrong_final_content() {
    let spec = stencil::spec(Size::Tiny);
    let mut edits = Edits::new(spec, 5);
    for _ in 0..8 {
        edits.next_edit();
    }
    let good = stencil::from_scratch(&spec, edits.net());
    let mut bad = good.clone();
    bad[3].1 ^= 1;
    checks::stencil(&good, &good).unwrap();
    assert!(checks::stencil(&bad, &good).is_err());
    // An edit missing from the from-scratch program also shows.
    let mut missing = edits.net();
    missing.pop();
    assert!(checks::stencil(&stencil::from_scratch(&spec, missing), &good).is_err());
}

#[test]
fn stencil_edit_sequence_is_seeded_and_one_in_four_structural() {
    let spec = stencil::spec(Size::Full);
    let mut a = Edits::new(spec, 9);
    let mut b = Edits::new(spec, 9);
    let mut structural = 0;
    for _ in 0..400 {
        let (ea, sa) = a.next_edit();
        let (eb, _) = b.next_edit();
        assert_eq!(ea, eb);
        structural += usize::from(sa);
    }
    assert_eq!(structural, 100);
}

fn paper_ok() -> PaperResult {
    PaperResult {
        tm_independent_64: 50.0,
        tm_wavefront_64: 14.0,
        sw_independent_64: 4.0,
        sw_wavefront_64: 4.0,
        sw_over_tm_independent_64: 12.0,
    }
}

#[test]
fn paper_check_accepts_the_paper_bands() {
    checks::paper(&paper_ok()).unwrap();
}

#[test]
fn paper_check_rejects_speedups_outside_the_bands() {
    let bad = [
        PaperResult {
            tm_independent_64: 80.0,
            ..paper_ok()
        },
        PaperResult {
            tm_wavefront_64: 27.5,
            ..paper_ok()
        },
        PaperResult {
            sw_over_tm_independent_64: 1.5,
            ..paper_ok()
        },
    ];
    for r in bad {
        assert!(checks::paper(&r).is_err(), "{r:?}");
    }
}

#[test]
fn result_line_has_the_contract_keys() {
    let mut spans = Spans::new(false, 0);
    let out = perfbench::run("paper-model", &tiny(false), &mut spans).unwrap();
    let line = out.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    assert!(line.contains("\"unit\": \"s\"}"));
}
