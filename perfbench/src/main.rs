//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then one JSON result line as the last line of standard
//! output. In the traced mode the spans are written to
//! `perfbench/out/<workload>.spans.json`.

use perfbench::common::Outcome;
use perfbench::spans::Spans;
use perfbench::{RunConfig, Size, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

/// Spans kept in memory by one traced run.
const SPAN_CAP: usize = 400_000;

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required: one of {WORKLOADS:?}"))?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.unwrap_or(1),
            measure: Duration::from_secs_f64(seconds),
            traced: trace.unwrap_or(false),
            size: Size::Full,
        },
    })
}

fn write_spans(workload: &str, spans: &Spans) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.spans.json"));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.cfg.traced, SPAN_CAP);
    let mut out: Outcome = match perfbench::run(&args.workload, &args.cfg, &mut spans) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cfg.traced {
        match write_spans(&args.workload, &spans) {
            Ok(path) => out.notes.push(format!(
                "{} spans ({} dropped) written to {path}",
                spans.recorded(),
                spans.dropped()
            )),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("# {name:<44} {value:>16.4} {unit}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
