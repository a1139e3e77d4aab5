//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <fig9-fig8a|coupled-step> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; `failed/attempted`
//! is the share of output checks that failed. A readable summary goes
//! to standard error, and a traced run writes its spans to
//! `wallbench/out/spans-<workload>-<seed>.json`.

use std::process::ExitCode;

use cpx_obs::Json;
use cpx_wallbench::spans::spans_json;
use cpx_wallbench::{run, RunConfig, Size, WorkloadKind, LAYER_METRICS};

const USAGE: &str = "usage: cpx-wallbench --workload <fig9-fig8a|coupled-step> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// Every workload is one serial closed loop: `CPX_THREADS` may not ask
/// for more workers than the machine has cores.
fn check_threads() -> Result<(), String> {
    let Ok(v) = std::env::var("CPX_THREADS") else {
        return Ok(());
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match v.trim().parse::<usize>() {
        Ok(n) if n <= cores => Ok(()),
        _ => Err(format!(
            "CPX_THREADS={v} refused: {cores} core(s) available"
        )),
    }
}

fn main() -> ExitCode {
    let cfg = match check_threads().and_then(|()| parse_args()) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);

    let name = cfg.workload.name();
    let traced = report.passes.iter().filter(|p| p.0).count();
    let samples: usize = report
        .passes
        .iter()
        .filter(|p| p.0 == cfg.trace)
        .map(|p| p.2)
        .sum();
    eprintln!(
        "{name} seed {}: {} passes ({traced} traced), {samples} latency samples",
        cfg.seed,
        report.passes.len()
    );
    for m in &report.metrics {
        let moves = LAYER_METRICS
            .iter()
            .find(|l| l.0 == m.name)
            .map_or("", |l| l.2);
        eprintln!("  {:<28} {:>16.6} {:<5} {moves}", m.name, m.value, m.unit);
    }
    let failed = report.failures.len();
    eprintln!(
        "  output checks: {failed} of {} failed (failed_frac {})",
        report.attempted,
        failed as f64 / report.attempted.max(1) as f64
    );
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }

    if cfg.trace {
        let path = format!("wallbench/out/spans-{name}-{}.json", cfg.seed);
        let written = std::fs::create_dir_all("wallbench/out")
            .and_then(|()| std::fs::write(&path, spans_json(&report.spans).write()));
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("  spans written to {path}");
    }

    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.write());
    ExitCode::SUCCESS
}
