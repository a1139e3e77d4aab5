//! Emit a machine-readable per-phase benchmark of the coupled run.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin bench_coupled -- [out.json]
//! ```
//!
//! Traces the small coupled case with the phase profiler and writes
//! `BENCH_coupled.json` (default): per-phase medians (p50) and p95 over
//! per-rank phase times, per-phase compute/comm totals and shares, and
//! the run makespan. The trace is deterministic, so successive builds
//! can diff this file to track performance-model drift.

use cpx_core::prelude::*;
use cpx_obs::{phase_stats, Json};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_coupled.json".to_string());
    let machine = Machine::archer2();
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
    let alloc = model::allocate_scenario(&models, 1200);
    let sample_iters = 8;
    let (names, outcome, breakdown, session) =
        sim::trace_coupled(&scenario, &alloc, &machine, sample_iters);
    let profile = PhaseProfile::coupled(&scenario, &names, &breakdown);
    let stats = phase_stats(&session);

    let shares = profile.shares();
    let phases: Vec<Json> = profile
        .rows
        .iter()
        .zip(&shares)
        .map(|(row, share)| {
            let mut fields = vec![
                ("name", Json::Str(row.name.clone())),
                ("compute", Json::Num(row.compute)),
                ("comm", Json::Num(row.comm)),
                ("share_pct", Json::Num(*share)),
            ];
            if let Some(s) = stats.get(&row.name) {
                fields.push(("p50", Json::Num(s.p50)));
                fields.push(("p95", Json::Num(s.p95)));
                fields.push(("ranks", Json::Num(s.ranks as f64)));
            }
            Json::obj(fields)
        })
        .collect();

    let doc = Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        ("case", Json::Str(scenario.name.clone())),
        ("world_size", Json::Num(alloc.total_ranks() as f64)),
        ("sample_iters", Json::Num(sample_iters as f64)),
        ("makespan", Json::Num(outcome.makespan())),
        ("phases", Json::Arr(phases)),
    ]);
    let text = doc.write_pretty();
    if let Some(dir) = std::path::Path::new(&out_path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out_path, &text).expect("write benchmark json");
    println!("{text}");
    println!("(written to {out_path})");
}
