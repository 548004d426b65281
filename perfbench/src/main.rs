//! The repository's benchmark: end-to-end cells/s, step time, set-up time,
//! time to solution and peak memory of the real stepper, plus a traced
//! per-layer split.  `perfbench/README.md` documents the workloads, the
//! metrics and what each layer should move.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload star-gravity --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it records the full configuration, the output checks and the digest.

mod episode;
mod workload;

use episode::{Checks, Episode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Shape, Workload, OVERRIDE_ENV};

/// End-to-end metrics (untraced runs): name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "cells/s"),
    ("step_p50_s", "s"),
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name, unit.  Counts are per warm step,
/// except the regrid/plan event counts, which are per episode.
const PER_LAYER: [(&str, &str); 58] = [
    ("step.warm_s", "s"),
    ("gravity.solve_s", "s"),
    ("gravity.kernels_s", "s"),
    ("gravity.plan_s", "s"),
    ("gravity.kernels_share", "fraction"),
    ("gravity.m2l_interactions", "count"),
    ("gravity.p2p_pairs", "count"),
    ("gravity.p2p_point_interactions", "count"),
    ("gravity.multipole_launches", "count"),
    ("gravity.plan_hit_ratio", "fraction"),
    ("gravity.plan_patched", "count"),
    ("gravity.plan_rebuilt", "count"),
    ("hydro.rk_stage_s", "s"),
    ("hydro.cfl_s", "s"),
    ("driver.kernel_launches", "count"),
    ("driver.overlapped_tasks", "count"),
    ("driver.cold_step_s", "s"),
    ("driver.self_s", "s"),
    ("driver.pipelined_rest_s", "s"),
    ("octree.ghost_exchange_s", "s"),
    ("octree.ghost_links", "count"),
    ("octree.direct_link_ratio", "fraction"),
    ("octree.unresolved_links", "count"),
    ("octree.leaves_final", "count"),
    ("hpx.tasks_executed", "count"),
    ("hpx.tasks_stolen", "count"),
    ("hpx.worker_parks", "count"),
    ("hpx.continuations", "count"),
    ("hpx.parcels_sent", "count"),
    ("hpx.parcel_bytes", "bytes"),
    ("parcels.ghost.count", "count"),
    ("parcels.ghost.bytes", "bytes"),
    ("parcels.multipole-up.count", "count"),
    ("parcels.multipole-up.bytes", "bytes"),
    ("parcels.m2l.count", "count"),
    ("parcels.m2l.bytes", "bytes"),
    ("parcels.multipole-down.count", "count"),
    ("parcels.multipole-down.bytes", "bytes"),
    ("parcels.p2p.count", "count"),
    ("parcels.p2p.bytes", "bytes"),
    ("kokkos.scratch_misses_warm", "count"),
    ("kokkos.scratch_hit_ratio", "fraction"),
    ("kokkos.scratch_high_water_bytes", "bytes"),
    ("regrid.criterion_s", "s"),
    ("regrid.refined", "count"),
    ("regrid.derefined", "count"),
    ("io.checkpoint_write_s", "s"),
    ("io.readback_s", "s"),
    ("io.checkpoint_bytes", "bytes"),
    ("scenario.build_s", "s"),
    ("diag.ledger_s", "s"),
    ("diag.mass_closure", "fraction"),
    ("diag.angmom_drift", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.events_per_step", "count"),
    ("baseline.single_thread_step_s", "s"),
    ("baseline.speedup", "x"),
    ("ops.failed_frac", "fraction"),
];

/// Counts derived from sizes rather than measured traffic.
const COMPUTED_COUNTS: [&str; 4] = [
    "gravity.p2p_point_interactions",
    "io.checkpoint_bytes",
    "hpx.parcel_bytes",
    "parcels.*.bytes",
];

/// Untraced runs repeat the episode at least this often.
const MIN_EPISODES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <star-gravity|star-hydro|dwd-adaptive> \
                     --seed <u64> --seconds <1..=120> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median (mean of the two middle values for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Process high-water resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Interior cells × 3 RK stages summed over an episode's warm steps, divided
/// by the benchmark's wall clock around those `Simulation::step` calls; the
/// median over the given episodes.
fn cells_per_s(eps: &[&Episode]) -> f64 {
    let rates: Vec<f64> = eps
        .iter()
        .map(|e| e.warm_cells as f64 / e.warm_step_s.iter().sum::<f64>())
        .collect();
    median(&rates)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let shape = w.shape();

    // Pin the run: the options are all set explicitly, and the variables the
    // program would read to override its defaults are cleared before any
    // thread starts.
    let ignored_env: Vec<String> = OVERRIDE_ENV
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| v.to_string())
        .collect();
    for v in OVERRIDE_ENV {
        std::env::remove_var(v);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = shape.localities * shape.workers;
    if threads > nproc {
        eprintln!("perfbench: warning: {threads} worker threads on {nproc} CPUs");
    }
    let out_dir = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    // ---- Episodes until the time budget is spent; the last one may overrun
    // it by about half a round (a round's length is estimated from the
    // previous one).  An untraced run follows each episode with the
    // workload's set-up-only repetitions, so `setup_s` is a median of many
    // set-ups spread over the run.  A traced run times the single-thread
    // baseline first, then alternates untraced and traced episodes, so the
    // tracing overhead is measured on the same seed in the same process.
    let budget = args.seconds as f64;
    let min_episodes = if args.trace { 2 } else { MIN_EPISODES };
    let start = Instant::now();
    let mut checks = Checks::default();
    let baseline = args.trace.then(|| {
        let single = Shape {
            localities: 1,
            workers: 1,
            warm_steps: 1,
            ..shape
        };
        episode::run(w, single, args.seed, false, &out_dir, &mut checks)
    });
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    let mut setup_samples: Vec<f64> = Vec::new();
    let mut last_round = 0.0;
    while episodes.len() < min_episodes
        || start.elapsed().as_secs_f64() + 0.5 * last_round <= budget
    {
        let round = Instant::now();
        let traced = args.trace && episodes.len() % 2 == 1;
        let e = episode::run(w, shape, args.seed, traced, &out_dir, &mut checks);
        if !args.trace {
            setup_samples.push(e.setup_s);
            for _ in 0..shape.setup_repeats {
                setup_samples.push(episode::set_up_only(w, args.seed, &mut checks));
            }
        }
        episodes.push((traced, e));
        last_round = round.elapsed().as_secs_f64();
    }
    let first = &episodes[0].1;
    for (_, e) in &episodes[1..] {
        let mut problems = Vec::new();
        if e.digest != first.digest {
            problems.push(format!(
                "final-state digest {:016x} != {:016x} of the first episode",
                e.digest, first.digest
            ));
        }
        if e.leaves != first.leaves {
            problems.push("leaf-count sequence differs from the first episode".into());
        }
        checks.op("repeat digest", problems);
    }
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.0).map(|e| &e.1).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.0).map(|e| &e.1).collect();
    let warm_samples: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.warm_step_s.iter().copied())
        .collect();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let baseline_s = baseline.map_or(0.0, |e| e.warm_step_s[0]);
        let first_warm: Vec<f64> = untraced.iter().map(|e| e.warm_step_s[0]).collect();
        let trace = traced
            .last()
            .and_then(|e| e.trace_json.as_deref())
            .expect("a traced run has a traced episode");
        let trace_path = out_dir.join(format!("trace-{}.json", w.name()));
        let problems = match std::fs::write(&trace_path, trace) {
            Ok(()) => vec![],
            Err(e) => vec![format!("{}: {e}", trace_path.display())],
        };
        checks.op("trace export", problems);
        let steps = (1 + shape.warm_steps) as f64;
        let events: Vec<f64> = traced
            .iter()
            .filter_map(|e| e.trace_json.as_deref())
            .map(|t| t.matches("\"ph\":\"X\"").count() as f64 / steps)
            .collect();
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_frac" => 1.0 - cells_per_s(&traced) / cells_per_s(&untraced),
                "trace.events_per_step" => median(&events),
                "baseline.single_thread_step_s" => baseline_s,
                "baseline.speedup" => baseline_s / median(&first_warm),
                "ops.failed_frac" => checks.failed as f64 / checks.attempted as f64,
                _ => median(
                    &traced
                        .iter()
                        .map(|e| *e.layers.get(name).expect("every layer metric is recorded"))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let rss = peak_rss_mb();
        if rss.is_none() {
            checks.op("peak rss", vec!["VmHWM not readable".into()]);
        }
        let of =
            |f: fn(&Episode) -> f64| median(&untraced.iter().map(|e| f(e)).collect::<Vec<_>>());
        for (name, unit) in END_TO_END {
            let value = match name {
                "cells_per_s" => cells_per_s(&untraced),
                "step_p50_s" => median(&warm_samples),
                "setup_s" => median(&setup_samples),
                "time_to_solution_s" => of(|e| e.time_to_solution_s),
                "peak_rss_mb" => rss.unwrap_or(0.0),
                _ => unreachable!("every end-to-end metric has a value"),
            };
            metrics.push((name, value, unit));
        }
    }
    let bad: Vec<String> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| format!("{} = {}", m.0, m.1))
        .collect();
    if !bad.is_empty() {
        checks.op("metrics", bad);
    }

    // ---- The configuration line, then the result line.
    let mut report = String::new();
    let mut field = |k: &str, v: String| {
        if !report.is_empty() {
            report.push(',');
        }
        write!(report, "{}:{v}", json_str(k)).expect("string write");
    };
    field("workload", json_str(w.name()));
    field("why", json_str(w.why()));
    field("seed", args.seed.to_string());
    field("seconds", args.seconds.to_string());
    field("trace", args.trace.to_string());
    field("nproc", nproc.to_string());
    field("shape", json_str(&format!("{shape:?}")));
    field("sim_options", json_str(&format!("{:?}", first.options)));
    field(
        "ignored_env",
        json_list(ignored_env.iter().map(|v| json_str(v))),
    );
    field("episodes", episodes.len().to_string());
    field("traced_episodes", traced.len().to_string());
    field("digest", json_str(&format!("{:016x}", first.digest)));
    field(
        "leaves_per_step",
        json_list(first.leaves.iter().map(|n| n.to_string())),
    );
    field("warm_step_samples", warm_samples.len().to_string());
    field(
        "warm_step_s",
        json_list(warm_samples.iter().map(|s| format!("{s:.6}"))),
    );
    field("step_p50_s", median(&warm_samples).to_string());
    field(
        "setup_s_samples",
        json_list(setup_samples.iter().map(|s| format!("{s:.6}"))),
    );
    field(
        "mass_closure_gate",
        if shape.gate_mass_closure {
            episode::MASS_CLOSURE_TOL.to_string()
        } else {
            json_str("reported, not gated (AMR coarse-fine faces are not refluxed)")
        },
    );
    field("ops_attempted", checks.attempted.to_string());
    field("ops_failed", checks.failed.to_string());
    field(
        "ops_failed_frac",
        (checks.failed as f64 / checks.attempted.max(1) as f64).to_string(),
    );
    field(
        "failures",
        json_list(checks.failures.iter().take(20).map(|f| json_str(f))),
    );
    field(
        "computed_counts",
        json_list(COMPUTED_COUNTS.iter().map(|c| json_str(c))),
    );
    println!("{{\"perfbench\":{{{report}}}}}");

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json.join(",")
    );
}
