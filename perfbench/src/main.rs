//! The repository benchmark: four workloads over the expander router,
//! each checked for correct outputs, printing one JSON result line.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo-n4096 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every library call and reports the
//! per-layer metrics instead (spans go to
//! `.bench_out/trace-<workload>-seed<seed>.jsonl`). `--workload all`
//! runs every workload in its own process, one after another. The last
//! line of standard output is the result; lines before it give every
//! figure with its unit and sample count. See `perfbench/README.md`.

mod batch;
mod churn;
mod cpu;
mod ctx;
mod inputs;
mod metrics;
mod solo;
mod stats;
mod stream;
mod trace;

use ctx::Ctx;
use metrics::{phase_family_names, result_json, Metrics, PRE_PHASES, QUERY_PHASES};
use std::process::ExitCode;

type Runner = fn(&mut Ctx);

/// Workload name, runner, and the worker count it pins.
const WORKLOADS: &[(&str, Runner, usize)] = &[
    ("solo-n4096", solo::run, solo::THREADS),
    ("batch-n4096", batch::run, batch::THREADS),
    ("stream-n512", stream::run, stream::WORKERS),
    ("churn-n1024", churn::run, churn::THREADS),
];

/// End-to-end metrics, reported by every workload in an untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("preprocess_rounds", "rounds"),
    ("query_rounds", "rounds"),
];

/// Per-layer metrics besides the ledger-phase families and self times,
/// reported by every workload in a traced run (0 where the workload
/// bypasses the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("decomp.hierarchy.build_s", "s"),
    ("decomp.hierarchy.rounds", "rounds"),
    ("decomp.hierarchy.nodes", "count"),
    ("decomp.shuffler.build_s", "s"),
    ("decomp.shuffler.rounds", "rounds"),
    ("decomp.shuffler.nodes", "count"),
    ("router.preprocess_1t_s", "s"),
    ("router.lower_s", "s"),
    ("exec.task3_calls", "count"),
    ("exec.max_congestion", "count"),
    ("exec.max_dilation", "count"),
    ("exec.fallback_tokens", "count"),
    ("engine.batch_ms", "ms"),
    ("engine.cold_batch_ms", "ms"),
    ("engine.perjob_batch_ms", "ms"),
    ("engine.fusion_speedup", "ratio"),
    ("service.formation_p50_us", "us"),
    ("service.formation_p95_us", "us"),
    ("service.latency_p50_us", "us"),
    ("service.latency_p99_us", "us"),
    ("service.groups", "count"),
    ("service.jobs", "count"),
    ("service.mean_width", "jobs"),
    ("service.pickup_us", "us"),
    ("service.submit_lag_p99_us", "us"),
    ("service.rejected", "count"),
    ("repair.router_ms", "ms"),
    ("repair.hierarchy_ms", "ms"),
    ("repair.reuse_ratio", "ratio"),
    ("repair.total_nodes", "count"),
    ("repair.full_rebuilds", "count"),
    ("repair.vs_rebuild", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Span layers whose self time is reported as `self.<layer>_ms`.
const LAYERS: &[&str] = &[
    "decomp.hierarchy",
    "decomp.shuffler",
    "router",
    "exec",
    "engine",
    "service",
    "repair",
    "bench",
];

/// Every per-layer metric name with its unit.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u));
    let selves = LAYERS.iter().map(|l| (format!("self.{l}_ms"), "ms"));
    let rounds = phase_family_names("pre", PRE_PHASES)
        .into_iter()
        .chain(phase_family_names("query", QUERY_PHASES))
        .map(|n| (n, "rounds"));
    fixed.chain(selves).chain(rounds).collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(&(name, run, threads)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("perfbench: unknown workload {:?} (one of {names:?} or all)", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "host cpu=\"{}\" nproc={nproc} workload={name} threads={threads} seed={} seconds={} trace={}",
        cpu_model(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    run(&mut ctx);

    match ctx::peak_rss_mb() {
        Some(mb) => ctx.e2e.set("peak_rss_mb", mb, "MB"),
        None => ctx.check(false, || "peak resident memory is unavailable".into()),
    }
    let metrics = if args.trace { traced_metrics(&mut ctx, name) } else { ctx.e2e.clone() };
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let report = conform(&mut ctx, &metrics, &declared);
    println!(
        "failed_frac {:.6} ({} of {} operations and checks)",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ctx.failed,
        ctx.attempted
    );
    let correct = ctx.failures.is_empty();
    println!("{}", result_json(correct, ctx.attempted.max(1), ctx.failed, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds self times, span count and zero fills to the per-layer set,
/// and writes the spans out.
fn traced_metrics(ctx: &mut Ctx, workload: &str) -> Metrics {
    let by_layer = ctx.tracer.self_time_by_layer();
    for layer in by_layer.keys() {
        if !LAYERS.contains(layer) {
            ctx.check(false, || format!("span layer {layer} has no self-time metric"));
        }
    }
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        ctx.layer.set(format!("self.{layer}_ms"), ns as f64 / 1e6, "ms");
    }
    ctx.layer.set("trace.spans", ctx.tracer.spans().len() as f64, "count");
    for (name, unit) in per_layer_metrics() {
        if ctx.layer.get(&name).is_none() {
            ctx.layer.set(name, 0.0, unit);
        }
    }
    let path = format!(".bench_out/trace-{workload}-seed{}.jsonl", ctx.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| ctx.tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!("spans {} written to {path}", ctx.tracer.spans().len()),
        Err(e) => ctx.check(false, || format!("writing {path}: {e}")),
    }
    ctx.layer.clone()
}

/// The metrics to report: exactly the declared names, each with its
/// declared unit and a finite value; anything else fails the run.
fn conform(ctx: &mut Ctx, metrics: &Metrics, declared: &[(String, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in declared {
        match metrics.get(name) {
            Some(m) if m.unit == *unit && m.value.is_finite() => {
                out.set(name.clone(), m.value, unit)
            }
            Some(m) => ctx.check(false, || format!("metric {name} = {} {}", m.value, m.unit)),
            None => ctx.check(false, || format!("metric {name} was not measured")),
        }
    }
    for (name, _) in metrics.iter() {
        if !declared.iter().any(|(d, _)| d == name) {
            ctx.check(false, || format!("metric {name} is not declared"));
        }
    }
    out
}

/// Runs every workload in a child process of its own (so peak memory
/// stays per workload), passing its output through, then prints one
/// summary line with the summed counts; the metrics are in the
/// workloads' own result lines above it.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for &(name, _, _) in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("perfbench: could not start {name}");
            return ExitCode::FAILURE;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        match text.lines().last().and_then(parse_counts) {
            Some((ok, a, f)) => {
                correct &= ok && out.status.success();
                attempted += a;
                failed += f;
            }
            None => correct = false,
        }
    }
    println!("{}", result_json(correct, attempted.max(1), failed, &Metrics::default()));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(correct, attempted, failed)` of a line written by [`result_json`].
fn parse_counts(line: &str) -> Option<(bool, u64, u64)> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    Some((correct, field("attempted")?.parse().ok()?, field("failed")?.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        assert!(all.iter().all(|n| metrics::valid_name(n)), "{all:?}");
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(per_layer_metrics().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(declared(name, unit), "end-to-end {name} [{unit}] missing");
        }
        for (name, unit) in per_layer_metrics() {
            assert!(declared(&name, unit), "per-layer {name} [{unit}] missing");
        }
        for (name, _, _) in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\", \"why\"")), "workload {name}");
        }
        let entries = text.matches("\"name\": ").count();
        assert_eq!(entries, END_TO_END.len() + per_layer_metrics().len() + WORKLOADS.len());
    }

    #[test]
    fn result_counts_read_back() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.5, "ms");
        assert_eq!(parse_counts(&result_json(false, 7, 2, &m)), Some((false, 7, 2)));
        assert_eq!(parse_counts(&result_json(true, 1, 0, &Metrics::default())), Some((true, 1, 0)));
        assert_eq!(parse_counts("not a result"), None);
    }
}
