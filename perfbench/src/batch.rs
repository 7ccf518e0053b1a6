//! `batch-n4096`: closed loop, one caller. Preprocess n = 4096, then
//! `QueryEngine::run` on seeded 64-job batches (full and quarter-density
//! permutations, 1 in 8 sorts) at the automatic fusion width, each
//! batch timed on the process CPU clock (see [`crate::cpu`]).

use crate::cpu::Stopwatch;
use crate::ctx::{self, Ctx};
use crate::inputs::{self, Rng};
use crate::stats;
use expander_core::{Job, JobOutcome, QueryEngine, Router};
use std::time::Instant;

pub const N: usize = 4096;
/// Preprocessing and engine workers: one, so the engine runs every
/// group on the caller and the process CPU time of a batch is its cost.
pub const THREADS: usize = 1;
/// `tail_ms` is the median of the p90s of two consecutive windows.
/// Windows of 200 or more batches leave p90 over 20 samples beyond (p95
/// would sit on the ten-beyond line).
const TAIL_Q: f64 = 0.9;
const TAIL_WINDOWS: usize = 2;
/// Every this many batches, one job is compared with its solo run.
const SOLO_CHECK_EVERY: usize = 4;
/// Batches timed at both widths for the fusion speed-up.
const PAIRED_BATCHES: usize = 3;

pub fn run(ctx: &mut Ctx) {
    let g = inputs::graph(N);
    let router = ctx::setup(ctx, &g, THREADS);
    if ctx.traced {
        ctx::preprocess_breakdown(ctx, &g);
    }
    let engine = QueryEngine::new(&router).with_threads(Some(THREADS));

    // The first batch meets an empty scratch pool and empty caches.
    let first = inputs::batch(N, &mut Rng::new(ctx.seed, "batch-first"));
    let t = Stopwatch::start();
    let out = ctx.tracer.span("engine.run", u64::MAX, || engine.run(&first)).expect("valid jobs");
    ctx.layer.set("engine.cold_batch_ms", t.cpu_ms(), "ms");
    check_batch(ctx, &router, &first, &out.outcomes, 0);
    ctx::reference_rounds(ctx, &out.outcomes);

    ctx.measure(|ctx, window| {
        let mut rng = Rng::new(ctx.seed, "batch");
        let (mut lat_ms, mut wall_ms, mut jobs) = (Vec::new(), Vec::new(), 0usize);
        let start = Instant::now();
        while start.elapsed() < window {
            let batch = inputs::batch(N, &mut rng);
            let b = lat_ms.len();
            let open = ctx.tracer.enter("engine.run", b as u64);
            let t = Stopwatch::start();
            let out = engine.run(&batch);
            lat_ms.push(t.cpu_ms());
            wall_ms.push(t.wall_ms());
            ctx.tracer.exit(open);
            jobs += batch.len();
            match out {
                Ok(out) => check_batch(ctx, &router, &batch, &out.outcomes, b),
                Err(e) => ctx.check(false, || format!("batch {b} refused: {e}")),
            }
        }
        let loop_ms = start.elapsed().as_secs_f64() * 1e3;
        ctx::record_latency(ctx, "batch", &lat_ms, TAIL_Q, TAIL_WINDOWS, true);
        let wall_p50 = stats::median(&wall_ms).unwrap_or(f64::NAN);
        ctx.note("batch_wall_p50_ms", wall_p50, "ms", &format!("(n={})", wall_ms.len()));
        let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        ctx.e2e.set("ops_per_s", jobs as f64 / busy_s, "1/s");
        ctx.note("batch_qps", jobs as f64 / busy_s, "1/s", &format!("({jobs} jobs)"));
        ((), loop_ms / lat_ms.len() as f64)
    });

    if ctx.traced {
        fusion_speedup(ctx, &router, &engine);
    }
}

/// Output checks of one batch: every route delivered, every sort
/// sorted, and every [`SOLO_CHECK_EVERY`]th batch one job (rotating)
/// identical to its solo `route`/`sort`.
fn check_batch(ctx: &mut Ctx, router: &Router, jobs: &[Job], outs: &[JobOutcome], b: usize) {
    ctx.check(outs.len() == jobs.len(), || format!("batch {b}: {} outcomes", outs.len()));
    for (i, (job, out)) in jobs.iter().zip(outs).enumerate() {
        let ok = match (job, out) {
            (Job::Route(_), JobOutcome::Route(o)) => o.all_delivered(),
            (Job::Sort(inst), JobOutcome::Sort(o)) => o.is_sorted(inst, N, 1),
            _ => false,
        };
        ctx.op(ok);
        ctx.check(ok, || format!("batch {b} job {i}: wrong outcome"));
    }
    if b.is_multiple_of(SOLO_CHECK_EVERY) {
        let i = (b / SOLO_CHECK_EVERY) % jobs.len();
        let solo = match &jobs[i] {
            Job::Route(inst) => JobOutcome::Route(router.route(inst).expect("valid")),
            Job::Sort(inst) => JobOutcome::Sort(router.sort(inst).expect("valid")),
        };
        ctx.check(ctx::same_outcome(&solo, &outs[i]), || {
            format!("batch {b} job {i}: batch outcome differs from the solo call")
        });
    }
}

/// Times the same batches at the automatic width and at width 1
/// (per-job), alternating, and records both medians and their ratio.
fn fusion_speedup(ctx: &mut Ctx, router: &Router, auto: &QueryEngine<'_>) {
    let perjob = QueryEngine::new(router).with_threads(Some(THREADS)).with_fusion_width(Some(1));
    let mut rng = Rng::new(ctx.seed, "batch-paired");
    perjob.run(&inputs::batch(N, &mut rng)).expect("valid jobs");
    let (mut auto_ms, mut perjob_ms) = (Vec::new(), Vec::new());
    for b in 0..PAIRED_BATCHES {
        let batch = inputs::batch(N, &mut rng);
        for (engine, into) in [(auto, &mut auto_ms), (&perjob, &mut perjob_ms)] {
            let t = Stopwatch::start();
            let out = ctx.tracer.span("engine.run", b as u64, || engine.run(&batch));
            into.push(t.cpu_ms());
            ctx.op(out.is_ok());
        }
    }
    let auto_med = stats::median(&auto_ms).expect("paired batches");
    let perjob_med = stats::median(&perjob_ms).expect("paired batches");
    ctx.layer.set("engine.batch_ms", auto_med, "ms");
    ctx.layer.set("engine.perjob_batch_ms", perjob_med, "ms");
    ctx.layer.set("engine.fusion_speedup", perjob_med / auto_med, "ratio");
    ctx.note(
        "engine.fusion_speedup",
        perjob_med / auto_med,
        "ratio",
        &format!(
            "(per-job {perjob_med:.2} ms / auto {auto_med:.2} ms, medians of {PAIRED_BATCHES})"
        ),
    );
}
