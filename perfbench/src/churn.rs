//! `churn-n1024`: closed loop, one caller. Alternates `Router::repair`
//! on a seeded batch of degree-preserving double-edge swaps with a few
//! `Router::route` calls on the repaired router, each call timed on
//! the process CPU clock (see [`crate::cpu`]).

use crate::cpu::Stopwatch;
use crate::ctx::{self, Ctx, REFERENCE_QUERIES};
use crate::inputs::{self, Rng};
use crate::stats;
use expander_core::{JobOutcome, Router};
use std::time::Instant;

pub const N: usize = 1024;
/// Preprocessing and repair workers.
pub const THREADS: usize = 1;
pub const SWAPS_PER_REPAIR: usize = 2;
pub const ROUTES_PER_REPAIR: usize = 4;
/// 80–110 repairs a run: p75 keeps 20 or more samples beyond, where p90
/// would sit on the ten-beyond line.
const REPAIR_TAIL_Q: f64 = 0.75;

pub fn run(ctx: &mut Ctx) {
    let g = inputs::graph(N);
    let router = ctx::setup(ctx, &g, THREADS);
    if ctx.traced {
        ctx::preprocess_breakdown(ctx, &g);
    }
    let mut rng = Rng::new(ctx.seed, "churn-reference");
    let refs: Vec<JobOutcome> = (0..REFERENCE_QUERIES)
        .map(|_| JobOutcome::Route(router.route(&inputs::permutation(N, &mut rng)).expect("valid")))
        .collect();
    ctx::reference_rounds(ctx, &refs);

    ctx.measure(|ctx, window| {
        // Every window starts from the preprocessed router, so both
        // halves of a traced run replay the same edits.
        let mut router = router.clone();
        let mut rng = Rng::new(ctx.seed, "churn");
        let (mut repair_ms, mut wall_ms) = (Vec::new(), Vec::new());
        let (mut hier_ms, mut route_ms) = (Vec::new(), Vec::new());
        let (mut reused, mut total, mut full_rebuilds) = (0usize, 0usize, 0usize);
        let mut vs_rebuild = f64::NAN;
        let start = Instant::now();
        while start.elapsed() < window {
            let round = repair_ms.len() as u64;
            let edits = inputs::double_edge_swaps(router.graph(), SWAPS_PER_REPAIR, &mut rng);
            if ctx.traced {
                let mut hier = router.hierarchy().clone();
                let t = Stopwatch::start();
                let rep = ctx.tracer.span("repair.hierarchy", round, || hier.repair(&edits));
                hier_ms.push(t.cpu_ms());
                ctx.op(rep.is_ok());
            }
            let t = Stopwatch::start();
            let report = ctx.tracer.span("repair.router", round, || router.repair(&edits));
            repair_ms.push(t.cpu_ms());
            wall_ms.push(t.wall_ms());
            ctx.op(report.is_ok());
            let Ok(report) = report else {
                ctx.check(false, || format!("repair {round} refused a connected swap"));
                break;
            };
            reused += report.reused_nodes;
            total += report.total_nodes;
            full_rebuilds += usize::from(report.full_rebuild.is_some());
            if round == 0 {
                let fresh_ms = check_equals_fresh(ctx, &router, round);
                vs_rebuild = repair_ms[0] / fresh_ms;
            }
            for k in 0..ROUTES_PER_REPAIR {
                let inst = inputs::permutation(N, &mut rng);
                let t = Stopwatch::start();
                let out =
                    ctx.tracer.span("exec.route", round * 100 + k as u64, || router.route(&inst));
                route_ms.push(t.cpu_ms());
                ctx.op(out.is_ok());
                let delivered = out.is_ok_and(|o| o.all_delivered());
                ctx.check(delivered, || format!("route {k} after repair {round}: not delivered"));
            }
        }
        let loop_ms = start.elapsed().as_secs_f64() * 1e3;
        if repair_ms.len() > 1 {
            check_equals_fresh(ctx, &router, repair_ms.len() as u64 - 1);
        }

        ctx::record_latency(ctx, "repair", &repair_ms, REPAIR_TAIL_Q, 1, true);
        ctx::record_latency(ctx, "query", &route_ms, 0.95, 1, false);
        let wall_p50 = stats::median(&wall_ms).unwrap_or(f64::NAN);
        ctx.note("repair_wall_p50_ms", wall_p50, "ms", &format!("(n={})", wall_ms.len()));
        let busy_s: f64 = repair_ms.iter().sum::<f64>() / 1e3;
        ctx.e2e.set("ops_per_s", repair_ms.len() as f64 / busy_s, "1/s");
        let l = &mut ctx.layer;
        l.set("repair.router_ms", stats::median(&repair_ms).unwrap_or(f64::NAN), "ms");
        l.set("repair.hierarchy_ms", stats::median(&hier_ms).unwrap_or(0.0), "ms");
        l.set("repair.reuse_ratio", reused as f64 / total.max(1) as f64, "ratio");
        l.set("repair.total_nodes", total as f64, "count");
        l.set("repair.full_rebuilds", full_rebuilds as f64, "count");
        l.set("repair.vs_rebuild", vs_rebuild, "ratio");
        ctx.note(
            "repair.reuse_ratio",
            reused as f64 / total.max(1) as f64,
            "ratio",
            &format!("({reused} of {total} nodes reused)"),
        );
        ((), loop_ms / repair_ms.len().max(1) as f64)
    });
}

/// Checks that the repaired router equals a fresh `Router::preprocess`
/// of its mutated graph; returns the fresh preprocess CPU time in ms.
fn check_equals_fresh(ctx: &mut Ctx, router: &Router, round: u64) -> f64 {
    let graph = router.graph().clone();
    let t = Stopwatch::start();
    let fresh = Router::preprocess(&graph, ctx::router_config(THREADS));
    let fresh_ms = t.cpu_ms();
    let same = fresh.as_ref().is_ok_and(|f| f == router);
    ctx.check(same, || format!("repair {round}: repaired router differs from a fresh preprocess"));
    fresh_ms
}
