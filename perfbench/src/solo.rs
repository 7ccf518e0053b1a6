//! `solo-n4096`: closed loop, one caller. Preprocess n = 4096, then
//! sequential `Router::route` calls on seeded full permutations, each
//! timed on the process CPU clock (see [`crate::cpu`]).

use crate::cpu::Stopwatch;
use crate::ctx::{self, Ctx, REFERENCE_QUERIES};
use crate::inputs::{self, Rng};
use crate::stats;
use expander_core::JobOutcome;
use std::time::Instant;

pub const N: usize = 4096;
/// Preprocessing workers (`Router::route` runs on the caller alone).
pub const THREADS: usize = 1;
/// About 1 100 routes a run leave p95 some 50 samples beyond.
const TAIL_Q: f64 = 0.95;

pub fn run(ctx: &mut Ctx) {
    let g = inputs::graph(N);
    let router = ctx::setup(ctx, &g, THREADS);
    if ctx.traced {
        ctx::preprocess_breakdown(ctx, &g);
    }

    let mut rng = Rng::new(ctx.seed, "solo-reference");
    let refs: Vec<JobOutcome> = (0..REFERENCE_QUERIES)
        .map(|_| JobOutcome::Route(router.route(&inputs::permutation(N, &mut rng)).expect("valid")))
        .collect();
    ctx::reference_rounds(ctx, &refs);

    ctx.measure(|ctx, window| {
        let mut rng = Rng::new(ctx.seed, "solo");
        let (mut lat_ms, mut wall_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < window {
            let inst = inputs::permutation(N, &mut rng);
            let open = ctx.tracer.enter("exec.route", lat_ms.len() as u64);
            let t = Stopwatch::start();
            let out = router.route(&inst);
            lat_ms.push(t.cpu_ms());
            wall_ms.push(t.wall_ms());
            ctx.tracer.exit(open);
            ctx.op(out.is_ok());
            let delivered = out.is_ok_and(|o| o.all_delivered() && o.destinations == dest(&inst));
            ctx.check(delivered, || format!("route {}: tokens not delivered", lat_ms.len()));
        }
        let loop_ms = start.elapsed().as_secs_f64() * 1e3;
        ctx::record_latency(ctx, "query", &lat_ms, TAIL_Q, 1, true);
        let wall_p50 = stats::median(&wall_ms).unwrap_or(f64::NAN);
        ctx.note("query_wall_p50_ms", wall_p50, "ms", &format!("(n={})", wall_ms.len()));
        let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        ctx.e2e.set("ops_per_s", lat_ms.len() as f64 / busy_s, "1/s");
        ((), loop_ms / lat_ms.len() as f64)
    });

    // Charged rounds repeat exactly: the first reference query again.
    let mut rng = Rng::new(ctx.seed, "solo-reference");
    let again = router.route(&inputs::permutation(N, &mut rng)).expect("valid");
    ctx.check(again.ledger == *refs[0].ledger(), || "query rounds did not repeat".into());
}

/// Each token's destination, in token order.
fn dest(inst: &expander_core::RoutingInstance) -> Vec<u32> {
    inst.tokens.iter().map(|t| t.dst).collect()
}
