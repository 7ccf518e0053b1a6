//! State shared by every workload of one run: arguments, the tracer,
//! the metric sets, operation and check counts, plus the steps every
//! workload shares (preprocessing set-up, its traced breakdown, the
//! reference query rounds and the measurement window).

use crate::cpu::Stopwatch;
use crate::metrics::{self, Metrics, PRE_PHASES, QUERY_PHASES};
use crate::stats;
use crate::trace::Tracer;
use congest_sim::RoundLedger;
use expander_core::token::QueryStats;
use expander_core::{JobOutcome, Router, RouterConfig};
use expander_decomp::{build_shuffler, Hierarchy};
use expander_graphs::Graph;
use std::time::{Duration, Instant};

/// The paper's `ε` for every workload.
pub const EPSILON: f64 = 0.4;

/// Queries whose merged ledger gives `query_rounds` and
/// `rounds.query.*` on the solo and churn workloads (the batch workload
/// uses its first batch, the stream workload its job pool).
pub const REFERENCE_QUERIES: usize = 16;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    /// End-to-end metrics (printed by an untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (printed by a traced run).
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any makes the run incorrect.
    pub failures: Vec<String>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(traced),
            e2e: Metrics::default(),
            layer: Metrics::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one operation (a query, job, submission or repair).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one output check; a failure also makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Prints one human-readable metric line (not part of the result).
    pub fn note(&self, name: &str, value: f64, unit: &str, detail: &str) {
        println!("{name} {value:.4} {unit} {detail}");
    }

    /// Runs the measurement `body` for the run's window. `body` gets the
    /// window length and returns its result plus a cost per operation
    /// (ms). A traced run measures twice, half the window each: first
    /// untraced, then traced, and records the cost difference as the
    /// tracing overhead.
    pub fn measure<T>(&mut self, mut body: impl FnMut(&mut Ctx, Duration) -> (T, f64)) -> T {
        let window = Duration::from_secs_f64(self.seconds);
        if !self.traced {
            return body(self, window).0;
        }
        self.tracer.set_enabled(false);
        let (_, base) = body(self, window / 2);
        self.tracer.set_enabled(true);
        let (out, traced) = body(self, window / 2);
        self.layer.set("trace.overhead_ms", traced - base, "ms");
        self.layer.set("trace.overhead_pct", 100.0 * (traced - base) / base, "%");
        self.note("trace.base_cost_ms", base, "ms", "(untraced half, cost per operation)");
        self.note("trace.traced_cost_ms", traced, "ms", "(traced half, cost per operation)");
        out
    }
}

/// Router configuration at a pinned worker count.
pub fn router_config(threads: usize) -> RouterConfig {
    let mut config = RouterConfig::for_epsilon(EPSILON);
    config.hierarchy.threads = Some(threads);
    config
}

/// Set-up repeats at least this often and for at least this long, so
/// its median spans the host's slower and faster spells.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_secs(4);

/// Preprocesses `g` repeatedly at `threads` workers; `setup_s` is the
/// median process CPU time (see [`crate::cpu`]; with one worker, the wall
/// time on a core of its own). Records `preprocess_rounds` and the
/// `rounds.pre.*` family, and checks that every repetition charged the
/// same ledger. Returns the last router.
pub fn setup(ctx: &mut Ctx, g: &Graph, threads: usize) -> Router {
    let (mut times, mut wall) = (Vec::new(), Vec::new());
    let mut first: Option<RoundLedger> = None;
    let mut router = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN_TIME {
        let rep = times.len();
        drop(router.take());
        let t = Stopwatch::start();
        let r = ctx.tracer.span("router.preprocess", rep as u64, || {
            Router::preprocess(g, router_config(threads))
        });
        times.push(t.cpu_ms() / 1e3);
        wall.push(t.wall_ms() / 1e3);
        ctx.op(r.is_ok());
        let r = r.expect("a connected random regular graph preprocesses");
        let ledger = r.preprocessing_ledger().clone();
        match &first {
            None => first = Some(ledger),
            Some(l) => {
                ctx.check(*l == ledger, || format!("preprocess rep {rep} charged other rounds"))
            }
        }
        router = Some(r);
    }
    let router = router.expect("at least one repetition");
    let setup_s = stats::median(&times).expect("at least one repetition");
    ctx.e2e.set("setup_s", setup_s, "s");
    let detail = format!("(CPU, median of {}, {threads} threads)", times.len());
    ctx.note("setup_s", setup_s, "s", &detail);
    let wall_s = stats::median(&wall).expect("at least one repetition");
    ctx.note("setup_wall_s", wall_s, "s", &format!("(median of {})", wall.len()));

    let pre = router.preprocessing_ledger();
    ctx.e2e.set("preprocess_rounds", pre.total() as f64, "rounds");
    ctx.note("preprocess_rounds", pre.total() as f64, "rounds", "");
    record_family(ctx, "pre", PRE_PHASES, pre);
    router
}

fn record_family(ctx: &mut Ctx, family: &str, known: &[&str], ledger: &RoundLedger) {
    match metrics::phase_family(family, known, ledger.breakdown(), ledger.total()) {
        Ok(fam) => {
            for (name, rounds) in fam {
                ctx.layer.set(name, rounds as f64, "rounds");
            }
            ctx.check(true, String::new);
        }
        Err(e) => ctx.check(false, || e),
    }
}

/// Traced-run breakdown of preprocessing, all at one worker so the
/// parts add up: `Hierarchy::build`, `build_shuffler` over every
/// internal node, and `Router::preprocess`. `router.lower_s` is derived
/// as preprocess − hierarchy − shufflers.
pub fn preprocess_breakdown(ctx: &mut Ctx, g: &Graph) {
    let config = router_config(1);
    let t = Instant::now();
    let hier = ctx
        .tracer
        .span("decomp.hierarchy.build", 0, || Hierarchy::build(g, config.hierarchy.clone()));
    let hier_s = t.elapsed().as_secs_f64();
    let hier = hier.expect("a connected random regular graph builds");

    let internal: Vec<usize> =
        (0..hier.nodes().len()).filter(|&id| !hier.node(id).is_leaf()).collect();
    let mut shuffler_s = 0.0;
    let mut shuffler_ledger = RoundLedger::new();
    let parent = ctx.tracer.enter("decomp.shuffler.all", 0);
    for &id in &internal {
        let t = Instant::now();
        ctx.tracer.span("decomp.shuffler.build", id as u64, || {
            build_shuffler(&hier, id, &config.shuffler, &mut shuffler_ledger)
        });
        shuffler_s += t.elapsed().as_secs_f64();
    }
    ctx.tracer.exit(parent);

    let t = Instant::now();
    let router = ctx.tracer.span("router.preprocess", u64::MAX, || Router::preprocess(g, config));
    let pre_s = t.elapsed().as_secs_f64();
    let router = router.expect("a connected random regular graph preprocesses");

    let pre = router.preprocessing_ledger();
    let shuffler_in_pre: u64 =
        pre.breakdown().filter(|(p, _)| p.starts_with("pre/shuffler/")).map(|(_, r)| r).sum();
    ctx.check(shuffler_in_pre == shuffler_ledger.total(), || {
        format!(
            "shuffler rounds: {} charged by build_shuffler, {shuffler_in_pre} in preprocessing",
            shuffler_ledger.total()
        )
    });
    ctx.check(*router.hierarchy().ledger() == *hier.ledger(), || {
        "Hierarchy::build and Router::preprocess built different hierarchies".into()
    });

    let l = &mut ctx.layer;
    l.set("decomp.hierarchy.build_s", hier_s, "s");
    l.set("decomp.hierarchy.rounds", hier.ledger().total() as f64, "rounds");
    l.set("decomp.hierarchy.nodes", hier.nodes().len() as f64, "count");
    l.set("decomp.shuffler.build_s", shuffler_s, "s");
    l.set("decomp.shuffler.rounds", shuffler_ledger.total() as f64, "rounds");
    l.set("decomp.shuffler.nodes", internal.len() as f64, "count");
    l.set("router.preprocess_1t_s", pre_s, "s");
    l.set("router.lower_s", pre_s - hier_s - shuffler_s, "s");
    ctx.note(
        "router.lower_s",
        pre_s - hier_s - shuffler_s,
        "s",
        "(derived: preprocess - hierarchy - shufflers, 1 thread)",
    );
}

/// Records `query_rounds` (the merged ledger of the reference jobs),
/// its `rounds.query.*` family, and the `exec.*` counts of their
/// merged stats.
pub fn reference_rounds(ctx: &mut Ctx, outcomes: &[JobOutcome]) {
    let mut ledger = RoundLedger::new();
    let mut stats = QueryStats::default();
    for o in outcomes {
        ledger.merge(o.ledger());
        stats.absorb(o.stats());
    }
    ctx.e2e.set("query_rounds", ledger.total() as f64, "rounds");
    ctx.note(
        "query_rounds",
        ledger.total() as f64,
        "rounds",
        &format!("(merged over {} jobs)", outcomes.len()),
    );
    record_family(ctx, "query", QUERY_PHASES, &ledger);
    let l = &mut ctx.layer;
    l.set("exec.task3_calls", stats.task3_calls as f64, "count");
    l.set("exec.max_congestion", stats.max_congestion as f64, "count");
    l.set("exec.max_dilation", stats.max_dilation as f64, "count");
    l.set("exec.fallback_tokens", stats.fallback_tokens as f64, "count");
}

/// Whether two outcomes are identical in every observable field.
pub fn same_outcome(a: &JobOutcome, b: &JobOutcome) -> bool {
    match (a, b) {
        (JobOutcome::Route(x), JobOutcome::Route(y)) => {
            x.positions == y.positions
                && x.destinations == y.destinations
                && x.ledger == y.ledger
                && x.stats == y.stats
        }
        (JobOutcome::Sort(x), JobOutcome::Sort(y)) => {
            x.positions == y.positions && x.ledger == y.ledger && x.stats == y.stats
        }
        _ => false,
    }
}

/// Prints a latency distribution: the median and the `q`-quantile of
/// each of `windows` equal consecutive chunks (median over the chunks),
/// with the sample count. With `into_e2e` they become `p50_ms` and
/// `tail_ms`, and an untraced run fails when a chunk has fewer than ten
/// samples beyond its quantile. Returns the tail.
pub fn record_latency(
    ctx: &mut Ctx,
    label: &str,
    samples_ms: &[f64],
    q: f64,
    windows: usize,
    into_e2e: bool,
) -> Option<stats::Tail> {
    let p50 = stats::median(samples_ms);
    let tail = stats::tail(samples_ms, windows, q);
    // A traced run's halved window may be too short for a tail; only
    // the end-to-end figures of an untraced run must have one.
    if into_e2e && !ctx.traced {
        ctx.check(p50.is_some() && tail.is_some(), || {
            format!("{label}: {} samples, too few for a tail percentile", samples_ms.len())
        });
    }
    let (Some(p50), Some(tail)) = (p50, tail) else { return None };
    let n = samples_ms.len();
    ctx.note(&format!("{label}_p50_ms"), p50, "ms", &format!("(n={n})"));
    ctx.note(
        &format!("{label}_{}_ms", tail.label()),
        tail.value,
        "ms",
        &format!("(n={n}, median of {windows} windows, {} beyond in each)", tail.beyond),
    );
    if into_e2e {
        ctx.e2e.set("p50_ms", p50, "ms");
        ctx.e2e.set("tail_ms", tail.value, "ms");
    }
    Some(tail)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
