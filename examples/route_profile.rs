//! Phase-breakdown profile of a fused query batch: tokens moved,
//! buckets touched, and estimated bytes traversed per execution phase
//! (Task 2 / Task 3 prep / dispersal scans / merge), summed over the
//! batch's per-job `QueryStats::profile`.
//!
//! Run with: `cargo run --release --example route_profile`

use expander_routing::core::{PhaseProfile, RouteProfile};
use expander_routing::prelude::*;

fn row(name: &str, p: &PhaseProfile, total_bytes: u64) {
    let share =
        if total_bytes == 0 { 0.0 } else { 100.0 * p.bytes_traversed as f64 / total_bytes as f64 };
    println!(
        "  {name:10} {:>14} {:>16} {:>16} {share:>7.1}%",
        p.tokens_moved, p.buckets_touched, p.bytes_traversed
    );
}

fn print_table(profile: &RouteProfile) {
    let total = profile.total();
    println!(
        "  {:10} {:>14} {:>16} {:>16} {:>8}",
        "phase", "tokens moved", "buckets touched", "bytes traversed", "bytes%"
    );
    row("task2", &profile.task2, total.bytes_traversed);
    row("task3", &profile.task3, total.bytes_traversed);
    row("disperse", &profile.disperse, total.bytes_traversed);
    row("merge", &profile.merge, total.bytes_traversed);
    row("TOTAL", &total, total.bytes_traversed);
}

fn main() {
    let n = 512;
    let batch = 64;
    let g = generators::random_regular(n, 4, 9).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    let engine = QueryEngine::new(&router).with_fusion_width(Some(batch));

    let jobs: Vec<Job> =
        (0..batch).map(|i| Job::Route(RoutingInstance::permutation(n, 1000 + i as u64))).collect();

    // Per-job counts leave out the shared, cached dummy-flock
    // dispersals, so even this cold batch shows the steady-state
    // traffic a served batch costs.
    let out = engine.run(&jobs).expect("valid jobs");

    println!(
        "batch: {} jobs on n = {n} (fusion width {batch}), {} total charged rounds\n",
        out.stats.jobs,
        out.stats.merged.total()
    );
    println!("steady-state phase traffic (whole batch):");
    print_table(&out.stats.query.profile);
}
