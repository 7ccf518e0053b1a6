//! Criterion micro-benchmarks: wall-clock of the heavy substrate
//! operations (the experiment harness in `experiments.rs` measures
//! charged rounds; this file measures engine wall-clock throughput).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use expander_core::{Router, RouterConfig, RoutingInstance, SortInstance};
use expander_decomp::{
    build_shuffler, pack_matching, EscalationConfig, Hierarchy, HierarchyParams, HostGraph,
    ShufflerParams,
};
use expander_graphs::{generators, metrics};

fn bench_hierarchy_build(c: &mut Criterion) {
    // n = 256 pins the historical baseline; 1024/4096 track the staged
    // parallel build (thread count from `EXPANDER_BUILD_THREADS`,
    // default `available_parallelism`).
    for n in [256usize, 1024, 4096] {
        let g = generators::random_regular(n, 4, 3).expect("generator");
        c.bench_function(&format!("hierarchy_build_n{n}"), |b| {
            b.iter(|| Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy"))
        });
    }
}

fn bench_hierarchy_repair(c: &mut Criterion) {
    // The incremental-repair headline: one parallel-edge insertion on
    // n = 4096 must splice nearly every subtree, so repair lands well
    // under the `hierarchy_repair_full_rebuild_n4096` floor below
    // (≥5× in practice). ε = 0.12 keeps the tree wide (many level-1
    // subtrees to splice); the raised congestion cap keeps the deep
    // packings off the escalation path so the two benches compare the
    // same work.
    let n = 4096;
    let g = generators::random_regular(n, 4, 3).expect("generator");
    let params = HierarchyParams {
        escalation: EscalationConfig { congestion_cap: 8, ..EscalationConfig::default() },
        ..HierarchyParams::for_epsilon(0.12)
    };
    let (u, v) = g.edges().next().expect("edge");
    let edits = [expander_graphs::GraphEdit::InsertEdge(u, v)];
    let base = Hierarchy::build(&g, params.clone()).expect("hierarchy");
    c.bench_function(&format!("hierarchy_repair_n{n}"), |b| {
        b.iter_batched(
            || base.clone(),
            |mut h| {
                let report = h.repair(&edits).expect("repair");
                assert!(report.is_incremental(), "repair fell back: {report:?}");
                h
            },
            BatchSize::SmallInput,
        )
    });
    let mut mutated = g.clone();
    mutated.apply_edit(edits[0]);
    c.bench_function(&format!("hierarchy_repair_full_rebuild_n{n}"), |b| {
        b.iter(|| Hierarchy::build(&mutated, params.clone()).expect("hierarchy"))
    });
}

fn bench_shuffler_build(c: &mut Criterion) {
    let g = generators::random_regular(256, 4, 5).expect("generator");
    let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
    c.bench_function("shuffler_build_root_n256", |b| {
        b.iter(|| {
            let mut ledger = congest_sim::RoundLedger::new();
            build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger)
        })
    });
}

fn bench_route_query(c: &mut Criterion) {
    let g = generators::random_regular(512, 4, 7).expect("generator");
    let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let inst = RoutingInstance::permutation(512, 9);
    c.bench_function("route_query_n512_L1", |b| b.iter(|| r.route(&inst).expect("valid")));
}

fn bench_route_query_large_l(c: &mut Criterion) {
    // Theorem 1.1's query bound is linear in L; these pin the measured
    // wall-clock of the batched hot path at L = 8 and L = 32.
    let g = generators::random_regular(512, 4, 7).expect("generator");
    let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    for l in [8usize, 32] {
        let inst = RoutingInstance::uniform_load(512, l, 15);
        c.bench_function(&format!("route_query_n512_L{l}"), |b| {
            b.iter(|| r.route(&inst).expect("valid"))
        });
    }
}

fn bench_sort_query(c: &mut Criterion) {
    let g = generators::random_regular(512, 4, 11).expect("generator");
    let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let inst = SortInstance::random(512, 2, 13);
    c.bench_function("sort_query_n512_L2", |b| b.iter(|| r.sort(&inst).expect("valid")));
}

fn bench_spectral_gap(c: &mut Criterion) {
    let g = generators::random_regular(1024, 4, 17).expect("generator");
    c.bench_function("spectral_gap_n1024", |b| b.iter(|| metrics::spectral_gap(&g, 1)));
}

fn bench_path_packing(c: &mut Criterion) {
    let g = generators::random_regular(512, 4, 19).expect("generator");
    let host = HostGraph::from_graph(&g);
    let sources: Vec<u32> = (0..128).collect();
    let sinks: Vec<u32> = (256..512).collect();
    c.bench_function("pack_matching_128_sources_n512", |b| {
        b.iter_batched(
            || (),
            |()| pack_matching(&host, &sources, &sinks, 1, EscalationConfig::default()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        bench_hierarchy_build,
        bench_hierarchy_repair,
        bench_shuffler_build,
        bench_route_query,
        bench_route_query_large_l,
        bench_sort_query,
        bench_spectral_gap,
        bench_path_packing
}
criterion_main!(benches);
