//! Seeded workload inputs. Every generator here is a pure function of
//! its arguments: the same seed gives the same inputs.
//!
//! The graph of a workload depends on its size only ([`GRAPH_SEED`]),
//! so set-up time and preprocessing rounds compare like with like
//! across seeds; `--seed` drives everything the router is asked to do
//! (queries, batch composition, arrival mix, edge swaps).

use expander_core::{Job, RoutingInstance, SortInstance};
use expander_graphs::{generators, Graph, GraphEdit, VertexId};

/// Generator seed of every workload graph.
pub const GRAPH_SEED: u64 = 7;

/// Degree of the random regular workload graphs.
pub const DEGREE: usize = 4;

/// The seeded random 4-regular expander on `n` vertices.
pub fn graph(n: usize) -> Graph {
    generators::random_regular(n, DEGREE, GRAPH_SEED).expect("n·4 is even and n > 4")
}

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `tag` of `seed`, so that independent
    /// input streams of one run never share draws.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut r = Rng(seed);
        for b in tag.bytes() {
            r.0 ^= u64::from(b);
            r.next_u64();
        }
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A full random permutation (load `L = 1`).
pub fn permutation(n: usize, rng: &mut Rng) -> RoutingInstance {
    RoutingInstance::permutation(n, rng.next_u64())
}

/// A quarter-density partial permutation.
pub fn quarter_permutation(n: usize, rng: &mut Rng) -> RoutingInstance {
    RoutingInstance::partial_permutation(n, n / 4, rng.next_u64())
}

/// Jobs per batch in the batch workload.
pub const BATCH_JOBS: usize = 64;

/// One batch: 1 in 8 jobs sorts, the rest split evenly between full
/// and quarter-density permutations, in a seeded order.
pub fn batch(n: usize, rng: &mut Rng) -> Vec<Job> {
    let sorts = BATCH_JOBS / 8;
    let full = (BATCH_JOBS - sorts) / 2;
    let mut kinds: Vec<u8> = (0..BATCH_JOBS)
        .map(|i| match i {
            _ if i < sorts => 0,
            _ if i < sorts + full => 1,
            _ => 2,
        })
        .collect();
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|k| match k {
            0 => Job::Sort(SortInstance::random(n, 1, rng.next_u64())),
            1 => Job::Route(permutation(n, rng)),
            _ => Job::Route(quarter_permutation(n, rng)),
        })
        .collect()
}

/// The stream workload's pool of distinct jobs: half full, half
/// quarter-density permutations, in a seeded order.
pub fn stream_pool(n: usize, size: usize, rng: &mut Rng) -> Vec<Job> {
    let mut full: Vec<bool> = (0..size).map(|i| i < size / 2).collect();
    rng.shuffle(&mut full);
    full.into_iter()
        .map(|f| Job::Route(if f { permutation(n, rng) } else { quarter_permutation(n, rng) }))
        .collect()
}

/// `swaps` degree-preserving double-edge swaps of `g`, applied in
/// sequence: edges `(a, b)`, `(c, d)` become `(a, d)`, `(c, b)`. Swaps
/// that would create a self-loop or parallel edge, or disconnect the
/// graph, are redrawn.
pub fn double_edge_swaps(g: &Graph, swaps: usize, rng: &mut Rng) -> Vec<GraphEdit> {
    let mut work = g.clone();
    let mut edits = Vec::with_capacity(4 * swaps);
    let mut done = 0;
    while done < swaps {
        let edges: Vec<(VertexId, VertexId)> = work.edges().collect();
        let (a, b) = edges[rng.below(edges.len())];
        let (mut c, mut d) = edges[rng.below(edges.len())];
        if rng.below(2) == 1 {
            std::mem::swap(&mut c, &mut d);
        }
        let distinct = a != c && a != d && b != c && b != d;
        if !distinct || work.has_edge(a, d) || work.has_edge(c, b) {
            continue;
        }
        let swap = [
            GraphEdit::RemoveEdge(a, b),
            GraphEdit::RemoveEdge(c, d),
            GraphEdit::InsertEdge(a, d),
            GraphEdit::InsertEdge(c, b),
        ];
        let mut trial = work.clone();
        for e in swap {
            trial.apply_edit(e);
        }
        if trial.is_connected_alive() {
            work = trial;
            edits.extend(swap);
            done += 1;
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(jobs: &[Job]) -> String {
        format!("{jobs:?}")
    }

    #[test]
    fn rng_streams_are_seeded_and_independent() {
        let draw = |seed, tag| {
            let mut r = Rng::new(seed, tag);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "solo"), draw(1, "solo"));
        assert_ne!(draw(1, "solo"), draw(2, "solo"));
        assert_ne!(draw(1, "solo"), draw(1, "batch"));
    }

    #[test]
    fn graph_depends_on_size_only() {
        assert_eq!(graph(128), graph(128));
        assert!(graph(128).degree(0) == DEGREE);
    }

    #[test]
    fn batches_are_pure_functions_of_the_seed() {
        let make = |seed| batch(128, &mut Rng::new(seed, "batch"));
        assert_eq!(fingerprint(&make(5)), fingerprint(&make(5)));
        assert_ne!(fingerprint(&make(5)), fingerprint(&make(6)));
        let jobs = make(5);
        assert_eq!(jobs.len(), BATCH_JOBS);
        let sorts = jobs.iter().filter(|j| matches!(j, Job::Sort(_))).count();
        let full = jobs.iter().filter(|j| matches!(j, Job::Route(r) if r.tokens.len() == 128));
        assert_eq!(sorts, BATCH_JOBS / 8);
        assert_eq!(full.count(), (BATCH_JOBS - sorts) / 2);
    }

    #[test]
    fn stream_pool_is_a_pure_function_of_the_seed() {
        let make = |seed| stream_pool(64, 16, &mut Rng::new(seed, "stream"));
        assert_eq!(fingerprint(&make(9)), fingerprint(&make(9)));
        assert_ne!(fingerprint(&make(9)), fingerprint(&make(10)));
        let full =
            make(9).iter().filter(|j| matches!(j, Job::Route(r) if r.tokens.len() == 64)).count();
        assert_eq!(full, 8);
    }

    #[test]
    fn swaps_are_seeded_and_preserve_degrees() {
        let g = graph(128);
        let make = |seed| double_edge_swaps(&g, 3, &mut Rng::new(seed, "churn"));
        assert_eq!(make(3), make(3));
        assert_ne!(make(3), make(4));
        let mut h = g.clone();
        for e in make(3) {
            h.apply_edit(e);
        }
        assert!(h.is_connected_alive());
        assert!((0..128).all(|v| h.degree(v) == DEGREE));
        assert_ne!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }
}
