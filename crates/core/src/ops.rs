//! Token-level primitives built on expander sorting: ranking,
//! propagation, serialization, aggregation (Theorem 5.7, Lemma 5.8,
//! Corollaries 5.9/5.10).
//!
//! Each primitive reduces to a constant number of expander sorts; the
//! first sort is executed physically for a measured ledger, and the
//! remaining passes charge the same measured cost (the paper's
//! reductions re-run the identical machinery). Result values are
//! computed exactly per the definitions.
//!
//! Every primitive takes a [`QueryEngine`]; the physical sort inside
//! each call is a [`Router::sort`](crate::router::Router::sort) on the
//! router's pooled scratch, so repeated calls (MST phases, PRAM steps,
//! summarization passes) amortize the per-query setup.

use crate::engine::QueryEngine;
use crate::token::{InstanceError, SortInstance};

/// Result of a token-level primitive: one value per token (aligned
/// with the instance) plus the charged rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpOutcome {
    /// Per-token result (rank, serial, count, or propagated variable).
    pub values: Vec<u64>,
    /// Charged rounds.
    pub rounds: u64,
}

fn measured_sort_rounds(
    engine: &QueryEngine<'_>,
    inst: &SortInstance,
) -> Result<u64, InstanceError> {
    Ok(engine.router().sort(inst)?.rounds())
}

/// Token ranking (Theorem 5.7): each token learns the number of
/// *distinct* keys strictly smaller than its own. Two sort passes.
///
/// # Errors
///
/// Propagates instance validation errors.
pub fn token_ranking(
    engine: &QueryEngine<'_>,
    inst: &SortInstance,
) -> Result<OpOutcome, InstanceError> {
    let one_sort = measured_sort_rounds(engine, inst)?;
    let mut keys: Vec<u64> = inst.tokens.iter().map(|t| t.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let values = inst.tokens.iter().map(|t| keys.partition_point(|&k| k < t.key) as u64).collect();
    Ok(OpOutcome { values, rounds: 2 * one_sort })
}

/// Local serialization (Corollary 5.9): each token receives a distinct
/// serial in `0..Count(k_z)` among tokens with the same key. Two token
/// rankings (four sort passes).
///
/// Serial order is deterministic: by `(source vertex, instance index)`,
/// the paper's "starting location + sequential order" tag.
///
/// # Errors
///
/// Propagates instance validation errors.
pub fn local_serialization(
    engine: &QueryEngine<'_>,
    inst: &SortInstance,
) -> Result<OpOutcome, InstanceError> {
    let one_sort = measured_sort_rounds(engine, inst)?;
    let mut order: Vec<usize> = (0..inst.tokens.len()).collect();
    order.sort_by_key(|&i| (inst.tokens[i].key, inst.tokens[i].src, i));
    let mut values = vec![0u64; inst.tokens.len()];
    let mut serial = 0u64;
    for (pos, &i) in order.iter().enumerate() {
        if pos > 0 && inst.tokens[order[pos - 1]].key != inst.tokens[i].key {
            serial = 0;
        }
        values[i] = serial;
        serial += 1;
    }
    Ok(OpOutcome { values, rounds: 4 * one_sort })
}

/// Local aggregation (Corollary 5.10): each token learns
/// `Count(k_z)`, the number of tokens sharing its key. Two rankings
/// plus one propagation (five sort passes).
///
/// # Errors
///
/// Propagates instance validation errors.
pub fn local_aggregation(
    engine: &QueryEngine<'_>,
    inst: &SortInstance,
) -> Result<OpOutcome, InstanceError> {
    let one_sort = measured_sort_rounds(engine, inst)?;
    let mut counts = std::collections::HashMap::new();
    for t in &inst.tokens {
        *counts.entry(t.key).or_insert(0u64) += 1;
    }
    let values = inst.tokens.iter().map(|t| counts[&t.key]).collect();
    Ok(OpOutcome { values, rounds: 5 * one_sort })
}

/// Local propagation (Lemma 5.8): every token's variable is rewritten
/// to the variable of the minimum-tag token sharing its key. `tags`
/// and `vars` align with the instance; two sort passes (forward +
/// revert).
///
/// # Errors
///
/// Propagates instance validation errors; errors if the slices
/// misalign.
pub fn local_propagation(
    engine: &QueryEngine<'_>,
    inst: &SortInstance,
    tags: &[u64],
    vars: &[u64],
) -> Result<OpOutcome, InstanceError> {
    if tags.len() != inst.tokens.len() || vars.len() != inst.tokens.len() {
        return Err(InstanceError::new("tags/vars misaligned with tokens"));
    }
    let one_sort = measured_sort_rounds(engine, inst)?;
    let mut leader: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    for (i, t) in inst.tokens.iter().enumerate() {
        let entry = leader.entry(t.key).or_insert((tags[i], vars[i]));
        if tags[i] < entry.0 {
            *entry = (tags[i], vars[i]);
        }
    }
    let values = inst.tokens.iter().map(|t| leader[&t.key].1).collect();
    Ok(OpOutcome { values, rounds: 2 * one_sort })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn ranking_counts_distinct_smaller_keys() {
        let r = router(128, 1);
        let engine = QueryEngine::new(&r);
        let inst = SortInstance::from_triples(&[
            (0, 10, 0),
            (1, 20, 0),
            (2, 10, 0),
            (3, 30, 0),
            (4, 20, 0),
        ]);
        let out = token_ranking(&engine, &inst).expect("valid");
        assert_eq!(out.values, vec![0, 1, 0, 2, 1]);
        assert!(out.rounds > 0);
    }

    #[test]
    fn serialization_is_a_bijection_per_key() {
        let r = router(128, 2);
        let engine = QueryEngine::new(&r);
        let inst = SortInstance::random(128, 2, 3);
        let out = local_serialization(&engine, &inst).expect("valid");
        let mut seen = std::collections::HashSet::new();
        let mut counts = std::collections::HashMap::new();
        for t in &inst.tokens {
            *counts.entry(t.key).or_insert(0u64) += 1;
        }
        for (i, t) in inst.tokens.iter().enumerate() {
            assert!(out.values[i] < counts[&t.key], "serial out of range");
            assert!(seen.insert((t.key, out.values[i])), "duplicate serial");
        }
    }

    #[test]
    fn aggregation_counts_keys() {
        let r = router(128, 3);
        let engine = QueryEngine::new(&r);
        let inst = SortInstance::from_triples(&[(0, 5, 0), (1, 5, 0), (2, 7, 0)]);
        let out = local_aggregation(&engine, &inst).expect("valid");
        assert_eq!(out.values, vec![2, 2, 1]);
    }

    #[test]
    fn propagation_takes_min_tag_variable() {
        let r = router(128, 4);
        let engine = QueryEngine::new(&r);
        let inst = SortInstance::from_triples(&[(0, 1, 0), (1, 1, 0), (2, 2, 0)]);
        let out = local_propagation(&engine, &inst, &[5, 3, 9], &[50, 30, 90]).expect("valid");
        assert_eq!(out.values, vec![30, 30, 90]);
    }

    #[test]
    fn op_costs_scale_with_pass_count() {
        let r = router(128, 5);
        let engine = QueryEngine::new(&r);
        let inst = SortInstance::random(128, 1, 6);
        let rank = token_ranking(&engine, &inst).expect("valid");
        let serial = local_serialization(&engine, &inst).expect("valid");
        assert_eq!(serial.rounds, 2 * rank.rounds);
    }
}
