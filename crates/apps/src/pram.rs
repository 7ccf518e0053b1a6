//! PRAM-on-CONGEST simulation via expander routing (Ghaffari–Li,
//! DISC 2018 — cited in the paper's §1.1 applications list).
//!
//! A shared-memory machine with `n` processors (one per vertex) and a
//! distributed cell array (`cell c` lives at vertex `c mod n`). Each
//! PRAM step's reads and writes become expander-routing instances:
//! concurrent reads of one cell are *combined* through the sorting
//! toolbox (one representative fetches, local propagation fans out),
//! and concurrent writes resolve CRCW-arbitrary by minimum processor
//! id. Every step therefore costs `O(1)` routing queries plus `O(1)`
//! sorts — the GL18 transfer theorem's shape.

use expander_core::ops::local_propagation;
use expander_core::token::{InstanceError, SortInstance, SortToken};
use expander_core::{JobOutcome, JobRef, QueryEngine, Router, RoutingInstance};
use std::collections::BTreeMap;

/// One processor's operation in a PRAM step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PramOp {
    /// Read a cell; the value is returned from [`PramMachine::step`].
    Read(u64),
    /// Write a value to a cell (CRCW-arbitrary: min processor id wins).
    Write(u64, u64),
    /// Do nothing this step.
    Nop,
}

/// A distributed PRAM over an expander router.
///
/// The machine owns a [`QueryEngine`] over the router so the write
/// phase's conflict sort and delivery route ship as one batch; every
/// step runs on the router's warm pooled scratches.
#[derive(Debug)]
pub struct PramMachine<'r> {
    engine: QueryEngine<'r>,
    memory: Vec<u64>,
    /// Charged rounds across all steps.
    pub rounds: u64,
    /// Steps executed.
    pub steps: u32,
}

impl<'r> PramMachine<'r> {
    /// A machine with `cells` zero-initialized memory cells.
    pub fn new(router: &'r Router, cells: usize) -> Self {
        PramMachine {
            engine: QueryEngine::new(router),
            memory: vec![0; cells],
            rounds: 0,
            steps: 0,
        }
    }

    /// Current memory snapshot.
    pub fn memory(&self) -> &[u64] {
        &self.memory
    }

    /// Loads initial memory contents.
    pub fn load_memory(&mut self, values: &[u64]) {
        self.memory[..values.len()].copy_from_slice(values);
    }

    fn owner(&self, cell: u64) -> u32 {
        (cell % self.engine.router().graph().n() as u64) as u32
    }

    /// Executes one synchronous PRAM step: `ops[p]` is processor `p`'s
    /// operation. Returns the read results (aligned with `ops`;
    /// non-reads yield 0).
    ///
    /// # Errors
    ///
    /// Propagates routing/sorting validation errors.
    ///
    /// # Panics
    ///
    /// Panics if `ops` has more entries than the graph has vertices or
    /// a cell index is out of range.
    pub fn step(&mut self, ops: &[PramOp]) -> Result<Vec<u64>, InstanceError> {
        let n = self.engine.router().graph().n();
        assert!(ops.len() <= n, "one op per processor");
        self.steps += 1;

        // --- Reads: combine duplicates, fetch once per distinct cell.
        // BTreeMap: token order feeds the router's dispersal, so map
        // iteration order must be deterministic.
        let mut readers: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (p, op) in ops.iter().enumerate() {
            if let PramOp::Read(c) = op {
                assert!((*c as usize) < self.memory.len(), "cell out of range");
                readers.entry(*c).or_default().push(p);
            }
        }
        let mut results = vec![0u64; ops.len()];
        if !readers.is_empty() {
            // Representative processor -> owner, and back: two routing
            // instances (request + reply along the reversed route).
            let mut request = Vec::new();
            for (&cell, ps) in &readers {
                request.push((ps[0] as u32, self.owner(cell), cell));
            }
            let req_inst = RoutingInstance::from_triples(&request);
            let out = self.engine.router().route(&req_inst)?;
            self.rounds += 2 * out.rounds(); // request + reply

            // Fan the fetched value out to all duplicate readers:
            // local propagation keyed by cell (Lemma 5.8).
            let prop_tokens: Vec<SortToken> = readers
                .iter()
                .flat_map(|(&cell, ps)| {
                    ps.iter().map(move |&p| SortToken {
                        src: p as u32,
                        key: cell,
                        payload: p as u64,
                    })
                })
                .collect();
            let tags: Vec<u64> = prop_tokens.iter().map(|t| t.payload).collect();
            let vars: Vec<u64> = prop_tokens.iter().map(|t| self.memory[t.key as usize]).collect();
            let prop = local_propagation(
                &self.engine,
                &SortInstance { tokens: prop_tokens.clone() },
                &tags,
                &vars,
            )?;
            self.rounds += prop.rounds;
            for (i, t) in prop_tokens.iter().enumerate() {
                results[t.payload as usize] = prop.values[i];
            }
        }

        // --- Writes: CRCW-arbitrary, min processor id wins per cell.
        let mut winners: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for (p, op) in ops.iter().enumerate() {
            if let PramOp::Write(c, v) = op {
                assert!((*c as usize) < self.memory.len(), "cell out of range");
                let e = winners.entry(*c).or_insert((p, *v));
                if p < e.0 {
                    *e = (p, *v);
                }
            }
        }
        if !winners.is_empty() {
            // Conflict resolution = one sort (min id per cell), then one
            // routing instance carries the winning writes to owners.
            // Both instances are static functions of the step's ops, so
            // they ship as one engine batch.
            let write_tokens: Vec<(u32, u32, u64)> =
                winners.iter().map(|(&cell, &(p, _))| (p as u32, self.owner(cell), cell)).collect();
            let sort_probe = SortInstance {
                tokens: write_tokens
                    .iter()
                    .map(|&(src, _, cell)| SortToken { src, key: cell, payload: 0 })
                    .collect(),
            };
            let write_inst = RoutingInstance::from_triples(&write_tokens);
            let batch =
                self.engine.run_refs(&[JobRef::Sort(&sort_probe), JobRef::Route(&write_inst)])?;
            debug_assert!(matches!(batch.outcomes[0], JobOutcome::Sort(_)));
            self.rounds += batch.stats.merged.total();
            for (&cell, &(_, v)) in &winners {
                self.memory[cell as usize] = v;
            }
        }
        Ok(results)
    }
}

/// Parallel prefix sum (Hillis–Steele) over the PRAM machine:
/// `log₂ n` steps of `x[i] += x[i − 2^d]`. Returns the inclusive
/// prefix sums plus the charged rounds.
///
/// # Errors
///
/// Propagates step errors.
pub fn prefix_sum(router: &Router, values: &[u64]) -> Result<(Vec<u64>, u64, u32), InstanceError> {
    let m = values.len();
    assert!(m <= router.graph().n(), "one value per processor");
    let mut machine = PramMachine::new(router, m);
    machine.load_memory(values);
    let mut d = 1usize;
    while d < m {
        // Read phase: processor i >= d reads cell i - d.
        let read_ops: Vec<PramOp> = (0..m)
            .map(|i| if i >= d { PramOp::Read((i - d) as u64) } else { PramOp::Nop })
            .collect();
        let fetched = machine.step(&read_ops)?;
        // Write phase: x[i] += fetched.
        let write_ops: Vec<PramOp> = (0..m)
            .map(|i| {
                if i >= d {
                    PramOp::Write(i as u64, machine.memory()[i] + fetched[i])
                } else {
                    PramOp::Nop
                }
            })
            .collect();
        machine.step(&write_ops)?;
        d *= 2;
    }
    Ok((machine.memory().to_vec(), machine.rounds, machine.steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_core::RouterConfig;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn prefix_sum_matches_sequential() {
        let r = router(128, 1);
        let values: Vec<u64> = (0..128u64).map(|i| i * 3 + 1).collect();
        let (sums, rounds, steps) = prefix_sum(&r, &values).expect("valid");
        let mut expect = values.clone();
        for i in 1..expect.len() {
            expect[i] += expect[i - 1];
        }
        assert_eq!(sums, expect);
        assert_eq!(steps, 14, "2·log2(128) steps");
        assert!(rounds > 0);
    }

    #[test]
    fn concurrent_reads_are_combined() {
        let r = router(128, 2);
        let mut m = PramMachine::new(&r, 4);
        m.load_memory(&[7, 8, 9, 10]);
        // All processors read cell 2 (CRCW read combining).
        let ops: Vec<PramOp> = (0..64).map(|_| PramOp::Read(2)).collect();
        let out = m.step(&ops).expect("valid");
        assert!(out.iter().all(|&v| v == 9));
    }

    #[test]
    fn write_conflicts_resolve_by_min_processor() {
        let r = router(128, 3);
        let mut m = PramMachine::new(&r, 2);
        let ops = vec![
            PramOp::Write(0, 100), // processor 0 wins cell 0
            PramOp::Write(0, 200),
            PramOp::Write(1, 300), // processor 2 wins cell 1
            PramOp::Nop,
        ];
        m.step(&ops).expect("valid");
        assert_eq!(m.memory(), &[100, 300]);
    }

    #[test]
    fn rounds_accumulate_per_step() {
        let r = router(128, 4);
        let mut m = PramMachine::new(&r, 8);
        let before = m.rounds;
        m.step(&[PramOp::Read(0), PramOp::Write(1, 5)]).expect("valid");
        assert!(m.rounds > before);
        assert_eq!(m.steps, 1);
    }
}
