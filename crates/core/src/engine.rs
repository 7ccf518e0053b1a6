//! The batched multi-query engine: shard many routing/sorting
//! instances across a deterministic worker pool over one preprocessed
//! [`Router`].
//!
//! The paper's headline is that one deterministic preprocessing pass
//! amortizes across many queries (Theorem 1.1); this module makes the
//! amortization physical. A [`QueryEngine`] accepts a batch of jobs
//! ([`Job::Route`] / [`Job::Sort`]), splits it into fusion groups of
//! consecutive jobs, and executes the groups on the same
//! [`ThreadBudget`]/[`run_tasks`] worker pool the staged preprocessing
//! build uses, with three cross-query savings:
//!
//! * **Pooled scratch** — per-query mutable state (`exec::Scratch`) is
//!   checked out of the [`Router`]'s scratch pool per group, so a batch
//!   of `B` queries allocates `O(threads)` scratches instead of `O(B)`,
//!   warm across engines, solo queries and the service.
//! * **Dummy-dispersal amortization** — each scratch carries a
//!   dummy-dispersal cache: the Task 3 dummy flock (2L tokens per
//!   vertex, §6.3) is a pure function of `(node, L)`, so its
//!   dispersal, final grouping, and round charges are computed once
//!   per key and replayed for every subsequent query — and a fused
//!   group consumes one shared entry for all its jobs at once.
//! * **Cross-job dispersal fusion** — the jobs of a group walk the
//!   Task 2 tree in lockstep and each node's Task 3 dispersal runs as
//!   one shared round plan over all of their flocks: per-job grouping
//!   keys keep buckets, landing loads, and Lemma 6.6 traces per job,
//!   charges demultiplex into per-job ledgers, and each job's
//!   grouping/load accounting is maintained incrementally across
//!   rounds instead of rescanned — which is what lets dense
//!   full-permutation batches beat the ~2.9× dummy:real ceiling of
//!   caching alone. [`with_fusion_width`](QueryEngine::with_fusion_width)
//!   sizes the groups; width 1 runs each job as a singleton group of
//!   the same pipeline.
//!
//! All three are accelerators only: every job is a pure function of
//! its instance and the router, jobs charge private [`RoundLedger`]s
//! that the batch merges in canonical job order, and the per-job
//! outcomes are byte-identical to individual
//! [`Router::route`]/[`Router::sort`] calls at every thread count,
//! batch order, and fusion width (`tests/batch_determinism.rs`,
//! `tests/property.rs`).
//!
//! # Example
//!
//! ```
//! use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
//! use expander_graphs::generators;
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
//! let engine = QueryEngine::new(&router);
//! let batch: Vec<RoutingInstance> =
//!     (0..8).map(|s| RoutingInstance::permutation(256, s)).collect();
//! let (outcomes, stats) = engine.route_batch(&batch).expect("valid instances");
//! assert!(outcomes.iter().all(|o| o.all_delivered()));
//! assert_eq!(stats.jobs, 8);
//! ```

use crate::exec::DEFAULT_SCRATCH_CAP_BYTES;
use crate::router::Router;
use crate::token::{
    InstanceError, QueryStats, RoutingInstance, RoutingOutcome, SortInstance, SortOutcome,
};
use congest_sim::parallel::{build_threads, run_tasks, ThreadBudget};
use congest_sim::RoundLedger;

/// One owned job of a batch.
#[derive(Debug, Clone)]
pub enum Job {
    /// A Task 1 routing instance (Definition 4.1).
    Route(RoutingInstance),
    /// An expander-sorting instance (Theorem 5.6).
    Sort(SortInstance),
}

impl Job {
    /// Borrows the job as a [`JobRef`].
    pub fn as_ref(&self) -> JobRef<'_> {
        match self {
            Job::Route(inst) => JobRef::Route(inst),
            Job::Sort(inst) => JobRef::Sort(inst),
        }
    }
}

impl From<RoutingInstance> for Job {
    fn from(inst: RoutingInstance) -> Job {
        Job::Route(inst)
    }
}

impl From<SortInstance> for Job {
    fn from(inst: SortInstance) -> Job {
        Job::Sort(inst)
    }
}

/// One borrowed job of a batch (clone-free submission).
#[derive(Debug, Clone, Copy)]
pub enum JobRef<'a> {
    /// A Task 1 routing instance (Definition 4.1).
    Route(&'a RoutingInstance),
    /// An expander-sorting instance (Theorem 5.6).
    Sort(&'a SortInstance),
}

/// The outcome of one batch job, aligned with the submitted jobs.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Outcome of a [`Job::Route`].
    Route(RoutingOutcome),
    /// Outcome of a [`Job::Sort`].
    Sort(SortOutcome),
}

impl JobOutcome {
    /// The job's charged-round ledger.
    pub fn ledger(&self) -> &RoundLedger {
        match self {
            JobOutcome::Route(out) => &out.ledger,
            JobOutcome::Sort(out) => &out.ledger,
        }
    }

    /// The job's execution statistics.
    pub fn stats(&self) -> &QueryStats {
        match self {
            JobOutcome::Route(out) => &out.stats,
            JobOutcome::Sort(out) => &out.stats,
        }
    }

    /// Total charged rounds of the job.
    pub fn rounds(&self) -> u64 {
        self.ledger().total()
    }

    /// The routing outcome, if this was a route job.
    pub fn into_route(self) -> Option<RoutingOutcome> {
        match self {
            JobOutcome::Route(out) => Some(out),
            JobOutcome::Sort(_) => None,
        }
    }

    /// The sorting outcome, if this was a sort job.
    pub fn into_sort(self) -> Option<SortOutcome> {
        match self {
            JobOutcome::Sort(out) => Some(out),
            JobOutcome::Route(_) => None,
        }
    }
}

/// Batch-level aggregate over the per-job outcomes, computed in
/// canonical job order.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Every job's ledger merged in canonical job order; its
    /// [`total`](RoundLedger::total) is the batch's charged rounds.
    pub merged: RoundLedger,
    /// The worst single job's charged rounds.
    pub max_rounds: u64,
    /// Element-wise aggregate of the per-job [`QueryStats`] (sums for
    /// counters and phase traffic, element-wise maxima for the load
    /// trace and the congestion/dilation observations).
    pub query: QueryStats,
}

impl BatchStats {
    fn collect(outcomes: &[JobOutcome]) -> BatchStats {
        let mut stats = BatchStats { jobs: outcomes.len(), ..BatchStats::default() };
        for out in outcomes {
            stats.merged.merge(out.ledger());
            stats.max_rounds = stats.max_rounds.max(out.rounds());
            stats.query.absorb(out.stats());
        }
        stats
    }
}

/// Outcome of a whole batch: per-job outcomes in submission order plus
/// the batch aggregate.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job outcomes, aligned with the submitted jobs.
    pub outcomes: Vec<JobOutcome>,
    /// The batch-level aggregate.
    pub stats: BatchStats,
}

/// The batched multi-query engine over one preprocessed [`Router`].
///
/// See the [module docs](self) for the execution model. An engine
/// holds only the grouping policy and the worker count, so it is cheap
/// to construct: the scratch pool and its dummy and escort caches live
/// in the router and stay warm across engines, batches and solo calls.
///
/// # Example
///
/// Build a router, submit a mixed route/sort batch, read the
/// [`BatchStats`] aggregate:
///
/// ```
/// use expander_core::{Job, QueryEngine, Router, RouterConfig, RoutingInstance, SortInstance};
/// use expander_graphs::generators;
///
/// let g = generators::random_regular(256, 4, 7).expect("generator");
/// let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
/// let engine = QueryEngine::new(&router);
/// let jobs = vec![
///     Job::Route(RoutingInstance::permutation(256, 1)),
///     Job::Sort(SortInstance::random(256, 2, 2)),
///     Job::Route(RoutingInstance::partial_permutation(256, 64, 3)),
/// ];
/// let batch = engine.run(&jobs).expect("valid jobs");
/// assert_eq!(batch.stats.jobs, 3);
/// assert!(batch.stats.max_rounds <= batch.stats.merged.total());
/// assert!(batch.stats.query.max_congestion > 0 && batch.stats.query.max_dilation > 0);
/// assert_eq!(batch.outcomes.len(), jobs.len());
/// ```
#[derive(Debug)]
pub struct QueryEngine<'r> {
    router: &'r Router,
    threads: Option<usize>,
    fusion: Option<usize>,
    scratch_cap: usize,
}

/// Largest fusion-group size the automatic policy schedules: per-job
/// fused state is `O(n)` memory, so auto-width groups stay bounded
/// regardless of batch size. Explicit
/// [`with_fusion_width`](QueryEngine::with_fusion_width) settings are
/// not capped.
pub(crate) const MAX_AUTO_FUSION_WIDTH: usize = 32;

impl<'r> QueryEngine<'r> {
    /// An engine over `router` with the default worker count
    /// (`EXPANDER_BUILD_THREADS`, then `available_parallelism`) and the
    /// automatic fusion-width policy.
    pub fn new(router: &'r Router) -> Self {
        QueryEngine { router, threads: None, fusion: None, scratch_cap: DEFAULT_SCRATCH_CAP_BYTES }
    }

    /// Caps the heap bytes a pooled scratch may retain between batches
    /// (dense buffers plus the dummy-dispersal and fallback-tree
    /// caches). A scratch this engine returns to the router's pool
    /// above the cap is trimmed back to the router's dimensions — its
    /// caches rebuild lazily on the next checkout — so a long-lived
    /// router's footprint tracks its *current* workload instead of
    /// pinning the peak one forever. Defaults to 64 MiB, as for solo
    /// [`Router::route`] calls; they share the pool, so a scratch keeps
    /// its last returner's cap. Outputs are identical at every cap.
    #[must_use]
    pub fn with_scratch_cap(mut self, bytes: usize) -> Self {
        self.scratch_cap = bytes;
        self
    }

    /// Overrides the worker-thread count (`None` restores the
    /// environment-driven default; the count is clamped to ≥ 1).
    /// Outputs are byte-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the dispersal fusion width: how many co-scheduled jobs
    /// each worker executes as one fused group (one shared Task 3
    /// round scan and one shared dummy-dispersal contribution per
    /// `(node, L)` across the group).
    ///
    /// `Some(1)` runs every job as a singleton group. `None` (the
    /// default) restores the automatic policy: split the batch evenly
    /// across the workers, capped at 32 jobs per group. Outputs are
    /// byte-identical for every width.
    #[must_use]
    pub fn with_fusion_width(mut self, width: Option<usize>) -> Self {
        self.fusion = width;
        self
    }

    /// The fusion width that a batch of `jobs` would run at, given the
    /// resolved worker count.
    fn fusion_width(&self, jobs: usize, workers: usize) -> usize {
        match self.fusion {
            Some(w) => w.max(1),
            None => jobs.div_ceil(workers.max(1)).clamp(1, MAX_AUTO_FUSION_WIDTH),
        }
    }

    /// The underlying preprocessed router.
    pub fn router(&self) -> &'r Router {
        self.router
    }

    /// Executes a batch of owned jobs. See [`run_refs`](Self::run_refs).
    ///
    /// # Errors
    ///
    /// Returns the first invalid job's error (in job order) before any
    /// job executes.
    pub fn run(&self, jobs: &[Job]) -> Result<BatchOutcome, InstanceError> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::as_ref).collect();
        self.run_refs(&refs)
    }

    /// Executes a batch of borrowed jobs sharded across the worker
    /// pool: every job is validated up front, then the batch splits
    /// into fusion groups of consecutive jobs (submission order; see
    /// [`with_fusion_width`](Self::with_fusion_width)) that workers
    /// execute as fused units against pooled scratches, each job
    /// charging a private ledger; outcomes come back in submission order
    /// and the batch aggregate merges the per-job ledgers in that same
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns the first invalid job's error (in job order) before any
    /// job executes.
    pub fn run_refs(&self, jobs: &[JobRef<'_>]) -> Result<BatchOutcome, InstanceError> {
        for &job in jobs {
            self.router.validate(job)?;
        }
        let workers = build_threads(self.threads);
        let budget = ThreadBudget::new(workers);
        let width = self.fusion_width(jobs.len(), workers);
        let grouped = run_tasks(&budget, jobs.len().div_ceil(width), |g| {
            let lo = g * width;
            self.run_group_validated(&jobs[lo..(lo + width).min(jobs.len())])
        });
        let outcomes: Vec<JobOutcome> = grouped.into_iter().flatten().collect();
        let stats = BatchStats::collect(&outcomes);
        Ok(BatchOutcome { outcomes, stats })
    }

    /// Executes one *pre-validated* fusion group on a scratch from the
    /// router's pool, trimmed at this engine's cap on return — behind
    /// batch groups and each closed group of the streaming
    /// [`RoutingService`](crate::service::RoutingService). Each job
    /// charges a private ledger; outcomes come back in group order and
    /// are byte-identical to the same jobs anywhere else (solo calls,
    /// any batch, any width).
    pub(crate) fn run_group_validated(&self, jobs: &[JobRef<'_>]) -> Vec<JobOutcome> {
        self.router.pool.run(self.router, jobs, self.scratch_cap)
    }

    /// Applies this engine's scratch-cap trim (see
    /// [`with_scratch_cap`](Self::with_scratch_cap)) to every scratch
    /// in the router's pool *now*, instead of waiting for the next
    /// checkout/restore cycle. Batch runs trim on every restore, so
    /// closed batches never need this; a long-lived service calls it
    /// during quiescent periods so an idle router's retained footprint
    /// falls back under the cap without waiting for traffic.
    pub fn trim_scratches(&self) {
        self.router.pool.trim(self.router, self.scratch_cap);
    }

    /// Routes a batch of Task 1 instances, returning the per-instance
    /// outcomes (submission order) and the batch aggregate.
    ///
    /// # Errors
    ///
    /// Returns the first invalid instance's error before any executes.
    pub fn route_batch(
        &self,
        insts: &[RoutingInstance],
    ) -> Result<(Vec<RoutingOutcome>, BatchStats), InstanceError> {
        let refs: Vec<JobRef<'_>> = insts.iter().map(JobRef::Route).collect();
        let batch = self.run_refs(&refs)?;
        let outs = batch
            .outcomes
            .into_iter()
            .map(|o| o.into_route().expect("route job yields route outcome"))
            .collect();
        Ok((outs, batch.stats))
    }

    /// Sorts a batch of instances, returning the per-instance outcomes
    /// (submission order) and the batch aggregate.
    ///
    /// # Errors
    ///
    /// Returns the first invalid instance's error before any executes.
    pub fn sort_batch(
        &self,
        insts: &[SortInstance],
    ) -> Result<(Vec<SortOutcome>, BatchStats), InstanceError> {
        let refs: Vec<JobRef<'_>> = insts.iter().map(JobRef::Sort).collect();
        let batch = self.run_refs(&refs)?;
        let outs = batch
            .outcomes
            .into_iter()
            .map(|o| o.into_sort().expect("sort job yields sort outcome"))
            .collect();
        Ok((outs, batch.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn batch_outcomes_match_individual_queries() {
        let r = router(256, 1);
        let engine = QueryEngine::new(&r).with_threads(Some(1));
        let insts: Vec<RoutingInstance> =
            (0..6).map(|s| RoutingInstance::permutation(256, s)).collect();
        let (outs, stats) = engine.route_batch(&insts).expect("valid");
        assert_eq!(stats.jobs, 6);
        for (inst, out) in insts.iter().zip(&outs) {
            let solo = r.route(inst).expect("valid");
            assert!(out.all_delivered());
            assert_eq!(out.positions, solo.positions);
            assert_eq!(out.ledger, solo.ledger);
            assert_eq!(format!("{:?}", out.stats), format!("{:?}", solo.stats));
        }
        let mut merged = RoundLedger::new();
        for out in &outs {
            merged.merge(&out.ledger);
        }
        assert_eq!(stats.merged, merged);
    }

    #[test]
    fn scratch_cap_trims_pooled_footprint_without_changing_outputs() {
        let r = router(256, 9);
        let insts: Vec<RoutingInstance> =
            (0..8).map(|s| RoutingInstance::permutation(256, 100 + s)).collect();

        // Default cap: the warmed scratch keeps its caches between
        // batches (footprint well below 64 MiB, so no trim fires).
        let engine = QueryEngine::new(&r).with_threads(Some(1));
        let (base, _) = engine.route_batch(&insts).expect("valid");
        engine.route_batch(&insts).expect("valid");
        let kept = r.pool.footprints();
        assert_eq!(kept.len(), 1, "single worker returns one pooled scratch");
        let warm_bytes = kept[0];
        assert!(warm_bytes > 0);

        // Cap of zero, on a clone (its own, empty pool): every restore
        // exceeds it, so the pooled scratch comes back trimmed to the
        // router's dimensions — strictly smaller than the warm
        // footprint — and outputs stay byte-identical (the caches are
        // accelerators only).
        let r2 = r.clone();
        let capped = QueryEngine::new(&r2).with_threads(Some(1)).with_scratch_cap(0);
        let (outs, _) = capped.route_batch(&insts).expect("valid");
        capped.route_batch(&insts).expect("valid");
        let trimmed_bytes = r2.pool.footprints()[0];
        assert!(
            trimmed_bytes < warm_bytes,
            "trim should shed cache bytes: {trimmed_bytes} vs warm {warm_bytes}"
        );
        for (a, b) in base.iter().zip(&outs) {
            assert_eq!(a.positions, b.positions);
            assert_eq!(a.ledger, b.ledger);
        }
    }

    #[test]
    fn mixed_jobs_preserve_submission_order() {
        let r = router(256, 2);
        let engine = QueryEngine::new(&r);
        let route = RoutingInstance::permutation(256, 3);
        let sort = SortInstance::random(256, 1, 4);
        let jobs = vec![Job::Sort(sort.clone()), Job::Route(route.clone()), Job::Sort(sort)];
        let batch = engine.run(&jobs).expect("valid");
        assert_eq!(batch.outcomes.len(), 3);
        assert!(matches!(batch.outcomes[0], JobOutcome::Sort(_)));
        assert!(matches!(batch.outcomes[1], JobOutcome::Route(_)));
        assert!(matches!(batch.outcomes[2], JobOutcome::Sort(_)));
        assert!(batch.stats.max_rounds <= batch.stats.merged.total());
        assert!(batch.stats.query.max_congestion > 0);
        assert!(batch.stats.query.max_dilation > 0);
    }

    /// Every observable byte of one job outcome (positions included).
    fn outcome_bytes(out: &JobOutcome) -> String {
        match out {
            JobOutcome::Route(o) => format!("route|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
            JobOutcome::Sort(o) => format!("sort|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
        }
    }

    #[test]
    fn fusion_widths_are_unobservable() {
        // Width 1 (singleton groups), uneven groups (width 2
        // over 5 jobs leaves a remainder group of 1), one whole-batch
        // group, and the auto policy must all produce byte-identical
        // outcomes.
        let r = router(256, 9);
        let route = RoutingInstance::permutation(256, 1);
        let sparse = RoutingInstance::partial_permutation(256, 64, 2);
        let sort = SortInstance::random(256, 2, 3);
        let jobs = vec![
            Job::Route(route.clone()),
            Job::Sort(sort),
            Job::Route(sparse),
            Job::Route(RoutingInstance::default()),
            Job::Route(route),
        ];
        let base = QueryEngine::new(&r)
            .with_fusion_width(Some(1))
            .with_threads(Some(1))
            .run(&jobs)
            .expect("valid");
        for width in [Some(2), Some(jobs.len()), Some(100), None] {
            let engine = QueryEngine::new(&r).with_fusion_width(width).with_threads(Some(1));
            let out = engine.run(&jobs).expect("valid");
            for (i, (a, b)) in base.outcomes.iter().zip(&out.outcomes).enumerate() {
                assert_eq!(
                    outcome_bytes(a),
                    outcome_bytes(b),
                    "job {i} differs at fusion width {width:?}"
                );
            }
            assert_eq!(base.stats.merged, out.stats.merged);
        }
    }

    #[test]
    fn empty_instances_are_fine_in_fused_groups() {
        let r = router(128, 10);
        let engine = QueryEngine::new(&r).with_fusion_width(Some(4));
        let jobs = vec![
            Job::Route(RoutingInstance::default()),
            Job::Sort(SortInstance::default()),
            Job::Route(RoutingInstance::permutation(128, 4)),
        ];
        let batch = engine.run(&jobs).expect("valid");
        assert_eq!(batch.outcomes.len(), 3);
        assert_eq!(batch.outcomes[0].rounds(), 0, "empty route charges nothing");
        assert_eq!(batch.outcomes[1].rounds(), 0, "empty sort charges nothing");
        assert!(batch.outcomes[2].rounds() > 0);
    }

    #[test]
    fn invalid_job_fails_before_execution() {
        let r = router(128, 3);
        let engine = QueryEngine::new(&r);
        let good = RoutingInstance::permutation(128, 1);
        let bad = RoutingInstance::from_triples(&[(0, 9999, 0)]);
        assert!(engine.route_batch(&[good, bad]).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = router(128, 4);
        let engine = QueryEngine::new(&r);
        let batch = engine.run(&[]).expect("valid");
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.stats.jobs, 0);
        assert_eq!(batch.stats.merged.total(), 0);
    }
}
