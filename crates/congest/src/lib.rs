#![warn(missing_docs)]

//! The CONGEST round-cost model used by the deterministic
//! expander-routing engine, and the schedule executor that checks it.
//!
//! 1. [`RoundLedger`] — the *charged* cost model the routing engine uses
//!    at scale. Every engine operation charges rounds derived from
//!    measured congestion/dilation (Fact 2.2 and the `Q(f⁰)²` virtual
//!    round simulation cost, see [`cost`]).
//! 2. [`path_sched`] — executes a path set store-and-forward under the
//!    CONGEST rule of one token per directed edge per round, so tests
//!    and experiments can check that the charges dominate real
//!    executions.
//!
//! The [`parallel`] module carries the deterministic task runner the
//! staged preprocessing pipeline uses: independent build tasks execute
//! on a bounded worker pool ([`ThreadBudget`]), results and per-task
//! ledgers merge in canonical task order, and thread count never
//! changes a single output byte.
//!
//! # Example
//!
//! ```
//! use congest_sim::{path_sched, RoundLedger};
//! use expander_graphs::{generators, Path, PathSet};
//!
//! let g = generators::hypercube(4);
//! let mut paths = PathSet::new();
//! for v in 1..g.n() as u32 {
//!     paths.push(Path::new(g.shortest_path(0, v).unwrap()));
//! }
//! let executed = path_sched::schedule(&paths);
//! assert!(executed.phase_rounds <= executed.charged_bound);
//! assert!(executed.greedy_rounds <= executed.charged_bound);
//!
//! let mut ledger = RoundLedger::new();
//! ledger.charge("broadcast", executed.charged_bound);
//! assert_eq!(ledger.total(), executed.charged_bound);
//! ```

pub mod cost;
pub mod ledger;
pub mod parallel;
pub mod path_sched;

pub use ledger::RoundLedger;
pub use parallel::ThreadBudget;
