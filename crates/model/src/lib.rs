//! The paper's analytical framework (§2.1 and Appendix A).
//!
//! * [`join`] — the closed-form probability `p(f_i, t)` that a mobile
//!   node obtains a DHCP lease from an AP on channel *i* within *t*
//!   seconds of entering range, given the fraction `f_i` of the schedule
//!   spent on that channel (Eqs. 5–7, plotted in Figs. 2–3),
//! * [`montecarlo`] — a direct simulation of the same simplified join
//!   process, used to validate the closed form (the "Simulation" series
//!   of Fig. 2),
//! * [`optimizer`] — the throughput-maximisation framework (Eqs. 8–10)
//!   whose numeric solution yields Fig. 4 and the *dividing speed* below
//!   which multi-channel scheduling pays off,
//! * [`selection`] — Appendix A's multi-AP selection problem: the
//!   knapsack construction showing NP-hardness, an exact dynamic-program
//!   solver for small instances, and the greedy utility heuristic Spider
//!   uses instead.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod join;
pub mod montecarlo;
pub mod optimizer;
pub mod selection;

pub use join::JoinModel;
pub use montecarlo::simulate_join_probability;
pub use optimizer::{ChannelScenario, OptimalSchedule, ThroughputOptimizer};
pub use selection::{greedy_select, optimal_select, ApOption, Selection};
