//! End-to-end and per-layer benchmark of the parallel Adaptive Search
//! workspace: time to solution of one walk and of a 2-walk race, the
//! speedup between them, and solve-service latency and throughput.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; nothing inside the measured program is instrumented.  See
//! `README.md` next to this crate for the workloads and metrics.

pub mod layers;
pub mod load;
pub mod plan;
pub mod race;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
