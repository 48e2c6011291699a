//! End-to-end and per-layer benchmark of the tpdbt reproduction.
//!
//! Four workloads (see [`plan::Workload`]) drive the program only
//! through its public APIs. An untraced run measures the end-to-end
//! metrics; a traced run records benchmark-side spans around each call
//! into a layer and reports the per-layer metrics. Every run checks the
//! program's outputs against the plain interpreter.

pub mod check;
pub mod drive;
pub mod metrics;
pub mod plan;
pub mod serve;
pub mod spans;
pub mod sweep;
pub mod util;
