//! The extmem long-run benchmark: three open-loop workloads driven through
//! the public crates, end-to-end metrics from untraced runs, and per-layer
//! host time from runs whose nodes and programs sit behind timing shims.
//! `BENCHMARK.json` at the repository root describes the command and the
//! metrics; `src/main.rs` is the command.

pub mod fabric;
pub mod lookup;
pub mod pktbuf;
pub mod report;
pub mod shim;
pub mod stats;
pub mod topo;
pub mod workload;

pub use report::{run_once, Run};
pub use workload::Workload;
