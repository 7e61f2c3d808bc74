//! # Oriole — autotuning GPU kernels via static and predictive analysis
//!
//! Umbrella crate re-exporting the full Oriole workspace API. See the
//! individual crates for details:
//!
//! * [`arch`] — GPU architecture database (paper Table I) and instruction
//!   throughput model (Table II).
//! * [`ir`] — kernel AST, PTX-like ISA, CFG, textual disassembly.
//! * [`kernels`] — the paper's benchmark kernels (Table IV) and workload
//!   generators.
//! * [`codegen`] — the compiler substrate: Orio-style transformations,
//!   register estimation, lowering to compiled artifacts.
//! * [`sim`] — the GPU timing simulator standing in for physical
//!   hardware, plus the pluggable `TimingModel` seam (simulator, static
//!   Eq. 6, roofline backends behind one memoized context).
//! * [`core`] — the paper's contribution: static analyzer and predictive
//!   models (occupancy, instruction mixes, Eq. 6 time prediction,
//!   parameter suggestion).
//! * [`tuner`] — the autotuning framework (search algorithms, ranking,
//!   statistics) with the new static-analysis search module.
//! * [`service`] — the tuner service: a daemon exposing the evaluation
//!   engine (and its shared, optionally disk-backed `ArtifactStore`) to
//!   concurrent remote clients over a framed, pipelined RPC protocol;
//!   the client side with its one connection type (`Client`, retrying
//!   and verifying every exchange); the coalescing `RemoteEvaluator`
//!   oracle; and the `ChaosProxy` fault-injection harness.
//! * [`fleet`] — one sweep sharded across N daemons: a deterministic
//!   scope partitioner, a work-stealing chunk scheduler and the
//!   `FleetEvaluator` oracle, byte-identical to a local run.

pub use oriole_arch as arch;
pub use oriole_codegen as codegen;
pub use oriole_core as core;
pub use oriole_fleet as fleet;
pub use oriole_ir as ir;
pub use oriole_kernels as kernels;
pub use oriole_service as service;
pub use oriole_sim as sim;
pub use oriole_tuner as tuner;
