//! The Fig. 6 benchmark: four workloads over the paper's Fig. 6
//! experiment, measured end to end untraced, and split into per-layer
//! self times by a separate traced run. See `README.md` beside this
//! crate for the workloads, the metrics and the layer map.

pub mod fig6;
pub mod gate;
pub mod layers;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
