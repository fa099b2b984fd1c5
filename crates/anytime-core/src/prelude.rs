//! The types you need for day-to-day use, in one import.
//!
//! ```
//! use anytime_core::prelude::*;
//! ```
//!
//! This is the intended import path: building a pipeline, running it,
//! reading snapshots, supervising failures, serving requests, and
//! observing what happened. Less common machinery stays under its module
//! path (`buffer`, `metrics`, `monitor`, `contract`, `sync_pipeline`,
//! …).

pub use crate::buffer::BufferReader;
pub use crate::control::ControlToken;
pub use crate::diffusive::Diffusive;
pub use crate::error::{CoreError, Result};
pub use crate::executor::{Automaton, RunReport};
pub use crate::iterative::Iterative;
pub use crate::map::SampledMap;
pub use crate::observe::MetricStats;
pub use crate::pipeline::{Pipeline, PipelineBuilder};
pub use crate::precise::Precise;
pub use crate::reduce::SampledReduce;
pub use crate::rta::RtaPolicy;
pub use crate::runtime::{Runtime, RuntimeHandle, RuntimeStats};
pub use crate::serve::{ServeOptions, ServePool, ServeResponse, ServeStatus};
pub use crate::stage::{AnytimeBody, StageEnd, StageOptions, StepOutcome};
pub use crate::supervisor::{FailurePolicy, StallAction, Supervision};
pub use crate::trace::{Recorder, TraceLog};
pub use crate::version::Snapshot;
