//! # The Anytime Automaton
//!
//! A from-scratch implementation of the computation model from
//! *"The Anytime Automaton"* (Joshua San Miguel and Natalie Enright Jerger,
//! ISCA 2016): an approximate application is executed as a **parallel
//! pipeline of anytime computation stages**, so that
//!
//! 1. approximate versions of the *whole application output* are available
//!    early and improve monotonically over time (early availability);
//! 2. execution can be stopped or paused at any moment while still leaving
//!    a valid output behind (interruptibility);
//! 3. if never stopped, the final **precise** output is guaranteed to be
//!    reached.
//!
//! ## Model vocabulary
//!
//! - A stage's [`AnytimeBody`] decomposes its computation into intermediate
//!   computations `f_1, …, f_n` with increasing accuracy:
//!   [`Iterative`] bodies re-execute at growing accuracy levels (§III-B1);
//!   [`Diffusive`] bodies build each step on the previous output (§III-B2);
//!   [`SampledReduce`] / [`SampledMap`] are the paper's input/output
//!   sampling patterns driven by bijective permutations (from
//!   [`anytime_permute`]); [`Precise`] wraps non-anytime computations.
//! - Each stage owns a versioned output [`buffer`]; publications are atomic
//!   (Property 3) and single-writer (Property 2).
//! - [`PipelineBuilder`] composes stages into a DAG executed as an
//!   *asynchronous pipeline* (§III-C1); the
//!   [`sync_pipeline`] module adds *synchronous*
//!   composition for distributive children (§III-C2).
//! - A launched [`Automaton`] is controlled through its [`ControlToken`]:
//!   stop it whenever the current output is acceptable — otherwise just let
//!   it run longer.
//! - The [`serve`] module turns single runs into a deadline-budgeted
//!   service: a [`ServePool`] of replica pipelines with admission control,
//!   retries, and batching. With an
//!   [`RtaPolicy`] installed, admission is backed by the [`rta`]
//!   response-time analysis: provably-infeasible requests are rejected
//!   with a certified bound, the retry backoff is capped by the
//!   worst-case service bound, and under backlog a request whose worst case misses its deadline is shed:
//!   it runs only as long as its quality floor's worst-case service bound.
//!   Stopping early is the approximation, so overload costs quality, not
//!   answers.
//!
//! ## Example
//!
//! ```
//! use anytime_core::{PipelineBuilder, SampledMap, Precise, StageOptions};
//! use anytime_permute::{DynPermutation, Tree1d};
//! use std::time::Duration;
//!
//! // Stage f: square 256 values, sampled in tree order (output sampling).
//! let input: Vec<f64> = (0..256).map(f64::from).collect();
//! let mut pb = PipelineBuilder::new();
//! let f = pb.source(
//!     "f",
//!     input,
//!     SampledMap::new(
//!         DynPermutation::new(Tree1d::new(256).unwrap()),
//!         |i: &Vec<f64>| vec![0.0; i.len()],
//!         |i, out: &mut Vec<f64>, idx| out[idx] = i[idx] * i[idx],
//!     ),
//!     StageOptions::with_publish_every(16),
//! );
//! // Stage g: sum whatever f has produced so far.
//! let g = pb.stage(
//!     "g",
//!     &f,
//!     Precise::new(|fs: &Vec<f64>| fs.iter().sum::<f64>()),
//!     StageOptions::default(),
//! );
//! let auto = pb.build().launch()?;
//! // Let it run to completion: the precise output is guaranteed.
//! let snap = g.wait_final_timeout(Duration::from_secs(30))?;
//! assert_eq!(*snap.value(), (0..256).map(|x| (x * x) as f64).sum::<f64>());
//! auto.join()?;
//! # Ok::<(), anytime_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
mod channel;
mod check;
pub mod contract;
mod control;
mod diffusive;
mod error;
mod executor;
#[cfg(feature = "fault-inject")]
mod faultinject;
mod iterative;
mod map;
pub mod metrics;
pub mod monitor;
mod notify;
pub mod observe;
mod parallel_map;
mod pipeline;
mod precise;
pub mod prelude;
mod reduce;
pub mod rta;
pub mod runtime;
pub mod serve;
mod stage;
mod supervisor;
pub mod sync_pipeline;
pub mod trace;
mod version;

// Flat re-exports of the most common types, kept for compatibility. New
// code should prefer `use anytime_core::prelude::*;` (see README); less
// common types live under their module paths (e.g.
// [`buffer::BufferOptions`], [`metrics::FaultStats`],
// [`monitor::AccuracyMonitor`], [`supervisor::Watchdog`],
// [`sync_pipeline::UpdateReceiver`]).
pub use buffer::{BufferReader, DoubleBuffer};
pub use control::ControlToken;
pub use diffusive::Diffusive;
pub use error::{CoreError, Result};
pub use executor::{Automaton, RunReport, StageReport};
#[cfg(feature = "fault-inject")]
pub use faultinject::{FaultPlan, StageFaults, WorkerKillPlan};
pub use iterative::Iterative;
pub use map::SampledMap;
pub use parallel_map::ParallelSampledMap;
pub use pipeline::{Pipeline, PipelineBuilder};
pub use precise::Precise;
pub use reduce::SampledReduce;
pub use rta::RtaPolicy;
pub use runtime::{Runtime, RuntimeHandle, RuntimeStats};
pub use serve::{BatchPolicy, RetryPolicy, ServeOptions, ServePool, ServeResponse, ServeStatus};
pub use stage::{AnytimeBody, RestartPolicy, StageEnd, StageOptions, StepOutcome};
pub use supervisor::{FailurePolicy, StallAction, Supervision};
pub use trace::Recorder;
pub use version::{Snapshot, Version};
