//! # anytime — The Anytime Automaton, in Rust
//!
//! A from-scratch reproduction of *"The Anytime Automaton"* (Joshua San
//! Miguel and Natalie Enright Jerger, ISCA 2016): approximate applications
//! executed as parallel pipelines of anytime computation stages, so that
//! whole-application output accuracy increases monotonically over time,
//! execution can be stopped at any moment with a valid output in hand, and
//! the precise output is guaranteed if you simply keep running.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! - [`core`] — the computation model: anytime stage bodies, versioned
//!   output buffers, asynchronous/synchronous pipelines, interruptible
//!   execution on a work-stealing task runtime.
//! - [`permute`] — bijective sampling permutations (sequential, N-D tree,
//!   LFSR/LCG pseudo-random) and orders blocked by publication window.
//! - [`approx`] — approximate-computing technique adapters: loop
//!   perforation, fixed-point bit planes, float precision, approximate
//!   storage schedules.
//! - [`img`] — image substrate: containers, PGM/PPM I/O, synthetic inputs,
//!   SNR metrics.
//! - [`sim`] — simulated hardware: drowsy SRAM, low-refresh DRAM, cache +
//!   permutation-aware prefetcher, energy accounting.
//! - [`apps`] — the paper's five evaluation benchmarks (2dconv, histeq,
//!   dwt53, debayer, kmeans) plus the runtime–accuracy profiler.
//!
//! ## Quickstart
//!
//! ```
//! use anytime::apps::Conv2d;
//! use anytime::img::{synth, Kernel};
//! use std::time::Duration;
//!
//! let app = Conv2d::new(synth::value_noise(64, 64, 1), Kernel::box_blur(5));
//! let (pipeline, out) = app.automaton(1024)?;
//! let auto = pipeline.launch()?;
//!
//! // Stop whenever the current output is acceptable…
//! let first = out.wait_newer_timeout(None, Duration::from_secs(30))?;
//! assert!(first.steps() > 0);
//!
//! // …or let it run: the precise output is guaranteed.
//! let precise = out.wait_final_timeout(Duration::from_secs(60))?;
//! assert_eq!(precise.value(), &app.precise());
//! auto.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anytime_approx as approx;
pub use anytime_apps as apps;
pub use anytime_core as core;
pub use anytime_img as img;
pub use anytime_permute as permute;
pub use anytime_sim as sim;
