//! Chaos suite: seeded fault injection across every failure policy.
//!
//! Runs a 3-stage pipeline (`f` → `g` → `h`) through deterministic panic,
//! stall, and slowdown plans under each [`FailurePolicy`], asserting that
//! the automaton's structural guarantees survive every fault:
//!
//! - **Property 2 (monotone versions)**: every buffer's history is
//!   strictly increasing in version, and nothing follows a terminal
//!   version.
//! - **Property 3 (atomic publication)**: every published value is a
//!   complete, consistent output — `f`'s vector is always the exact prefix
//!   `[1..=k]`, never a torn intermediate.
//!
//! Iteration count is controlled by the `CHAOS_ITERS` environment variable
//! (default 8 seeds); CI elevates it. Requires `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use anytime_core::buffer::BufferReader;
use anytime_core::{
    CoreError, Diffusive, FaultPlan, ParallelSampledMap, Pipeline, PipelineBuilder, Precise,
    SampledReduce, Snapshot, StageOptions, StallAction, StepOutcome, Supervision,
};
use anytime_permute::{DynPermutation, Lfsr};
use std::time::Duration;

/// Steps in the source stage — also the seeded plans' `max_step`.
const N: u64 = 24;

fn chaos_iters() -> u64 {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// The precise whole-application output: `h = 2 × Σ 1..=N`.
const fn precise_output() -> u64 {
    2 * (N * (N + 1) / 2)
}

/// Triangular numbers are the only values `g` (a running prefix sum) and
/// `h` (its doubling) can legally publish.
fn is_triangular(x: u64) -> bool {
    (0..=N).any(|k| k * (k + 1) / 2 == x)
}

/// Builds the standard chaos pipeline with one supervision for all stages
/// and `plan`'s faults armed at build time: `f` appends `1..=N` one
/// element per step, `g` prefix-sums `f`'s vector diffusively, `h`
/// doubles `g`'s sum.
#[allow(clippy::type_complexity)]
fn chaos_pipeline(
    sup: Supervision,
    plan: &FaultPlan,
) -> (
    Pipeline,
    BufferReader<Vec<u64>>,
    BufferReader<u64>,
    BufferReader<u64>,
) {
    let opts = StageOptions::default().keep_history().supervise(sup);
    let mut pb = PipelineBuilder::new();
    let f = pb.source(
        "f",
        (),
        Diffusive::new(
            |_: &()| Vec::new(),
            |_: &(), out: &mut Vec<u64>, step| {
                out.push(step + 1);
                if step + 1 == N {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            },
        ),
        opts,
    );
    let g = pb.stage(
        "g",
        &f,
        Diffusive::new(
            |_: &Vec<u64>| 0u64,
            |input: &Vec<u64>, out: &mut u64, step| {
                *out += input[step as usize];
                if step as usize + 1 == input.len() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            },
        ),
        opts,
    );
    let h = pb.stage("h", &g, Precise::new(|s: &u64| s * 2), opts);
    (pb.with_faults(plan.clone()).build(), f, g, h)
}

/// Property 2: versions strictly increase and nothing follows a terminal
/// version. Returns the history for further checks.
fn assert_monotone<T>(hist: &[Snapshot<T>], stage: &str) {
    assert!(!hist.is_empty(), "stage `{stage}` published nothing");
    for w in hist.windows(2) {
        assert!(
            w[1].version() > w[0].version(),
            "stage `{stage}`: version went backwards"
        );
        assert!(
            !w[0].is_terminal(),
            "stage `{stage}`: a version follows the terminal one"
        );
    }
}

/// Property 3 for `f`: every published vector is the complete prefix
/// `[1..=k]` — an injected panic or stall never exposes a torn value.
fn assert_f_atomic(hist: &[Snapshot<Vec<u64>>]) {
    for s in hist {
        let v = s.value();
        let expect: Vec<u64> = (1..=v.len() as u64).collect();
        assert_eq!(*v, expect, "torn publication in `f`");
    }
}

fn assert_sums_valid(hist: &[Snapshot<u64>], scale: u64, stage: &str) {
    for s in hist {
        assert!(
            s.value() % scale == 0 && is_triangular(s.value() / scale),
            "stage `{stage}` published impossible value {}",
            s.value()
        );
    }
}

#[test]
fn same_seed_yields_byte_identical_schedules() {
    for seed in [0u64, 1, 7, 42, 0xC0FFEE, u64::MAX] {
        let a = FaultPlan::seeded(seed, &["f", "g", "h"], N);
        let b = FaultPlan::seeded(seed, &["f", "g", "h"], N);
        assert_eq!(a.schedule(), b.schedule(), "seed {seed}");
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn seeded_faults_under_degrade_always_yield_valid_output() {
    for seed in 0..chaos_iters() {
        let plan = FaultPlan::seeded(seed, &["f", "g", "h"], N);
        let (pipeline, f, g, h) = chaos_pipeline(Supervision::degrade(), &plan);
        let auto = pipeline.launch().unwrap();
        // Degrade never errors here: every stage publishes at least one
        // version before the earliest injectable panic (step 1).
        let report = auto
            .join()
            .unwrap_or_else(|e| panic!("seed {seed} (plan:\n{plan}) errored under Degrade: {e}"));
        let ctx = format!("seed {seed} (plan:\n{plan})");
        // The whole-application output always resolves to a terminal
        // version — precise or degraded.
        let out = h
            .wait_final_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{ctx}: no terminal output: {e}"));
        assert!(out.is_terminal(), "{ctx}");
        let f_hist = f.history().unwrap();
        assert_monotone(&f_hist, "f");
        assert_f_atomic(&f_hist);
        let g_hist = g.history().unwrap();
        assert_monotone(&g_hist, "g");
        assert_sums_valid(&g_hist, 1, "g");
        let h_hist = h.history().unwrap();
        assert_monotone(&h_hist, "h");
        assert_sums_valid(&h_hist, 2, "h");
        if report.all_final() {
            assert_eq!(*out.value(), precise_output(), "{ctx}");
        } else {
            assert!(report.any_degraded(), "{ctx}: not final yet not degraded");
            assert!(out.is_degraded(), "{ctx}");
        }
    }
}

#[test]
fn seeded_faults_under_restart_reach_the_precise_output() {
    for seed in 0..chaos_iters() {
        let plan = FaultPlan::seeded(seed, &["f", "g", "h"], N);
        let (pipeline, f, _g, h) = chaos_pipeline(Supervision::restart(4, Duration::ZERO), &plan);
        let auto = pipeline.launch().unwrap();
        let report = auto
            .join()
            .unwrap_or_else(|e| panic!("seed {seed} (plan:\n{plan}) errored under Restart: {e}"));
        // Injected faults are one-shot (transient), so restarts always
        // recover and the precise output is reached.
        assert!(report.all_final(), "seed {seed} (plan:\n{plan})");
        let out = h.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert!(out.is_final());
        assert_eq!(*out.value(), precise_output(), "seed {seed}");
        let f_hist = f.history().unwrap();
        assert_monotone(&f_hist, "f");
        assert_f_atomic(&f_hist);
    }
}

#[test]
fn panic_at_step_n_under_degrade_returns_flagged_approximation() {
    // The acceptance scenario: `f` panics at step 5 under Degrade; the
    // pipeline still returns a valid approximate final output, flagged
    // degraded, with a nonempty monotone version history.
    let plan = FaultPlan::new().panic_at("f", 5);
    let (pipeline, f, _g, h) = chaos_pipeline(Supervision::degrade(), &plan);
    let auto = pipeline.launch().unwrap();
    let report = auto.join().unwrap();
    assert!(report.any_degraded());
    assert_eq!(report.faults.degradations, 1);
    // f died having published [1..=5]; the degraded flag propagated to h
    // with the exact approximate value 2 × (1+…+5).
    let out = h.wait_final_timeout(Duration::from_secs(30)).unwrap();
    assert!(out.is_degraded());
    assert!(!out.is_final());
    assert_eq!(*out.value(), 30);
    let f_hist = f.history().unwrap();
    assert_monotone(&f_hist, "f");
    assert_f_atomic(&f_hist);
    assert!(f_hist.last().unwrap().is_degraded());
}

#[test]
fn same_plan_under_restart_reaches_the_precise_output() {
    // The same fault, supervised with Restart instead: the one-shot panic
    // is recovered and the precise output is reached.
    let plan = FaultPlan::new().panic_at("f", 5);
    let (pipeline, _f, _g, h) = chaos_pipeline(Supervision::restart(2, Duration::ZERO), &plan);
    let auto = pipeline.launch().unwrap();
    let report = auto.join().unwrap();
    assert!(report.all_final());
    assert_eq!(report.faults.restarts, 1);
    let out = h.wait_final_timeout(Duration::from_secs(30)).unwrap();
    assert!(out.is_final());
    assert_eq!(*out.value(), precise_output());
}

#[test]
fn fail_stop_surfaces_the_injected_panic() {
    let plan = FaultPlan::new().panic_at("g", 2);
    let (pipeline, _f, _g, _h) = chaos_pipeline(Supervision::fail_stop(), &plan);
    let auto = pipeline.launch().unwrap();
    match auto.join().unwrap_err() {
        CoreError::StagePanicked { stage, message, .. } => {
            assert_eq!(stage, "g");
            assert!(message.unwrap().contains("fault-inject"));
        }
        CoreError::SourceClosed { .. } => {
            // Acceptable: h's view of the death may be collected first.
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn stalls_and_slowdowns_only_delay_a_fail_stop_pipeline() {
    let plan = FaultPlan::new()
        .stall_at("f", 3, Duration::from_millis(25))
        .slow_down("g", Duration::from_micros(200));
    let (pipeline, f, _g, h) = chaos_pipeline(Supervision::fail_stop(), &plan);
    let auto = pipeline.launch().unwrap();
    let report = auto.join().unwrap();
    assert!(report.all_final());
    assert!(report.faults.is_clean());
    assert_eq!(
        *h.wait_final_timeout(Duration::from_secs(30))
            .unwrap()
            .value(),
        precise_output()
    );
    assert_f_atomic(&f.history().unwrap());
}

/// Elements in the sampled-pattern chaos pipeline below.
const M: usize = 64;

/// Precise output of the `pmap` → `reduce` pipeline: `Σ 3·i` over `0..M`.
const fn pmap_reduce_precise() -> u64 {
    3 * (M as u64 * (M as u64 - 1) / 2)
}

/// The paper's sampling patterns under fault injection: a
/// [`ParallelSampledMap`] source (`pmap`, tripling `0..M` in LFSR order,
/// one element a chunk, on every worker of the shared runtime) feeding a
/// [`SampledReduce`] stage (`reduce`, summing whatever `pmap` has
/// published so far). Faults arm on the chunk-merge boundary for `pmap`
/// and on the sampling loop for `reduce`.
#[allow(clippy::type_complexity)]
fn pmap_reduce_pipeline(
    sup: Supervision,
    plan: &FaultPlan,
) -> (Pipeline, BufferReader<Vec<u64>>, BufferReader<u64>) {
    // publish_every = 1 (the default) guarantees at least one publication
    // before the earliest injectable panic, like the `f`→`g`→`h` pipeline.
    let opts = StageOptions::default().keep_history().supervise(sup);
    let input: Vec<u64> = (0..M as u64).collect();
    let mut pb = PipelineBuilder::new();
    let pmap = ParallelSampledMap::new(
        "pmap",
        input,
        DynPermutation::new(Lfsr::with_len(M).unwrap()),
        1,
        |i: &Vec<u64>| vec![0u64; i.len()],
        |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
            values.extend(indices.iter().map(|&idx| i[idx as usize] * 3));
        },
        |out: &mut Vec<u64>, indices: &[u32], values: &[u64]| {
            for (&idx, &v) in indices.iter().zip(values) {
                out[idx as usize] = v;
            }
        },
    )
    .register(&mut pb, opts);
    let sum = pb.stage(
        "reduce",
        &pmap,
        SampledReduce::new(
            DynPermutation::new(Lfsr::with_len(M).unwrap()),
            |_: &Vec<u64>| 0u64,
            |acc: &mut u64, d: &Vec<u64>, idx| *acc += d[idx],
        ),
        opts,
    );
    (pb.with_faults(plan.clone()).build(), pmap, sum)
}

/// Property 3 for `pmap`: every published slot is either the unwritten
/// sentinel 0 or the exact mapped value `3·idx` — never a torn write.
fn assert_pmap_atomic(hist: &[Snapshot<Vec<u64>>]) {
    for s in hist {
        for (idx, &v) in s.value().iter().enumerate() {
            assert!(
                v == 0 || v == 3 * idx as u64,
                "torn publication in `pmap`: slot {idx} holds {v}"
            );
        }
    }
}

/// Every `reduce` publication sums a sampled subset of `pmap`'s written
/// slots, so it is a multiple of 3 bounded by the precise output.
fn assert_reduce_valid(hist: &[Snapshot<u64>]) {
    for s in hist {
        assert!(
            s.value() % 3 == 0 && *s.value() <= pmap_reduce_precise(),
            "`reduce` published impossible value {}",
            s.value()
        );
    }
}

#[test]
fn sampled_patterns_under_seeded_degrade_yield_valid_output() {
    for seed in 0..chaos_iters() {
        let plan = FaultPlan::seeded(seed, &["pmap", "reduce"], M as u64);
        let (pipeline, pmap, sum) = pmap_reduce_pipeline(Supervision::degrade(), &plan);
        let auto = pipeline.launch().unwrap();
        let report = auto
            .join()
            .unwrap_or_else(|e| panic!("seed {seed} (plan:\n{plan}) errored under Degrade: {e}"));
        let ctx = format!("seed {seed} (plan:\n{plan})");
        let out = sum
            .wait_final_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{ctx}: no terminal output: {e}"));
        assert!(out.is_terminal(), "{ctx}");
        let pmap_hist = pmap.history().unwrap();
        assert_monotone(&pmap_hist, "pmap");
        assert_pmap_atomic(&pmap_hist);
        let sum_hist = sum.history().unwrap();
        assert_monotone(&sum_hist, "reduce");
        assert_reduce_valid(&sum_hist);
        if report.all_final() {
            assert_eq!(*out.value(), pmap_reduce_precise(), "{ctx}");
        } else {
            assert!(report.any_degraded(), "{ctx}: not final yet not degraded");
            assert!(out.is_degraded(), "{ctx}");
        }
    }
}

#[test]
fn sampled_patterns_under_seeded_restart_reach_the_precise_output() {
    for seed in 0..chaos_iters() {
        let plan = FaultPlan::seeded(seed, &["pmap", "reduce"], M as u64);
        let (pipeline, pmap, sum) =
            pmap_reduce_pipeline(Supervision::restart(4, Duration::ZERO), &plan);
        let auto = pipeline.launch().unwrap();
        let report = auto
            .join()
            .unwrap_or_else(|e| panic!("seed {seed} (plan:\n{plan}) errored under Restart: {e}"));
        // Injected faults are one-shot, so restarted sampled stages always
        // recover: idempotent slot writes make the re-run converge on the
        // same precise output.
        assert!(report.all_final(), "seed {seed} (plan:\n{plan})");
        let out = sum.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert!(out.is_final(), "seed {seed}");
        assert_eq!(*out.value(), pmap_reduce_precise(), "seed {seed}");
        let expected: Vec<u64> = (0..M as u64).map(|v| v * 3).collect();
        let pmap_final = pmap.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(*pmap_final.value(), expected, "seed {seed}");
        assert_pmap_atomic(&pmap.history().unwrap());
    }
}

#[test]
fn parallel_map_merge_panic_under_degrade_flags_downstream() {
    // A panic armed on `pmap`'s chunk-merge boundary under Degrade: the
    // partially-written map is sealed degraded and the reduction over it
    // still resolves to a valid, flagged approximation.
    let plan = FaultPlan::new().panic_at("pmap", 8);
    let (pipeline, pmap, sum) = pmap_reduce_pipeline(Supervision::degrade(), &plan);
    let auto = pipeline.launch().unwrap();
    let report = auto.join().unwrap();
    assert!(report.any_degraded());
    assert!(report.faults.degradations >= 1);
    let out = sum.wait_final_timeout(Duration::from_secs(30)).unwrap();
    assert!(out.is_degraded());
    assert!(!out.is_final());
    assert_reduce_valid(&sum.history().unwrap());
    assert_pmap_atomic(&pmap.history().unwrap());
    assert!(pmap.is_degraded());
}

#[test]
fn watchdog_degrades_an_injected_stall() {
    // f stalls for far longer than its heartbeat; the watchdog seals it
    // degraded and the rest of the pipeline completes around it.
    let plan = FaultPlan::new().stall_at("f", 3, Duration::from_millis(1_200));
    let sup =
        Supervision::fail_stop().with_watchdog(Duration::from_millis(120), StallAction::Degrade);
    let (pipeline, f, _g, h) = chaos_pipeline(sup, &plan);
    let auto = pipeline.launch().unwrap();
    let out = h.wait_final_timeout(Duration::from_secs(30)).unwrap();
    assert!(out.is_degraded());
    let stats = auto.fault_stats();
    assert!(stats.stalls >= 1, "stall not recorded: {stats:?}");
    assert!(stats.degradations >= 1);
    auto.stop();
    let report = auto.join().unwrap();
    assert!(report.any_degraded());
    assert!(f.is_degraded());
}

/// Serve-pool chaos: worker kills and fenced panics, end to end against
/// the pool's counters and trace.
mod serve_chaos {
    use anytime_core::buffer::BufferReader;
    use anytime_core::serve::{ServeOptions, ServePool, ServeStatus};
    use anytime_core::trace::{EventKind, Recorder};
    use anytime_core::{
        CoreError, Diffusive, FaultPlan, Pipeline, PipelineBuilder, Result, Snapshot, StageOptions,
        StepOutcome, Supervision, WorkerKillPlan,
    };
    use std::sync::Arc;
    use std::time::Duration;

    fn counting_factory(
        n: u64,
        step: Duration,
    ) -> impl Fn(&u64) -> Result<(Pipeline, BufferReader<u64>)> + Send + Sync {
        move |_input: &u64| {
            let mut pb = PipelineBuilder::new();
            let out = pb.source(
                "count",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    move |_: &(), out: &mut u64, _| {
                        std::thread::sleep(step);
                        *out += 1;
                        if *out == n {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1),
            );
            Ok((pb.build(), out))
        }
    }

    fn fraction_quality(n: u64) -> impl Fn(&Snapshot<u64>) -> f64 + Send + Sync {
        move |s: &Snapshot<u64>| *s.value() as f64 / n as f64
    }

    /// Steps in [`faulted_factory`]'s source.
    const FN: u64 = 16;

    /// A factory whose source `sf` counts to [`FN`] under `sup`, publishing
    /// every step, with the faults `plan` derives from the request's input
    /// (its seed). The source never sleeps: only the injected faults delay
    /// it.
    fn faulted_factory(
        sup: Supervision,
        plan: impl Fn(u64) -> FaultPlan + Send + Sync + 'static,
    ) -> impl Fn(&u64) -> Result<(Pipeline, BufferReader<u64>)> + Send + Sync + 'static {
        move |seed: &u64| {
            let mut pb = PipelineBuilder::new();
            let out = pb.source(
                "sf",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    |_: &(), out: &mut u64, _| {
                        *out += 1;
                        if *out == FN {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1).supervise(sup),
            );
            Ok((pb.with_faults(plan(*seed)).build(), out))
        }
    }

    /// A fault inside one request's run, three seeds a case. The request
    /// is answered from its own run, and the pool fails nothing and leaks
    /// no run:
    ///
    /// - *degrade*: the source panics at a seeded step under
    ///   `Supervision::degrade()`, and the request is answered `Degraded`
    ///   with the sealed partial count;
    /// - *fail-stop*: the source stalls at a seeded step and runs slowed,
    ///   and the request still reaches the precise count.
    #[test]
    fn a_fault_inside_a_run_is_answered_by_its_request() {
        let opts = || ServeOptions {
            replicas: 1,
            min_service: Duration::from_micros(100),
            ..ServeOptions::default()
        };
        let panic_step = |seed: u64| 2 + seed % (FN / 2);
        let degrade = ServePool::new(
            opts(),
            faulted_factory(Supervision::degrade(), move |seed| {
                FaultPlan::new().panic_at("sf", panic_step(seed))
            }),
            fraction_quality(FN),
        )
        .unwrap();
        for seed in [5u64, 19, 77] {
            let resp = degrade
                .submit(seed, Duration::from_secs(10), 0.0)
                .unwrap_or_else(|e| panic!("seed {seed}: not answered: {e}"));
            assert_eq!(resp.status, ServeStatus::Degraded, "seed {seed}: {resp:?}");
            assert!(resp.snapshot.is_degraded(), "seed {seed}: {resp:?}");
            assert_eq!(
                *resp.snapshot.value(),
                panic_step(seed),
                "seed {seed}: not the sealed partial count"
            );
            assert!(resp.quality < 1.0, "seed {seed}: {resp:?}");
            let stats = degrade.stats();
            assert_eq!(stats.failed, 0, "seed {seed}: {stats:?}");
            assert_eq!(stats.live_runs, 0, "seed {seed}: leaked runs: {stats:?}");
        }
        assert_eq!(degrade.shutdown().completed, 3);

        let fail_stop = ServePool::new(
            opts(),
            faulted_factory(Supervision::fail_stop(), |seed| {
                FaultPlan::new()
                    .stall_at("sf", 1 + seed % FN, Duration::from_millis(30))
                    .slow_down("sf", Duration::from_micros(200 * (1 + seed % 3)))
            }),
            fraction_quality(FN),
        )
        .unwrap();
        for seed in [3u64, 11, 42] {
            let resp = fail_stop
                .submit(seed, Duration::from_secs(10), 0.0)
                .unwrap_or_else(|e| panic!("seed {seed}: not answered: {e}"));
            assert_eq!(resp.status, ServeStatus::Final, "seed {seed}: {resp:?}");
            assert_eq!(*resp.snapshot.value(), FN, "seed {seed}: {resp:?}");
            assert_eq!(resp.quality, 1.0, "seed {seed}");
            let stats = fail_stop.stats();
            assert_eq!(stats.failed, 0, "seed {seed}: {stats:?}");
            assert_eq!(stats.live_runs, 0, "seed {seed}: leaked runs: {stats:?}");
        }
        assert_eq!(fail_stop.shutdown().completed, 3);
    }

    /// Seeded worker kills across a 3-replica default pool: the
    /// per-request serve fence answers each killed request with a
    /// structured `ReplicaPanicked`, every other request still reaches
    /// `Final`, and the pool never loses a worker. Runs three consecutive
    /// seeds starting at `CHAOS_SEED`.
    #[test]
    fn seeded_worker_kills_fail_fast_and_keep_capacity() {
        const REQUESTS: u64 = 24;
        let base: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC4A0);
        for seed in base..base + 3 {
            let plan = WorkerKillPlan::seeded(seed, REQUESTS, 3);
            let kills = plan.len() as u64;
            assert!(kills >= 1, "seed {seed}: empty kill plan");
            let pool = Arc::new(
                ServePool::new(
                    ServeOptions {
                        replicas: 3,
                        queue_capacity: 128,
                        min_service: Duration::from_micros(1),
                        recorder: Recorder::enabled(8192),
                        ..ServeOptions::default()
                    }
                    .worker_kill(plan.clone()),
                    counting_factory(4, Duration::from_micros(200)),
                    fraction_quality(4),
                )
                .unwrap(),
            );
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        (0..REQUESTS / 4)
                            .map(|_| p.submit(0, Duration::from_secs(10), 0.0))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut panicked = 0u64;
            for result in handles.into_iter().flat_map(|h| h.join().unwrap()) {
                match result {
                    Ok(resp) => assert_eq!(resp.status, ServeStatus::Final, "seed {seed}"),
                    Err(CoreError::ReplicaPanicked {
                        replica,
                        context: "serve",
                        message,
                    }) => {
                        assert!(replica < 3, "seed {seed}: replica {replica}");
                        assert_eq!(message.as_deref(), Some("fault-inject: worker kill"));
                        panicked += 1;
                    }
                    Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
                }
            }
            assert_eq!(panicked, kills, "seed {seed}: one failure per kill");
            assert_eq!(pool.worker_count(), 3, "seed {seed}: capacity dropped");
            // Drained after the shutdown joins the workers: a worker records
            // `request_failed` just after filling the slot that wakes its
            // submitter, so an earlier drain can miss the last event.
            let stats = pool.shutdown();
            let trace = pool.trace();
            assert_eq!(stats.admitted, REQUESTS, "seed {seed}: {stats:?}");
            assert_eq!(stats.completed, REQUESTS - kills, "seed {seed}: {stats:?}");
            assert_eq!(stats.failed, kills, "seed {seed}: {stats:?}");
            assert_eq!(stats.governor.closure_panics, kills, "seed {seed}");
            assert_eq!(stats.live_runs, 0, "seed {seed}");
            let failed: Vec<u64> = trace
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::RequestFailed)
                .filter_map(|e| e.req)
                .collect();
            assert_eq!(failed.len() as u64, kills, "seed {seed}: {failed:?}");
            assert!(
                failed.iter().all(|&id| plan.targets(id)),
                "seed {seed}: a request outside the kill plan failed: {failed:?}"
            );
        }
    }
}
