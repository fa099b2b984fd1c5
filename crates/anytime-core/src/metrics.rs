//! Diagnostics counters, latency histograms, and the accuracy trace.
//!
//! Every counter in this crate is a `Counter`. The sets here —
//! [`WaitCounters`], [`FaultCounters`], [`ServeCounters`],
//! [`RtaCounters`], [`GovernorCounters`], and the two histograms — group
//! them per event source: call sites bump a field directly, `snapshot`
//! copies the set into its plain `*Stats` view, and a `render_*` function
//! writes that view in the Prometheus text format through
//! [`crate::observe`]'s writers.
//!
//! The paper measures accuracy as the SNR of an approximate output against
//! the precise one, in decibels (§IV-A2); the applications score their
//! outputs with `anytime_img::metrics`. [`AccuracyTrace`] records such
//! scores over time, the data behind the paper's runtime–accuracy figures,
//! and checks the model's headline guarantee: *accuracy increases over
//! time and eventually reaches the precise output*.

use crate::observe::{write_sample, write_type, MetricStats};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing diagnostics tally: the one way this crate
/// declares a counter.
///
/// Every access is `Relaxed`. A tally orders no other memory (nothing is
/// published through it), and its readers are point-in-time snapshots
/// that tolerate skew between counters, so a stronger ordering would buy
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        // relaxed: a tally orders no other memory (see the type doc)
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        // relaxed: as in `add`; snapshot readers tolerate skew
        self.0.load(Ordering::Relaxed)
    }
}

/// Cumulative counters for one event source's blocking waits.
///
/// Every stage output buffer owns one of these; its event-driven wait
/// paths update it so the cost of waiting — and the latency from
/// publication to observation — is measurable per stage.
#[derive(Debug, Default)]
pub struct WaitCounters {
    waits: Counter,
    pub(crate) wakeups: Counter,
    pub(crate) spurious_wakeups: Counter,
    wait_ns: Counter,
    observations: Counter,
    publish_to_observe_ns: Counter,
}

impl WaitCounters {
    pub(crate) fn record_wait_entered(&self) {
        self.waits.inc();
    }

    pub(crate) fn record_wait_finished(&self, blocked: Duration) {
        self.wait_ns.add(blocked.as_nanos() as u64);
    }

    pub(crate) fn record_observation(&self, publish_to_observe: Duration) {
        self.observations.inc();
        self.publish_to_observe_ns
            .add(publish_to_observe.as_nanos() as u64);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> WaitStats {
        WaitStats {
            waits: self.waits.get(),
            wakeups: self.wakeups.get(),
            spurious_wakeups: self.spurious_wakeups.get(),
            total_wait: Duration::from_nanos(self.wait_ns.get()),
            observations: self.observations.get(),
            total_publish_to_observe: Duration::from_nanos(self.publish_to_observe_ns.get()),
        }
    }
}

/// A point-in-time view of a source's [`WaitCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Blocking waits entered (fast-path reads that never blocked are not
    /// counted).
    pub waits: u64,
    /// Times a blocked waiter was woken by a notification.
    pub wakeups: u64,
    /// Wakeups after which the awaited condition still did not hold.
    pub spurious_wakeups: u64,
    /// Total time waiters spent blocked.
    pub total_wait: Duration,
    /// Snapshots observed at the end of a blocking wait.
    pub observations: u64,
    /// Total latency from each snapshot's publication to its observation
    /// by a blocked waiter.
    pub total_publish_to_observe: Duration,
}

/// Writes one [`WaitStats`] in the Prometheus text format.
pub(crate) fn render_wait_stats(out: &mut dyn fmt::Write, s: &WaitStats) -> fmt::Result {
    for (family, value) in [
        ("anytime_wait_waits_total", s.waits as f64),
        ("anytime_wait_wakeups_total", s.wakeups as f64),
        (
            "anytime_wait_spurious_wakeups_total",
            s.spurious_wakeups as f64,
        ),
        (
            "anytime_wait_blocked_seconds_total",
            s.total_wait.as_secs_f64(),
        ),
        ("anytime_wait_observations_total", s.observations as f64),
        (
            "anytime_wait_publish_to_observe_seconds_total",
            s.total_publish_to_observe.as_secs_f64(),
        ),
    ] {
        write_type(out, family, "counter")?;
        write_sample(out, family, &[], value)?;
    }
    Ok(())
}

impl MetricStats for WaitStats {
    fn absorb(&mut self, other: &Self) {
        self.waits += other.waits;
        self.wakeups += other.wakeups;
        self.spurious_wakeups += other.spurious_wakeups;
        self.total_wait += other.total_wait;
        self.observations += other.observations;
        self.total_publish_to_observe += other.total_publish_to_observe;
    }

    fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Cumulative fault-handling counters for one automaton run.
///
/// Updated by the executor's supervision loop and the watchdog thread as
/// failures are handled; snapshot with [`FaultCounters::snapshot`] (the
/// executor surfaces the snapshot in its end-state report).
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub(crate) restarts: Counter,
    pub(crate) stalls: Counter,
    pub(crate) degradations: Counter,
    pub(crate) permanent_failures: Counter,
}

impl FaultCounters {
    /// A point-in-time copy of the counters.
    ///
    /// `dropped_publishes` is aggregated separately (per buffer) and starts
    /// at zero here; the executor fills it in when building its report.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            restarts: self.restarts.get(),
            stalls: self.stalls.get(),
            degradations: self.degradations.get(),
            permanent_failures: self.permanent_failures.get(),
            dropped_publishes: 0,
        }
    }
}

/// A point-in-time view of an automaton's [`FaultCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stage drivers re-run after a panic under
    /// [`crate::FailurePolicy::Restart`].
    pub restarts: u64,
    /// Stalls declared by the progress watchdog (a stage can stall, recover,
    /// and stall again under [`crate::StallAction::Log`]).
    pub stalls: u64,
    /// Buffers sealed degraded — by [`crate::FailurePolicy::Degrade`] on
    /// permanent death or by [`crate::StallAction::Degrade`] on stall.
    pub degradations: u64,
    /// Stage failures that became permanent (fail-stop, exhausted restarts,
    /// or a degrade with nothing published to degrade to).
    pub permanent_failures: u64,
    /// Publications dropped after a degraded seal, summed over all stage
    /// output buffers.
    pub dropped_publishes: u64,
}

impl FaultStats {
    /// `true` if the run completed with no fault handling at all.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulates another run's fault handling into this total.
    ///
    /// Used by the serving layer to aggregate the `FaultStats` of every
    /// pipeline run a [`crate::serve::ServePool`] performed.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.restarts += other.restarts;
        self.stalls += other.stalls;
        self.degradations += other.degradations;
        self.permanent_failures += other.permanent_failures;
        self.dropped_publishes += other.dropped_publishes;
    }
}

/// Writes one [`FaultStats`] in the Prometheus text format.
pub(crate) fn render_fault_stats(out: &mut dyn fmt::Write, s: &FaultStats) -> fmt::Result {
    write_type(out, "anytime_faults_total", "counter")?;
    for (kind, value) in [
        ("restarts", s.restarts),
        ("stalls", s.stalls),
        ("degradations", s.degradations),
        ("permanent_failures", s.permanent_failures),
        ("dropped_publishes", s.dropped_publishes),
    ] {
        write_sample(out, "anytime_faults_total", &[("kind", kind)], value as f64)?;
    }
    Ok(())
}

impl MetricStats for FaultStats {
    fn absorb(&mut self, other: &Self) {
        FaultStats::absorb(self, other);
    }

    fn is_clean(&self) -> bool {
        FaultStats::is_clean(self)
    }
}

/// An exponentially weighted moving average of a latency, updatable from
/// any thread.
///
/// The serving layer keeps one per replica: every completed request feeds
/// its service time in, and admission control reads the smoothed value to
/// project queue wait. Stored as nanoseconds in a single atomic (the
/// read-modify-write race between two concurrent `record`s merely drops
/// one sample — acceptable for a smoothed estimator).
#[derive(Debug, Default)]
pub struct LatencyEwma {
    /// Smoothed latency in nanoseconds; 0 means "no sample yet".
    nanos: AtomicU64,
}

impl LatencyEwma {
    /// Smoothing factor: each new sample contributes 1/4 of the estimate.
    const WEIGHT_SHIFT: u32 = 2;

    /// Folds a new sample into the average.
    pub fn record(&self, sample: Duration) {
        let s = sample.as_nanos().min(u64::MAX as u128) as u64;
        let prev = self.nanos.load(Ordering::Relaxed); // relaxed: lossy smoothed estimator (see type doc)
        let next = if prev == 0 {
            s.max(1)
        } else {
            (prev - (prev >> Self::WEIGHT_SHIFT) + (s >> Self::WEIGHT_SHIFT)).max(1)
        };
        self.nanos.store(next, Ordering::Relaxed); // relaxed: lossy smoothed estimator (see type doc)
    }

    /// The smoothed latency, or `None` before the first sample.
    pub fn get(&self) -> Option<Duration> {
        // relaxed: smoothed estimate read; staleness tolerated
        match self.nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }
}

/// A lock-free log₂-bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` microseconds (bucket 0
/// also absorbs sub-microsecond samples; the last bucket absorbs
/// everything ≥ ~67 s). The serving layer records each request's service
/// time here and exports it as `anytime_serve_service_seconds`.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [Counter; Self::BUCKETS],
    count: Counter,
}

impl LatencyHistogram {
    const BUCKETS: usize = 27;

    /// Records one latency sample.
    pub fn record(&self, sample: Duration) {
        let us = sample.as_micros().min(u64::MAX as u128) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[idx].inc();
        self.count.inc();
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> LatencyStats {
        LatencyStats {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
            count: self.count(),
        }
    }
}

/// A point-in-time view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Sample counts per log₂ bucket: bucket `i` spans
    /// `[2^i, 2^(i+1))` microseconds.
    pub buckets: [u64; 27],
    /// Total samples recorded.
    pub count: u64,
}

impl LatencyStats {
    /// Writes this histogram in the Prometheus text format under `family`
    /// (`_bucket` cumulative counts with `le` in seconds, plus `_count`).
    fn render_as(&self, out: &mut dyn fmt::Write, family: &str) -> fmt::Result {
        write_type(out, family, "histogram")?;
        let bucket = format!("{family}_bucket");
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            let le = format!("{}", (1u64 << (i + 1)) as f64 * 1e-6);
            write_sample(out, &bucket, &[("le", le.as_str())], cumulative as f64)?;
        }
        write_sample(out, &bucket, &[("le", "+Inf")], self.count as f64)?;
        write_sample(out, &format!("{family}_count"), &[], self.count as f64)
    }
}

impl MetricStats for LatencyStats {
    fn absorb(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    fn is_clean(&self) -> bool {
        self.count == 0
    }
}

/// Histogram of response arrival relative to the request deadline.
///
/// Each sample is the ratio `elapsed / deadline budget`; the fixed bucket
/// edges make "how close to the wire do responses land" legible at a
/// glance, and `hit_rate` is the fraction that arrived by the deadline.
#[derive(Debug, Default)]
pub struct DeadlineHistogram {
    buckets: [Counter; DEADLINE_BUCKET_EDGES.len() + 1],
}

/// Upper edges of the deadline-ratio buckets; a final unbounded bucket
/// catches everything ≥ the last edge (deadline overshoots).
pub const DEADLINE_BUCKET_EDGES: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.1];

impl DeadlineHistogram {
    /// Records a response that took `elapsed` of a `budget`-sized deadline.
    pub fn record(&self, elapsed: Duration, budget: Duration) {
        let ratio = if budget.is_zero() {
            f64::INFINITY
        } else {
            elapsed.as_secs_f64() / budget.as_secs_f64()
        };
        let idx = DEADLINE_BUCKET_EDGES
            .iter()
            .position(|&edge| ratio < edge)
            .unwrap_or(DEADLINE_BUCKET_EDGES.len());
        self.buckets[idx].inc();
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> DeadlineHistogramStats {
        DeadlineHistogramStats {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
        }
    }
}

/// A point-in-time view of a [`DeadlineHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineHistogramStats {
    /// Response counts per deadline-ratio bucket: one bucket per edge in
    /// [`DEADLINE_BUCKET_EDGES`] plus a final unbounded overshoot bucket.
    pub buckets: [u64; DEADLINE_BUCKET_EDGES.len() + 1],
}

impl MetricStats for DeadlineHistogramStats {
    fn absorb(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    fn is_clean(&self) -> bool {
        self.count() == 0
    }
}

impl DeadlineHistogramStats {
    /// Total responses recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Writes this histogram in the Prometheus text format under `family`
    /// (`_bucket` cumulative counts with `le` as deadline ratios, plus
    /// `_count`).
    fn render_as(&self, out: &mut dyn fmt::Write, family: &str) -> fmt::Result {
        write_type(out, family, "histogram")?;
        let bucket = format!("{family}_bucket");
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            let le = DEADLINE_BUCKET_EDGES
                .get(i)
                .map_or("+Inf".to_owned(), |e| format!("{e}"));
            write_sample(out, &bucket, &[("le", le.as_str())], cumulative as f64)?;
        }
        write_sample(out, &format!("{family}_count"), &[], self.count() as f64)
    }

    /// Fraction of responses that arrived within 10% of their deadline
    /// budget (ratio < 1.1), or 1.0 if nothing was recorded.
    ///
    /// The tolerance is deliberate: a deadline-bound responder answers
    /// *at* the deadline, so an on-time response records a ratio
    /// fractionally above 1.0 purely from scheduling latency. Only the
    /// unbounded overshoot bucket counts as a miss; the 1.0 edge keeps
    /// exact-budget arrivals visible in [`Self::buckets`].
    pub fn hit_rate(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 1.0;
        }
        let hits: u64 = self.buckets[..DEADLINE_BUCKET_EDGES.len()].iter().sum();
        hits as f64 / total as f64
    }
}

/// Cumulative counters for one [`crate::serve::ServePool`]'s robustness
/// machinery: admission control, load shedding, and retries.
#[derive(Debug, Default)]
pub struct ServeCounters {
    pub(crate) admitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) shed: Counter,
    pub(crate) retried: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) degraded_responses: Counter,
}

impl ServeCounters {
    /// A point-in-time copy of the counters (the non-counter fields of
    /// [`ServeStats`] start at their defaults; the pool fills them in).
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            shed: self.shed.get(),
            retried: self.retried.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            degraded_responses: self.degraded_responses.get(),
            deadline: DeadlineHistogramStats::default(),
            faults: FaultStats::default(),
            live_runs: 0,
            rta: RtaStats::default(),
            governor: GovernorStats::default(),
        }
    }
}

/// Writes the counter portion of one [`ServeStats`] in the Prometheus text
/// format (the deadline histogram and fault aggregates render separately).
fn render_serve_counters(out: &mut dyn fmt::Write, s: &ServeStats) -> fmt::Result {
    write_type(out, "anytime_serve_requests_total", "counter")?;
    for (event, value) in [
        ("admitted", s.admitted),
        ("rejected", s.rejected),
        ("shed", s.shed),
        ("retried", s.retried),
        ("completed", s.completed),
        ("failed", s.failed),
        ("degraded_responses", s.degraded_responses),
    ] {
        write_sample(
            out,
            "anytime_serve_requests_total",
            &[("event", event)],
            value as f64,
        )?;
    }
    write_type(out, "anytime_serve_live_runs", "gauge")?;
    write_sample(out, "anytime_serve_live_runs", &[], s.live_runs as f64)
}

impl MetricStats for ServeStats {
    fn absorb(&mut self, other: &Self) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.retried += other.retried;
        self.completed += other.completed;
        self.failed += other.failed;
        self.degraded_responses += other.degraded_responses;
        MetricStats::absorb(&mut self.deadline, &other.deadline);
        FaultStats::absorb(&mut self.faults, &other.faults);
        self.live_runs += other.live_runs;
        MetricStats::absorb(&mut self.rta, &other.rta);
        MetricStats::absorb(&mut self.governor, &other.governor);
    }

    fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// A point-in-time view of a serve pool's [`ServeCounters`], deadline-hit
/// histogram, and aggregated pipeline fault handling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Requests that passed admission control (includes shed requests).
    pub admitted: u64,
    /// Requests rejected fast at admission: projected wait or minimum
    /// service would already blow the deadline, or the queue was full.
    pub rejected: u64,
    /// Requests admission shed: queued with negative analytical slack, they
    /// ran under their floor's worst-case service bound instead of their
    /// whole deadline (degrade quality, never availability).
    pub shed: u64,
    /// Serve-layer retries: a replica died permanently and the request was
    /// relaunched with capped exponential backoff.
    pub retried: u64,
    /// Requests answered with a snapshot.
    pub completed: u64,
    /// Admitted requests for which no snapshot could be produced.
    pub failed: u64,
    /// Responses flagged degraded: below their quality floor, served from
    /// a degraded pipeline, or answered past a dead replica's best effort.
    pub degraded_responses: u64,
    /// Response arrival relative to deadline budgets.
    pub deadline: DeadlineHistogramStats,
    /// Fault handling aggregated over every pipeline run the pool
    /// performed (each run's [`crate::RunReport`]-level `FaultStats`).
    pub faults: FaultStats,
    /// Pipeline runs still live when this snapshot was taken; zero after
    /// shutdown proves no leaked running stages.
    pub live_runs: u64,
    /// Response-time-analysis admission activity, when the pool runs with
    /// an analytical gate (all-zero otherwise).
    pub rta: RtaStats,
    /// Replica-lifecycle and serve-fence activity.
    pub governor: GovernorStats,
}

/// Cumulative counters for a serve pool's analytical admission gate
/// ([`crate::rta`]): decision verdicts plus the predicted-vs-actual
/// bound-error samples behind the exported gauge.
#[derive(Debug, Default)]
pub struct RtaCounters {
    pub(crate) feasible: Counter,
    pub(crate) infeasible: Counter,
    pub(crate) fallback: Counter,
    bound_samples: Counter,
    bound_violations: Counter,
    ratio_milli_sum: Counter,
}

impl RtaCounters {
    /// Records one predicted-vs-actual sample: the worst-case bound the
    /// gate promised at admission against the response time the request
    /// actually saw. The ratio is accumulated in milli-units so the mean
    /// survives integer counters without a float atomic.
    pub(crate) fn record_bound_sample(&self, predicted: Duration, actual: Duration) {
        let p = predicted.as_nanos().max(1) as f64;
        let ratio = actual.as_nanos() as f64 / p;
        self.bound_samples.inc();
        if actual > predicted {
            self.bound_violations.inc();
        }
        self.ratio_milli_sum.add((ratio * 1_000.0) as u64);
    }

    /// A point-in-time copy of the counters (the calibration fields of
    /// [`RtaStats`] start at their defaults; the pool fills them in from
    /// its gate).
    pub fn snapshot(&self) -> RtaStats {
        RtaStats {
            feasible: self.feasible.get(),
            infeasible: self.infeasible.get(),
            fallback: self.fallback.get(),
            bound_samples: self.bound_samples.get(),
            bound_violations: self.bound_violations.get(),
            ratio_milli_sum: self.ratio_milli_sum.get(),
            calibration_runs: 0,
            calibrated: false,
        }
    }
}

/// A point-in-time view of a pool's [`RtaCounters`] plus its gate's
/// calibration progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtaStats {
    /// Admissions where the gate produced bounds and found the request
    /// feasible.
    pub feasible: u64,
    /// Requests rejected with a proven-infeasible verdict
    /// ([`crate::CoreError::Infeasible`]).
    pub infeasible: u64,
    /// Admissions decided by the heuristic because the gate was not yet
    /// calibrated (or had never observed the requested floor).
    pub fallback: u64,
    /// Predicted-vs-actual response-time samples recorded.
    pub bound_samples: u64,
    /// Samples whose actual response time exceeded the promised
    /// worst-case bound — each one is the analysis caught lying.
    pub bound_violations: u64,
    /// Sum of per-sample `actual / predicted` ratios in milli-units
    /// (1000 = the bound was exactly met).
    pub ratio_milli_sum: u64,
    /// Calibration runs the gate has absorbed.
    pub calibration_runs: u64,
    /// Whether the gate was active (calibrated) at snapshot time.
    pub calibrated: bool,
}

impl RtaStats {
    /// Mean `actual / predicted-bound` ratio across recorded samples
    /// (0.0 when nothing was recorded). Well below 1.0 means the bound is
    /// honest but slack; above 1.0 means it is being violated on average.
    pub fn bound_error_ratio(&self) -> f64 {
        if self.bound_samples == 0 {
            return 0.0;
        }
        self.ratio_milli_sum as f64 / 1_000.0 / self.bound_samples as f64
    }

    /// Fraction of samples that violated the promised bound.
    pub fn violation_rate(&self) -> f64 {
        if self.bound_samples == 0 {
            return 0.0;
        }
        self.bound_violations as f64 / self.bound_samples as f64
    }
}

impl MetricStats for RtaStats {
    fn absorb(&mut self, other: &Self) {
        self.feasible += other.feasible;
        self.infeasible += other.infeasible;
        self.fallback += other.fallback;
        self.bound_samples += other.bound_samples;
        self.bound_violations += other.bound_violations;
        self.ratio_milli_sum += other.ratio_milli_sum;
        self.calibration_runs += other.calibration_runs;
        self.calibrated |= other.calibrated;
    }

    fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Writes one [`RtaStats`] in the Prometheus text format: decision
/// counters, calibration progress, and the predicted-vs-actual bound-error
/// gauge.
fn render_rta_stats(out: &mut dyn fmt::Write, s: &RtaStats) -> fmt::Result {
    write_type(out, "anytime_rta_decisions_total", "counter")?;
    for (verdict, value) in [
        ("feasible", s.feasible),
        ("infeasible", s.infeasible),
        ("fallback", s.fallback),
    ] {
        write_sample(
            out,
            "anytime_rta_decisions_total",
            &[("verdict", verdict)],
            value as f64,
        )?;
    }
    for (family, kind, value) in [
        (
            "anytime_rta_calibration_runs_total",
            "counter",
            s.calibration_runs as f64,
        ),
        (
            "anytime_rta_calibrated",
            "gauge",
            f64::from(u8::from(s.calibrated)),
        ),
        (
            "anytime_rta_bound_error_ratio",
            "gauge",
            s.bound_error_ratio(),
        ),
        (
            "anytime_rta_bound_violations_total",
            "counter",
            s.bound_violations as f64,
        ),
    ] {
        write_type(out, family, kind)?;
        write_sample(out, family, &[], value)?;
    }
    Ok(())
}

/// Cumulative lifecycle counters of a serve pool: replica churn from
/// [`crate::ServePool::resize`] and panics absorbed by the serve fences.
#[derive(Debug, Default)]
pub struct GovernorCounters {
    pub(crate) worker_adds: Counter,
    pub(crate) worker_drains: Counter,
    pub(crate) resizes: Counter,
    pub(crate) closure_panics: Counter,
}

impl GovernorCounters {
    /// A point-in-time copy of the counters (the gauge fields of
    /// [`GovernorStats`] start at their defaults; the pool fills them in
    /// from its worker registry).
    pub fn snapshot(&self) -> GovernorStats {
        GovernorStats {
            worker_adds: self.worker_adds.get(),
            worker_drains: self.worker_drains.get(),
            resizes: self.resizes.get(),
            closure_panics: self.closure_panics.get(),
            workers_live: 0,
            workers_draining: 0,
            workers_target: 0,
        }
    }
}

/// A point-in-time view of a pool's [`GovernorCounters`] plus the live
/// worker-registry gauges the pool fills in at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Fresh workers added by `resize()` scale-up.
    pub worker_adds: u64,
    /// Workers gracefully drained and joined by `resize()` scale-down.
    pub worker_drains: u64,
    /// `resize()` calls that completed.
    pub resizes: u64,
    /// Panics absorbed by the serve fences: one per caller-closure panic,
    /// plus one per request a panicking serve path failed.
    pub closure_panics: u64,
    /// Worker threads currently alive.
    pub workers_live: u64,
    /// Workers currently draining (finishing a run, taking no new work).
    pub workers_draining: u64,
    /// The configured worker-count target.
    pub workers_target: u64,
}

impl MetricStats for GovernorStats {
    fn absorb(&mut self, other: &Self) {
        self.worker_adds += other.worker_adds;
        self.worker_drains += other.worker_drains;
        self.resizes += other.resizes;
        self.closure_panics += other.closure_panics;
        // Gauges: sum the worker counts (absorbing two pools' views yields
        // their combined fleet).
        self.workers_live += other.workers_live;
        self.workers_draining += other.workers_draining;
        self.workers_target += other.workers_target;
    }

    fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Writes one [`GovernorStats`] in the Prometheus text format: lifecycle
/// counters and the worker-state gauges.
fn render_governor_stats(out: &mut dyn fmt::Write, s: &GovernorStats) -> fmt::Result {
    write_type(out, "anytime_serve_governor_total", "counter")?;
    for (event, value) in [
        ("worker_added", s.worker_adds),
        ("worker_drained", s.worker_drains),
        ("resizes", s.resizes),
        ("closure_panics", s.closure_panics),
    ] {
        write_sample(
            out,
            "anytime_serve_governor_total",
            &[("event", event)],
            value as f64,
        )?;
    }
    write_type(out, "anytime_serve_workers", "gauge")?;
    for (state, value) in [
        ("live", s.workers_live),
        ("draining", s.workers_draining),
        ("target", s.workers_target),
    ] {
        write_sample(
            out,
            "anytime_serve_workers",
            &[("state", state)],
            value as f64,
        )?;
    }
    Ok(())
}

/// Writes a serve pool's whole exposition ([`crate::ServePool::prometheus`]):
/// serve counters, the deadline-ratio and service-latency histograms,
/// aggregated run faults, the admission analysis, and the worker
/// lifecycle.
pub(crate) fn render_serve_pool(
    out: &mut dyn fmt::Write,
    stats: &ServeStats,
    service: &LatencyStats,
) -> fmt::Result {
    render_serve_counters(out, stats)?;
    stats.deadline.render_as(out, "anytime_deadline_ratio")?;
    render_fault_stats(out, &stats.faults)?;
    service.render_as(out, "anytime_serve_service_seconds")?;
    render_rta_stats(out, &stats.rta)?;
    render_governor_stats(out, &stats.governor)
}

/// A recorded runtime–accuracy profile: the data behind the paper's
/// Figures 11–15.
#[derive(Debug, Clone, Default)]
pub struct AccuracyTrace {
    points: Vec<(Duration, f64)>,
}

impl AccuracyTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous observation.
    pub fn push(&mut self, at: Duration, score: f64) {
        if let Some(&(prev, _)) = self.points.last() {
            assert!(at >= prev, "observations must be in time order");
        }
        self.points.push((at, score));
    }

    /// The recorded `(time, score)` points, oldest first.
    pub fn points(&self) -> &[(Duration, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded score, if any.
    pub fn final_score(&self) -> Option<f64> {
        self.points.last().map(|&(_, s)| s)
    }

    /// Checks the anytime guarantee: scores never *decrease* by more than
    /// `tolerance` between consecutive observations.
    ///
    /// A small tolerance absorbs metric noise (e.g. a weighted-sample
    /// estimate that wobbles before converging); `0.0` demands strict
    /// non-decrease.
    pub fn is_monotone_nondecreasing(&self, tolerance: f64) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - tolerance)
    }

    /// The earliest time at which the score reached `threshold`, if ever.
    pub fn time_to_score(&self, threshold: f64) -> Option<Duration> {
        self.points
            .iter()
            .find(|&&(_, s)| s >= threshold)
            .map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_monotonicity() {
        let mut t = AccuracyTrace::new();
        assert!(t.is_empty());
        t.push(Duration::from_millis(1), 1.0);
        t.push(Duration::from_millis(2), 2.0);
        t.push(Duration::from_millis(3), 1.95);
        assert_eq!(t.len(), 3);
        assert!(!t.is_monotone_nondecreasing(0.0));
        assert!(t.is_monotone_nondecreasing(0.1));
        assert_eq!(t.final_score(), Some(1.95));
        assert_eq!(t.time_to_score(2.0), Some(Duration::from_millis(2)));
        assert_eq!(t.time_to_score(99.0), None);
    }

    #[test]
    fn fault_counters_snapshot() {
        let c = FaultCounters::default();
        assert!(c.snapshot().is_clean());
        c.restarts.inc();
        c.restarts.inc();
        c.stalls.inc();
        c.degradations.inc();
        c.permanent_failures.inc();
        let s = c.snapshot();
        assert_eq!(s.restarts, 2);
        assert_eq!(s.stalls, 1);
        assert_eq!(s.degradations, 1);
        assert_eq!(s.permanent_failures, 1);
        assert_eq!(s.dropped_publishes, 0);
        assert!(!s.is_clean());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn trace_rejects_time_travel() {
        let mut t = AccuracyTrace::new();
        t.push(Duration::from_millis(5), 1.0);
        t.push(Duration::from_millis(1), 2.0);
    }

    #[test]
    fn metric_stats_absorb_is_uniform() {
        fn fold<S: MetricStats>(a: &S, b: &S) -> S {
            let mut out = a.clone();
            out.absorb(b);
            out
        }

        let w = WaitStats {
            waits: 2,
            total_wait: Duration::from_millis(4),
            ..Default::default()
        };
        let w2 = fold(&w, &w);
        assert_eq!(w2.waits, 4);
        assert_eq!(w2.total_wait, Duration::from_millis(8));
        assert!(!w2.is_clean() && WaitStats::default().is_clean());

        let f = FaultStats {
            restarts: 1,
            ..Default::default()
        };
        assert_eq!(fold(&f, &f).restarts, 2);

        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        let l = h.snapshot();
        assert_eq!(fold(&l, &l).count, 2);

        let d = DeadlineHistogram::default();
        d.record(Duration::from_millis(5), Duration::from_millis(10));
        let ds = d.snapshot();
        assert_eq!(fold(&ds, &ds).count(), 2);
        assert!(DeadlineHistogramStats::default().is_clean() && !ds.is_clean());

        let sc = ServeCounters::default();
        sc.admitted.inc();
        sc.completed.inc();
        let ss = sc.snapshot();
        let ss2 = fold(&ss, &ss);
        assert_eq!((ss2.admitted, ss2.completed), (2, 2));
        assert!(ServeStats::default().is_clean() && !ss2.is_clean());
    }

    #[test]
    fn rta_counters_track_decisions_and_bound_error() {
        let rta = RtaCounters::default();
        rta.feasible.inc();
        rta.feasible.inc();
        rta.infeasible.inc();
        rta.fallback.inc();
        // Actual half the bound (honest), then 1.5× the bound (violated).
        rta.record_bound_sample(Duration::from_millis(10), Duration::from_millis(5));
        rta.record_bound_sample(Duration::from_millis(10), Duration::from_millis(15));
        let s = rta.snapshot();
        assert_eq!((s.feasible, s.infeasible, s.fallback), (2, 1, 1));
        assert_eq!(s.bound_samples, 2);
        assert_eq!(s.bound_violations, 1);
        assert!((s.bound_error_ratio() - 1.0).abs() < 0.01, "{s:?}");
        assert_eq!(s.violation_rate(), 0.5);
        assert!(RtaStats::default().is_clean() && !s.is_clean());

        // Folding into ServeStats carries the rta block along.
        let mut total = ServeStats::default();
        let one = ServeStats {
            rta: s,
            ..Default::default()
        };
        MetricStats::absorb(&mut total, &one);
        MetricStats::absorb(&mut total, &one);
        assert_eq!(total.rta.infeasible, 2);
        assert_eq!(total.rta.bound_samples, 4);
    }

    #[test]
    fn rta_stats_handle_empty_samples() {
        let s = RtaStats::default();
        assert_eq!(s.bound_error_ratio(), 0.0);
        assert_eq!(s.violation_rate(), 0.0);
    }

    #[test]
    fn governor_counters_snapshot_and_render() {
        let g = GovernorCounters::default();
        g.worker_adds.inc();
        g.worker_adds.inc();
        g.worker_drains.inc();
        g.resizes.inc();
        g.closure_panics.inc();
        let mut s = g.snapshot();
        assert_eq!(s.worker_adds, 2);
        assert_eq!(s.worker_drains, 1);
        assert!(!s.is_clean() && GovernorStats::default().is_clean());
        s.workers_live = 3;
        s.workers_draining = 1;
        s.workers_target = 4;
        let mut out = String::new();
        render_governor_stats(&mut out, &s).unwrap();
        assert!(out.contains("anytime_serve_governor_total{event=\"worker_added\"} 2"));
        assert!(out.contains("anytime_serve_governor_total{event=\"closure_panics\"} 1"));
        assert!(out.contains("anytime_serve_workers{state=\"live\"} 3"));
        assert!(out.contains("anytime_serve_workers{state=\"target\"} 4"));

        // Folding into ServeStats carries the governor block along and
        // sums the fleet gauges.
        let mut total = ServeStats::default();
        let one = ServeStats {
            governor: s,
            ..Default::default()
        };
        MetricStats::absorb(&mut total, &one);
        MetricStats::absorb(&mut total, &one);
        assert_eq!(total.governor.worker_adds, 4);
        assert_eq!(total.governor.workers_live, 6);
    }

    /// Pins every line [`crate::ServePool::prometheus`] and
    /// [`crate::RunReport::prometheus`] emit: fixed stats, with a distinct
    /// value in every field, rendered through the same functions and
    /// compared with a golden exposition.
    #[test]
    fn exposition_matches_golden() {
        use crate::executor::{RunReport, StageReport};
        use crate::stage::StageEnd;

        let serve = ServeStats {
            admitted: 101,
            rejected: 102,
            shed: 103,
            retried: 107,
            completed: 109,
            failed: 110,
            degraded_responses: 111,
            deadline: DeadlineHistogramStats {
                buckets: [1, 2, 3, 4, 5, 6, 7],
            },
            faults: FaultStats {
                restarts: 21,
                stalls: 22,
                degradations: 23,
                permanent_failures: 24,
                dropped_publishes: 25,
            },
            live_runs: 3,
            rta: RtaStats {
                feasible: 31,
                infeasible: 32,
                fallback: 33,
                bound_samples: 4,
                bound_violations: 1,
                ratio_milli_sum: 3_000,
                calibration_runs: 36,
                calibrated: true,
            },
            governor: GovernorStats {
                worker_adds: 44,
                worker_drains: 45,
                resizes: 46,
                closure_panics: 49,
                workers_live: 3,
                workers_draining: 1,
                workers_target: 4,
            },
        };
        let mut service = LatencyStats::default();
        for (i, b) in service.buckets.iter_mut().enumerate() {
            *b = (i % 4) as u64;
        }
        service.count = service.buckets.iter().sum();
        let stage = |name: &str, waits: WaitStats| StageReport {
            name: name.into(),
            end: StageEnd::Final,
            restarts: 0,
            waits,
        };
        let report = RunReport {
            elapsed: Duration::from_millis(7),
            stages: vec![
                stage(
                    "f",
                    WaitStats {
                        waits: 5,
                        wakeups: 4,
                        spurious_wakeups: 1,
                        total_wait: Duration::from_millis(1_500),
                        observations: 3,
                        total_publish_to_observe: Duration::from_micros(250),
                    },
                ),
                stage(
                    "g",
                    WaitStats {
                        waits: 2,
                        wakeups: 2,
                        spurious_wakeups: 0,
                        total_wait: Duration::from_millis(250),
                        observations: 2,
                        total_publish_to_observe: Duration::from_micros(125),
                    },
                ),
            ],
            faults: FaultStats {
                restarts: 1,
                stalls: 2,
                degradations: 3,
                permanent_failures: 4,
                dropped_publishes: 5,
            },
        };

        let mut text = String::new();
        render_serve_pool(&mut text, &serve, &service).unwrap();
        text.push_str(&report.prometheus());
        assert_eq!(text, include_str!("../testdata/exposition.prom"));
    }
}
