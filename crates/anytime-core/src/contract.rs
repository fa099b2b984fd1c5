//! Contract-mode execution: deadline-driven level selection (paper §II-B).
//!
//! Anytime algorithms come in two flavours. The automaton is built around
//! *interruptible* execution, but the paper also discusses **contract**
//! algorithms, which are told their time budget up front and schedule their
//! computations to fit it (citing design-to-time scheduling and imprecise
//! computation). This module provides the contract counterpart for
//! iterative stages: given per-level cost estimates and a deadline, pick
//! the levels to run.
//!
//! The planner exploits a freedom interruptible execution does not have:
//! with a known budget there is no need to produce intermediate outputs,
//! so a contract plan may *skip* cheap early levels entirely and spend the
//! whole budget on the most accurate level that fits — plus, optionally,
//! warm-up levels that still leave the final one affordable (insurance
//! against the run being cut short after all).

use crate::error::CoreError;
use std::time::Duration;

/// Cost/quality estimate for one accuracy level of an iterative stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelEstimate {
    /// Accuracy level index (0-based, as in [`crate::Iterative`]).
    pub level: u64,
    /// Estimated cost of executing this level (a full re-execution).
    pub cost: Duration,
    /// Estimated output quality after this level (any monotone scale;
    /// higher is better).
    pub quality: f64,
}

/// A contract plan: the levels to execute, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractPlan {
    /// Levels to run, ascending.
    pub levels: Vec<u64>,
    /// Total estimated cost of the plan.
    pub expected_cost: Duration,
    /// Estimated quality of the final executed level.
    pub expected_quality: f64,
}

/// Plans a contract execution of an iterative stage: run exactly one level
/// — the highest-quality one whose estimated cost fits `deadline` — or the
/// cheapest level if nothing fits (the paper's "suboptimal output quality
/// can be more acceptable than exceeding time limits" is still better than
/// no output).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if `estimates` is empty or
/// qualities are not monotone non-decreasing in level (an anytime stage
/// must improve with level).
pub fn plan_single_level(
    estimates: &[LevelEstimate],
    deadline: Duration,
) -> crate::Result<ContractPlan> {
    validate(estimates)?;
    let best_fit = estimates
        .iter()
        .filter(|e| e.cost <= deadline)
        .max_by(|a, b| a.quality.total_cmp(&b.quality));
    let chosen = match best_fit {
        Some(e) => e,
        None => estimates
            .iter()
            .min_by_key(|e| e.cost)
            .expect("validated non-empty"),
    };
    Ok(ContractPlan {
        levels: vec![chosen.level],
        expected_cost: chosen.cost,
        expected_quality: chosen.quality,
    })
}

/// Plans a contract execution like [`plan_single_level`], but refuses the
/// deadline instead of falling back to the cheapest level when nothing
/// fits.
///
/// This is the admission-control flavour: a serving layer that already
/// knows a request's remaining budget wants "can any level make this
/// deadline?" answered honestly so it can reject fast, not a plan that is
/// guaranteed to miss.
///
/// # Errors
///
/// Returns [`CoreError::AdmissionRejected`] — carrying the cheapest
/// level's cost as the projection — when no level fits `deadline`, and
/// [`CoreError::InvalidConfig`] for the same malformed inputs
/// [`plan_single_level`] rejects.
pub fn plan_strict(estimates: &[LevelEstimate], deadline: Duration) -> crate::Result<ContractPlan> {
    validate(estimates)?;
    if !estimates.iter().any(|e| e.cost <= deadline) {
        let cheapest = estimates
            .iter()
            .map(|e| e.cost)
            .min()
            .expect("validated non-empty");
        return Err(CoreError::AdmissionRejected {
            projected: cheapest,
            budget: deadline,
        });
    }
    plan_single_level(estimates, deadline)
}

/// Plans a contract execution with interruption insurance: picks the best
/// final level that fits, then prepends the cheapest earlier levels that
/// still leave the final level affordable. If the run is cut short after
/// all, some valid output exists.
///
/// # Errors
///
/// As [`plan_single_level`].
pub fn plan_with_insurance(
    estimates: &[LevelEstimate],
    deadline: Duration,
) -> crate::Result<ContractPlan> {
    let final_plan = plan_single_level(estimates, deadline)?;
    let final_level = final_plan.levels[0];
    let mut budget = deadline.saturating_sub(final_plan.expected_cost);
    let mut warmups: Vec<&LevelEstimate> = Vec::new();
    // Greedily take the cheapest earlier levels that fit the slack.
    let mut earlier: Vec<&LevelEstimate> =
        estimates.iter().filter(|e| e.level < final_level).collect();
    earlier.sort_by_key(|e| e.cost);
    for e in earlier {
        if e.cost <= budget {
            budget -= e.cost;
            warmups.push(e);
        }
    }
    warmups.sort_by_key(|e| e.level);
    let mut levels: Vec<u64> = warmups.iter().map(|e| e.level).collect();
    levels.push(final_level);
    let expected_cost = final_plan.expected_cost + warmups.iter().map(|e| e.cost).sum::<Duration>();
    Ok(ContractPlan {
        levels,
        expected_cost,
        expected_quality: final_plan.expected_quality,
    })
}

/// Measures per-level cost estimates by executing each level of a
/// computation once on a calibration input.
///
/// `run_level(level)` executes one level end to end. The paper's contract
/// scheduling literature assumes such profiles are available; this is the
/// offline profiling step.
pub fn calibrate(
    levels: u64,
    quality: impl Fn(u64) -> f64,
    mut run_level: impl FnMut(u64),
) -> Vec<LevelEstimate> {
    (0..levels)
        .map(|level| {
            let start = std::time::Instant::now();
            run_level(level);
            LevelEstimate {
                level,
                cost: start.elapsed(),
                quality: quality(level),
            }
        })
        .collect()
}

fn validate(estimates: &[LevelEstimate]) -> crate::Result<()> {
    if estimates.is_empty() {
        return Err(CoreError::InvalidConfig(
            "contract planning needs at least one level estimate".into(),
        ));
    }
    if let Some(e) = estimates.iter().find(|e| e.cost.is_zero()) {
        return Err(CoreError::InvalidConfig(format!(
            "level {} has a zero cost estimate; a plannable level must take \
             nonzero time",
            e.level
        )));
    }
    if let Some(e) = estimates.iter().find(|e| e.quality.is_nan()) {
        return Err(CoreError::InvalidConfig(format!(
            "level {} has a NaN quality estimate",
            e.level
        )));
    }
    let mut sorted = estimates.to_vec();
    sorted.sort_by_key(|e| e.level);
    if sorted.windows(2).any(|w| w[1].quality < w[0].quality) {
        return Err(CoreError::InvalidConfig(
            "level qualities must be monotone non-decreasing".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimates() -> Vec<LevelEstimate> {
        vec![
            LevelEstimate {
                level: 0,
                cost: Duration::from_millis(10),
                quality: 5.0,
            },
            LevelEstimate {
                level: 1,
                cost: Duration::from_millis(25),
                quality: 12.0,
            },
            LevelEstimate {
                level: 2,
                cost: Duration::from_millis(60),
                quality: 20.0,
            },
            LevelEstimate {
                level: 3,
                cost: Duration::from_millis(140),
                quality: f64::INFINITY,
            },
        ]
    }

    #[test]
    fn picks_best_level_that_fits() {
        let plan = plan_single_level(&estimates(), Duration::from_millis(70)).unwrap();
        assert_eq!(plan.levels, vec![2]);
        assert_eq!(plan.expected_quality, 20.0);
        // A generous budget selects the precise level.
        let plan = plan_single_level(&estimates(), Duration::from_secs(1)).unwrap();
        assert_eq!(plan.levels, vec![3]);
        assert_eq!(plan.expected_quality, f64::INFINITY);
    }

    #[test]
    fn impossible_deadline_falls_back_to_cheapest() {
        let plan = plan_single_level(&estimates(), Duration::from_millis(1)).unwrap();
        assert_eq!(plan.levels, vec![0]);
    }

    #[test]
    fn insurance_prepends_affordable_warmups() {
        // Deadline 100ms: final level 2 (60ms) leaves 40ms slack — enough
        // for levels 0 (10) and 1 (25).
        let plan = plan_with_insurance(&estimates(), Duration::from_millis(100)).unwrap();
        assert_eq!(plan.levels, vec![0, 1, 2]);
        assert_eq!(plan.expected_cost, Duration::from_millis(95));
        // Tight deadline (62 ms): 2 ms of slack fits no warmup level.
        let plan = plan_with_insurance(&estimates(), Duration::from_millis(62)).unwrap();
        assert_eq!(plan.levels, vec![2]);
    }

    #[test]
    fn insurance_respects_deadline() {
        for ms in [5u64, 30, 70, 100, 200, 500] {
            let deadline = Duration::from_millis(ms);
            let plan = plan_with_insurance(&estimates(), deadline).unwrap();
            // Unless even the cheapest level exceeded the deadline, the
            // total plan must fit.
            if estimates().iter().any(|e| e.cost <= deadline) {
                assert!(
                    plan.expected_cost <= deadline,
                    "{ms}ms: plan {plan:?} exceeds deadline"
                );
            }
            // Plans always end with their highest level.
            assert_eq!(
                *plan.levels.last().unwrap(),
                plan.levels.iter().copied().max().unwrap()
            );
        }
    }

    #[test]
    fn rejects_bad_estimates() {
        assert!(plan_single_level(&[], Duration::from_millis(1)).is_err());
        let non_monotone = vec![
            LevelEstimate {
                level: 0,
                cost: Duration::from_millis(1),
                quality: 10.0,
            },
            LevelEstimate {
                level: 1,
                cost: Duration::from_millis(2),
                quality: 5.0,
            },
        ];
        assert!(plan_single_level(&non_monotone, Duration::from_millis(9)).is_err());
    }

    #[test]
    fn strict_plan_matches_single_level_when_something_fits() {
        let plan = plan_strict(&estimates(), Duration::from_millis(70)).unwrap();
        assert_eq!(
            plan,
            plan_single_level(&estimates(), Duration::from_millis(70)).unwrap()
        );
    }

    #[test]
    fn strict_plan_rejects_impossible_deadline() {
        match plan_strict(&estimates(), Duration::from_millis(1)) {
            Err(CoreError::AdmissionRejected { projected, budget }) => {
                assert_eq!(projected, Duration::from_millis(10));
                assert_eq!(budget, Duration::from_millis(1));
            }
            other => panic!("expected AdmissionRejected, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_cost_and_nan_quality() {
        let zero_cost = vec![LevelEstimate {
            level: 0,
            cost: Duration::ZERO,
            quality: 1.0,
        }];
        assert!(matches!(
            plan_single_level(&zero_cost, Duration::from_millis(5)),
            Err(CoreError::InvalidConfig(_))
        ));
        let nan_quality = vec![LevelEstimate {
            level: 0,
            cost: Duration::from_millis(1),
            quality: f64::NAN,
        }];
        assert!(matches!(
            plan_strict(&nan_quality, Duration::from_millis(5)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn calibrate_measures_each_level() {
        let mut runs = Vec::new();
        let est = calibrate(
            3,
            |l| l as f64,
            |l| {
                runs.push(l);
                std::thread::sleep(Duration::from_millis(2));
            },
        );
        assert_eq!(runs, vec![0, 1, 2]);
        assert_eq!(est.len(), 3);
        assert!(est.iter().all(|e| e.cost >= Duration::from_millis(1)));
        assert_eq!(est[2].quality, 2.0);
    }
}
