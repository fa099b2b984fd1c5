//! Property tests for contract-mode planning: plans must respect
//! deadlines and pick maximal quality.

use anytime_core::contract::{plan_single_level, plan_strict, plan_with_insurance, LevelEstimate};
use anytime_core::CoreError;
use proptest::prelude::*;
use std::time::Duration;

fn arb_estimates() -> impl Strategy<Value = Vec<LevelEstimate>> {
    // Monotone non-decreasing qualities, arbitrary costs.
    prop::collection::vec((1u64..1000, 0.0f64..100.0), 1..10).prop_map(|raw| {
        let mut quality = 0.0;
        raw.into_iter()
            .enumerate()
            .map(|(level, (cost_ms, dq))| {
                quality += dq;
                LevelEstimate {
                    level: level as u64,
                    cost: Duration::from_millis(cost_ms),
                    quality,
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn single_level_plans_are_optimal_or_fallback(
        estimates in arb_estimates(),
        deadline_ms in 0u64..2000,
    ) {
        let deadline = Duration::from_millis(deadline_ms);
        let plan = plan_single_level(&estimates, deadline).unwrap();
        prop_assert_eq!(plan.levels.len(), 1);
        let chosen = plan.levels[0];
        let chosen_est = estimates.iter().find(|e| e.level == chosen).unwrap();
        if estimates.iter().any(|e| e.cost <= deadline) {
            // Fits, and nothing that fits has higher quality.
            prop_assert!(chosen_est.cost <= deadline);
            for e in &estimates {
                if e.cost <= deadline {
                    prop_assert!(e.quality <= chosen_est.quality);
                }
            }
        } else {
            // Fallback: cheapest level.
            let min_cost = estimates.iter().map(|e| e.cost).min().unwrap();
            prop_assert_eq!(chosen_est.cost, min_cost);
        }
    }

    #[test]
    fn insured_plans_respect_deadline_and_end_highest(
        estimates in arb_estimates(),
        deadline_ms in 0u64..3000,
    ) {
        let deadline = Duration::from_millis(deadline_ms);
        let plan = plan_with_insurance(&estimates, deadline).unwrap();
        prop_assert!(!plan.levels.is_empty());
        // Levels ascend and end at the maximum.
        for w in plan.levels.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        let last = *plan.levels.last().unwrap();
        prop_assert_eq!(last, plan.levels.iter().copied().max().unwrap());
        // If any level fits the deadline, the whole plan does.
        if estimates.iter().any(|e| e.cost <= deadline) {
            prop_assert!(plan.expected_cost <= deadline);
        }
        // The insured final quality equals the single-level plan's.
        let single = plan_single_level(&estimates, deadline).unwrap();
        prop_assert_eq!(plan.expected_quality, single.expected_quality);
    }

    #[test]
    fn strict_plans_never_exceed_budget(
        estimates in arb_estimates(),
        deadline_ms in 0u64..2000,
    ) {
        let deadline = Duration::from_millis(deadline_ms);
        match plan_strict(&estimates, deadline) {
            Ok(plan) => {
                // A strict plan never promises more than the budget: the
                // chosen level's cost — and thus the whole plan — fits.
                prop_assert!(plan.expected_cost <= deadline);
                prop_assert_eq!(&plan, &plan_single_level(&estimates, deadline).unwrap());
            }
            Err(CoreError::AdmissionRejected { projected, budget }) => {
                // Rejection is honest: nothing fits, and the projection is
                // exactly the cheapest level's cost.
                prop_assert!(estimates.iter().all(|e| e.cost > deadline));
                prop_assert_eq!(budget, deadline);
                prop_assert_eq!(
                    projected,
                    estimates.iter().map(|e| e.cost).min().unwrap()
                );
            }
            Err(other) => return Err(format!(
                "valid estimates produced unexpected error: {other}"
            )),
        }
    }

    #[test]
    fn degenerate_estimates_return_defined_errors(
        estimates in arb_estimates(),
        zero_at in 0usize..64,
        deadline_ms in 1u64..2000,
    ) {
        let deadline = Duration::from_millis(deadline_ms);
        // Empty level sets are InvalidConfig, never a panic or a plan.
        prop_assert!(matches!(
            plan_strict(&[], deadline),
            Err(CoreError::InvalidConfig(_))
        ));
        // Zeroing any one level's cost makes the whole profile invalid.
        let mut zeroed = estimates.clone();
        let idx = zero_at % zeroed.len();
        zeroed[idx].cost = Duration::ZERO;
        for plan in [plan_strict, plan_single_level, plan_with_insurance] {
            prop_assert!(matches!(
                plan(&zeroed, deadline),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        // As does a NaN quality.
        let mut nan = estimates;
        nan[idx].quality = f64::NAN;
        prop_assert!(matches!(
            plan_strict(&nan, deadline),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
