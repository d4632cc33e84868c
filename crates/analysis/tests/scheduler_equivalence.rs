//! Property tests for the [`Scheduler`]: a scheduler **reused** across a
//! randomized multi-epoch request sequence must equal the one-shot
//! [`allocate`] call bit for bit, and every grant vector must honour the
//! contract documented on [`Scheduler::allocate`] — finite, non-negative
//! grants; `Σ grants ≤ max(capacity, Σ requests)`; no grant above its
//! request when the budget binds (Uniform: none above production); and
//! binding water-fill grants level at one common rate.
//!
//! The sequences model what a real fleet feeds the scheduler: most
//! controllers hold their rate between epochs (settled steady state,
//! evidence-free holds), a random minority moves, and capacity swings
//! between zero, slack, starvation and an uncapped budget. Reused and
//! one-shot grants must be *equal*, not "close": the lent order buffer is
//! a performance device and must never leak into results (the
//! byte-identical `--threads N` guarantee depends on it).
//!
//! [`Scheduler`]: sweetspot_analysis::fleetsim::scheduler::Scheduler
//! [`Scheduler::allocate`]: sweetspot_analysis::fleetsim::scheduler::Scheduler::allocate
//! [`allocate`]: sweetspot_analysis::fleetsim::scheduler::allocate

use proptest::prelude::*;
use sweetspot_analysis::fleetsim::scheduler::{allocate, SchedulerPolicy};

/// One epoch's churn: which devices move, to what, and the epoch capacity.
#[derive(Debug, Clone)]
struct EpochChurn {
    /// `(device index seed, new request)` — index is reduced modulo n.
    moves: Vec<(usize, f64)>,
    /// Epoch capacity (Hz): zero, unbounded, or drawn from `0..400`.
    capacity: f64,
}

fn churn_strategy() -> impl Strategy<Value = Vec<EpochChurn>> {
    prop::collection::vec(
        (
            prop::collection::vec((0usize..10_000, 0.0f64..20.0), 0..12),
            (0u8..4, 0.0f64..400.0).prop_map(|(pick, x)| match pick {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => x,
            }),
        ),
        1..30,
    )
    .prop_map(|epochs| {
        epochs
            .into_iter()
            .map(|(moves, capacity)| EpochChurn { moves, capacity })
            .collect()
    })
}

/// Relative tolerance for sums and levels, matching CI's budget check.
const TOL: f64 = 1e-9;

/// Asserts the grant contract of `Scheduler::allocate` for one epoch.
fn check_contract(
    policy: SchedulerPolicy,
    requests: &[f64],
    production: &[f64],
    capacity: f64,
    grants: &[f64],
) {
    assert_eq!(
        grants.len(),
        requests.len(),
        "{policy}: one grant per device"
    );
    assert!(
        grants.iter().all(|g| g.is_finite() && *g >= 0.0),
        "{policy}: grants must be finite and non-negative: {grants:?}"
    );
    let demand: f64 = requests.iter().sum();
    let granted: f64 = grants.iter().sum();
    assert!(
        granted <= capacity.max(demand) * (1.0 + TOL),
        "{policy}: granted {granted} over max(capacity {capacity}, demand {demand})"
    );
    let binding = demand > capacity;
    for i in 0..grants.len() {
        match policy {
            SchedulerPolicy::Uniform => assert!(
                grants[i] <= production[i],
                "uniform: device {i} granted {} above production {}",
                grants[i],
                production[i]
            ),
            _ if binding => assert!(
                grants[i] <= requests[i],
                "{policy}: device {i} granted {} above request {}",
                grants[i],
                requests[i]
            ),
            _ => {}
        }
    }
    if policy == SchedulerPolicy::WaterFill && binding {
        // Every unsatisfied device sits at one water level; every satisfied
        // device's request is at or below it.
        let unsatisfied: Vec<usize> = (0..grants.len())
            .filter(|&i| grants[i] < requests[i])
            .collect();
        let Some(&first) = unsatisfied.first() else {
            return;
        };
        let level = grants[first];
        let close = |a: f64, b: f64| (a - b).abs() <= TOL * a.abs().max(b.abs());
        for &i in &unsatisfied {
            let li = grants[i];
            assert!(
                close(li, level),
                "waterfill: device {i} at level {li}, not {level}"
            );
        }
        for i in (0..grants.len()).filter(|&i| grants[i] >= requests[i]) {
            let ri = requests[i];
            assert!(
                ri <= level || close(ri, level),
                "waterfill: satisfied device {i} has request {ri} above level {level}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stateful_matches_reference_over_request_sequences(
        n in 1usize..80,
        init in prop::collection::vec(0.0f64..20.0, 80..81),
        production_seed in prop::collection::vec(0.01f64..10.0, 80..81),
        churn in churn_strategy(),
    ) {
        let production = &production_seed[..n];
        let requests: Vec<f64> = init[..n].to_vec();
        for policy in SchedulerPolicy::ALL {
            let mut sched = policy.scheduler(production);
            let mut requests = requests.clone();
            let mut grants = Vec::new();
            let mut reference = Vec::new();
            for (epoch, step) in churn.iter().enumerate() {
                sched.allocate(&requests, step.capacity, &mut grants);
                allocate(policy, &requests, production, step.capacity, &mut reference);
                prop_assert_eq!(
                    &grants,
                    &reference,
                    "{} diverged from the reference at epoch {} (capacity {})",
                    policy,
                    epoch,
                    step.capacity
                );
                check_contract(policy, &requests, production, step.capacity, &grants);
                // Apply this epoch's churn; untouched requests stay
                // bit-identical, exactly like holding controllers.
                for &(i, value) in &step.moves {
                    requests[i % n] = value;
                }
            }
        }
    }
}
