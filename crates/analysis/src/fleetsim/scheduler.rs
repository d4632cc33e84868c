//! Cross-device rate schedulers: how a shared collection budget is split
//! across the fleet's controllers each epoch.
//!
//! Every policy is a pure function from (requests, production rates,
//! capacity) to grants — no RNG, no time, no result-bearing shared state —
//! so the fleet simulation stays byte-identical for any thread count. A
//! [`Scheduler`] holds the fleet's fixed production rates plus one lent
//! `order` buffer that water-filling sorts into, so a warm epoch allocates
//! nothing. The buffer carries no result across epochs: water-filling
//! re-sorts every binding epoch from scratch.
//!
//! Capacity and grants live in **rate space** (Hz summed over devices): the
//! engine converts the operator's cost-unit budget with the
//! [`CostModel`](sweetspot_monitor::CostModel) unit price once per epoch and
//! hands schedulers plain numbers.

/// A cross-device scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// No budget: every controller gets exactly what it asks for. This is
    /// the per-device §4.2 controller, unchanged — the fleet baseline.
    Uncapped,
    /// Naive uniform throttling — today's operator response to budget
    /// pressure: every device is polled at the *same fraction of its
    /// production rate*, chosen to exhaust the budget. Controller requests
    /// are ignored; Nyquist knowledge is wasted.
    Uniform,
    /// Fair share: proportional throttling. When aggregate demand exceeds
    /// capacity, every request is scaled by the same factor, so each
    /// controller keeps its *relative* share.
    Fair,
    /// Max-min water-filling: cheap requests are fully satisfied, the
    /// remaining budget is spread level across the expensive ones.
    WaterFill,
}

impl SchedulerPolicy {
    /// All policies, in frontier-table order.
    pub const ALL: [SchedulerPolicy; 4] = [
        SchedulerPolicy::Uncapped,
        SchedulerPolicy::Uniform,
        SchedulerPolicy::Fair,
        SchedulerPolicy::WaterFill,
    ];

    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerPolicy::Uncapped => "uncapped",
            SchedulerPolicy::Uniform => "uniform",
            SchedulerPolicy::Fair => "fair",
            SchedulerPolicy::WaterFill => "waterfill",
        }
    }

    /// Parses a CLI name (case-insensitive).
    pub fn parse(name: &str) -> Option<SchedulerPolicy> {
        Self::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }

    /// Builds the [`Scheduler`] for this policy over a fixed fleet:
    /// `production` is per-device, in fleet order, and must not change
    /// between epochs (the fleet population is fixed for a run).
    pub fn scheduler(self, production: &[f64]) -> Scheduler {
        Scheduler {
            policy: self,
            production: production.to_vec(),
            order: Vec::new(),
        }
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes one epoch's grants in a single call: builds throwaway
/// [`Scheduler`] state and runs [`Scheduler::allocate`]. Loops should build
/// the scheduler once with [`SchedulerPolicy::scheduler`] instead.
///
/// # Panics
/// As [`SchedulerPolicy::scheduler`] and [`Scheduler::allocate`].
pub fn allocate(
    policy: SchedulerPolicy,
    requests: &[f64],
    production: &[f64],
    capacity: f64,
    grants: &mut Vec<f64>,
) {
    policy
        .scheduler(production)
        .allocate(requests, capacity, grants);
}

/// One run's scheduler: the policy, the fleet's fixed per-device
/// production rates, and the lent `order` buffer water-filling sorts into.
/// Built once per simulation, called once per epoch.
#[derive(Debug)]
pub struct Scheduler {
    /// The policy this scheduler runs.
    pub policy: SchedulerPolicy,
    production: Vec<f64>,
    order: Vec<usize>,
}

impl Scheduler {
    /// Computes per-device grants for one epoch.
    ///
    /// * `requests` — each controller's requested rate (Hz), in fleet order.
    /// * `capacity` — total grantable rate (Hz); `f64::INFINITY` disables
    ///   the budget.
    ///
    /// `grants` is cleared and refilled (recycled across epochs). Every
    /// grant is finite and non-negative. Every policy guarantees `Σ grants ≤
    /// max(capacity, Σ requests)` and, except [`Uniform`] (which ignores
    /// requests by design and never grants above `production[i]`),
    /// `grants[i] ≤ requests[i]` whenever the budget binds. Binding
    /// [`WaterFill`] grants sit at one common level for every unsatisfied
    /// device, with every satisfied device's request at or below it.
    ///
    /// # Panics
    /// Panics if `requests` disagrees in length with the fleet the
    /// scheduler was built for, holds non-finite/negative entries, or
    /// `capacity` is negative.
    ///
    /// [`Uniform`]: SchedulerPolicy::Uniform
    /// [`WaterFill`]: SchedulerPolicy::WaterFill
    pub fn allocate(&mut self, requests: &[f64], capacity: f64, grants: &mut Vec<f64>) {
        assert_eq!(
            requests.len(),
            self.production.len(),
            "request vector must match the fleet the scheduler was built for"
        );
        assert!(capacity >= 0.0, "capacity must be non-negative");
        assert!(
            requests.iter().all(|r| r.is_finite() && *r >= 0.0),
            "requests must be finite and non-negative"
        );
        grants.clear();
        let demand: f64 = requests.iter().sum();
        match self.policy {
            SchedulerPolicy::Uncapped => grants.extend_from_slice(requests),
            SchedulerPolicy::Uniform => {
                // One fleet-wide fraction of production polling; never
                // exceeds the production default (an operator cutting cost
                // does not poll *faster* than today).
                let prod_total: f64 = self.production.iter().sum();
                let fraction = if prod_total > 0.0 {
                    (capacity / prod_total).min(1.0)
                } else {
                    0.0
                };
                grants.extend(self.production.iter().map(|p| p * fraction));
            }
            SchedulerPolicy::Fair => {
                if demand <= capacity {
                    grants.extend_from_slice(requests);
                } else {
                    let scale = if demand > 0.0 { capacity / demand } else { 0.0 };
                    grants.extend(requests.iter().map(|r| r * scale));
                }
            }
            SchedulerPolicy::WaterFill => {
                if demand <= capacity {
                    grants.extend_from_slice(requests);
                } else {
                    water_fill(requests, capacity, &mut self.order, grants);
                }
            }
        }
    }
}

/// Max-min water-filling: find the level `L` such that
/// `Σ min(requests[i], L) = capacity`; each device is granted
/// `min(request, L)`. Devices whose request sits below the water level are
/// fully satisfied; the rest share the remainder level with the surplus of
/// the satisfied redistributed — the max-min fair allocation.
///
/// `order` is lent working storage: it is refilled and re-sorted on every
/// call, so nothing from an earlier epoch reaches the grants.
fn water_fill(requests: &[f64], capacity: f64, order: &mut Vec<usize>, grants: &mut Vec<f64>) {
    let n = requests.len();
    // Sort device indices by request (the order the water level passes
    // them). Ties break by index, so the comparator is a strict total
    // order: the unstable sort yields one permutation, deterministic and
    // allocation-free.
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by(|&a, &b| {
        requests[a]
            .partial_cmp(&requests[b])
            .expect("requests must be finite")
            .then(a.cmp(&b))
    });

    let mut level = 0.0f64; // current water level (rate)
    let mut remaining = capacity;
    grants.resize(n, 0.0);
    let mut cursor = 0;
    while cursor < n {
        let i = order[cursor];
        // Lifting the level to this request raises every device not yet
        // satisfied.
        let lift = (requests[i] - level) * (n - cursor) as f64;
        if lift > remaining {
            break;
        }
        // The level reaches this device's request: fully satisfied.
        remaining -= lift;
        level = requests[i];
        grants[i] = requests[i];
        cursor += 1;
    }
    if cursor < n {
        // Budget exhausted mid-lift: everyone still unsatisfied shares the
        // final level.
        level += remaining / (n - cursor) as f64;
        for &i in &order[cursor..] {
            grants[i] = level.min(requests[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(grants: &[f64]) -> f64 {
        grants.iter().sum()
    }

    fn alloc(policy: SchedulerPolicy, requests: &[f64], capacity: f64) -> Vec<f64> {
        let production = vec![1.0; requests.len()];
        let mut grants = Vec::new();
        allocate(policy, requests, &production, capacity, &mut grants);
        grants
    }

    #[test]
    fn uncapped_grants_everything() {
        let r = [3.0, 1.0, 0.5];
        let g = alloc(SchedulerPolicy::Uncapped, &r, 0.1);
        assert_eq!(g, r.to_vec());
    }

    #[test]
    fn fair_scales_proportionally_when_binding() {
        let r = [4.0, 2.0, 2.0];
        let g = alloc(SchedulerPolicy::Fair, &r, 4.0);
        assert!((total(&g) - 4.0).abs() < 1e-12);
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 1.0).abs() < 1e-12);
        // Non-binding budget: grants pass through.
        let g = alloc(SchedulerPolicy::Fair, &r, 100.0);
        assert_eq!(g, r.to_vec());
    }

    #[test]
    fn waterfill_satisfies_small_requests_first() {
        let r = [10.0, 1.0, 1.0];
        let g = alloc(SchedulerPolicy::WaterFill, &r, 6.0);
        assert!((total(&g) - 6.0).abs() < 1e-12);
        // Small requesters are made whole; the big one gets the remainder.
        assert!((g[1] - 1.0).abs() < 1e-12);
        assert!((g[2] - 1.0).abs() < 1e-12);
        assert!((g[0] - 4.0).abs() < 1e-12);
        // Fair, by contrast, would cut the small requesters to 0.5 each.
    }

    #[test]
    fn waterfill_is_max_min_fair() {
        // No device can gain without taking from a device with an equal or
        // smaller grant: all unsatisfied devices sit at the same level.
        let r = [8.0, 5.0, 3.0, 0.5];
        let g = alloc(SchedulerPolicy::WaterFill, &r, 7.5);
        assert!((total(&g) - 7.5).abs() < 1e-12);
        assert!((g[3] - 0.5).abs() < 1e-12, "cheap request fully met");
        // 7.0 left across three devices, level 7/3 < 3: all capped equally.
        for (i, grant) in g.iter().enumerate().take(3) {
            assert!((grant - 7.0 / 3.0).abs() < 1e-9, "device {i}: {grant}");
        }
    }

    #[test]
    fn uniform_ignores_requests_and_scales_production() {
        let r = [0.001, 0.001, 0.001]; // tiny adaptive demand
        let p = [1.0, 2.0, 1.0]; // production defaults
        let mut g = Vec::new();
        allocate(SchedulerPolicy::Uniform, &r, &p, 2.0, &mut g);
        // Budget = half the production total: every device at half its
        // production rate, demand be damned.
        assert_eq!(g, vec![0.5, 1.0, 0.5]);
        // Never above production even with slack budget.
        allocate(SchedulerPolicy::Uniform, &r, &p, 100.0, &mut g);
        assert_eq!(g, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn binding_budget_is_conserved_by_every_policy() {
        let r = [5.0, 0.25, 1.5, 3.0, 0.75];
        for policy in [
            SchedulerPolicy::Uniform,
            SchedulerPolicy::Fair,
            SchedulerPolicy::WaterFill,
        ] {
            let g = alloc(policy, &r, 2.0);
            assert!(total(&g) <= 2.0 + 1e-9, "{policy} overspent: {}", total(&g));
            assert!(total(&g) >= 2.0 * 0.999, "{policy} left budget unused");
        }
    }

    #[test]
    fn grants_never_exceed_requests_except_uniform() {
        let r = [5.0, 0.25, 1.5];
        for policy in [SchedulerPolicy::Fair, SchedulerPolicy::WaterFill] {
            for capacity in [0.5, 2.0, 100.0] {
                let g = alloc(policy, &r, capacity);
                for (gi, ri) in g.iter().zip(&r) {
                    assert!(gi <= &(ri + 1e-12), "{policy}@{capacity}: {gi} > {ri}");
                }
            }
        }
    }

    #[test]
    fn zero_capacity_grants_nothing() {
        let r = [1.0, 2.0];
        for policy in [
            SchedulerPolicy::Uniform,
            SchedulerPolicy::Fair,
            SchedulerPolicy::WaterFill,
        ] {
            let g = alloc(policy, &r, 0.0);
            assert!(total(&g).abs() < 1e-12, "{policy}: {g:?}");
        }
    }

    /// Deterministic xorshift for request-churn sequences (no rand dep).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn stateful_schedulers_match_reference_bitwise() {
        let n = 64;
        let mut state = 0x5EEDu64;
        let production: Vec<f64> = (0..n)
            .map(|_| 0.1 + (xorshift(&mut state) % 1000) as f64 / 100.0)
            .collect();
        let mut requests: Vec<f64> = (0..n)
            .map(|_| (xorshift(&mut state) % 10_000) as f64 / 700.0)
            .collect();
        for policy in SchedulerPolicy::ALL {
            let mut sched = policy.scheduler(&production);
            assert_eq!(sched.policy, policy);
            let mut grants = Vec::new();
            let mut reference = Vec::new();
            // Multi-epoch churn: most requests hold, a few move — the regime
            // of a settled fleet. Capacity sweeps from non-binding to
            // starved.
            for epoch in 0..40 {
                let capacity = match epoch % 4 {
                    0 => f64::INFINITY,
                    1 => 120.0,
                    2 => 17.5,
                    _ => 0.0,
                };
                sched.allocate(&requests, capacity, &mut grants);
                allocate(policy, &requests, &production, capacity, &mut reference);
                assert_eq!(
                    grants, reference,
                    "{policy} diverged at epoch {epoch} (capacity {capacity})"
                );
                // Churn ~10% of the fleet, with occasional ties and zeros.
                for _ in 0..(n / 10).max(1) {
                    let i = (xorshift(&mut state) as usize) % n;
                    requests[i] = match xorshift(&mut state) % 5 {
                        0 => 0.0,
                        1 => requests[(xorshift(&mut state) as usize) % n], // duplicate key
                        _ => (xorshift(&mut state) % 10_000) as f64 / 700.0,
                    };
                }
            }
        }
    }

    #[test]
    fn waterfill_incremental_survives_full_fleet_churn() {
        // Every request changes every epoch: the reused order buffer must
        // never carry one epoch's permutation into the next.
        let n = 33;
        let production = vec![1.0; n];
        let mut sched = SchedulerPolicy::WaterFill.scheduler(&production);
        let mut state = 0xC0FFEEu64;
        let mut grants = Vec::new();
        let mut reference = Vec::new();
        for epoch in 0..20 {
            let requests: Vec<f64> = (0..n)
                .map(|_| (xorshift(&mut state) % 1000) as f64 / 50.0)
                .collect();
            sched.allocate(&requests, 40.0, &mut grants);
            allocate(
                SchedulerPolicy::WaterFill,
                &requests,
                &production,
                40.0,
                &mut reference,
            );
            assert_eq!(grants, reference, "epoch {epoch}");
        }
    }

    #[test]
    fn stateful_buffers_are_recycled() {
        let n = 16;
        let production = vec![1.0; n];
        let requests: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let mut sched = SchedulerPolicy::WaterFill.scheduler(&production);
        let mut grants = Vec::with_capacity(n);
        sched.allocate(&requests, 10.0, &mut grants);
        let ptr = grants.as_ptr();
        sched.allocate(&requests, 12.0, &mut grants);
        assert_eq!(grants.as_ptr(), ptr, "grants buffer must be reused");
    }

    #[test]
    #[should_panic(expected = "must match the fleet")]
    fn stateful_rejects_wrong_fleet_size() {
        let mut sched = SchedulerPolicy::Fair.scheduler(&[1.0, 1.0]);
        let mut grants = Vec::new();
        sched.allocate(&[1.0, 2.0, 3.0], 1.0, &mut grants);
    }

    #[test]
    fn parse_round_trips_names() {
        for policy in SchedulerPolicy::ALL {
            assert_eq!(SchedulerPolicy::parse(policy.name()), Some(policy));
            assert_eq!(
                SchedulerPolicy::parse(&policy.name().to_uppercase()),
                Some(policy)
            );
        }
        assert_eq!(SchedulerPolicy::parse("bogus"), None);
    }

    #[test]
    fn waterfill_ties_break_by_index() {
        // Heavy ties on a fleet large enough that the unstable sort would
        // reorder equal keys without the index tie-break.
        let n = 200;
        let mut state = 0x71E5u64;
        let production = vec![1.0; n];
        let mut sched = SchedulerPolicy::WaterFill.scheduler(&production);
        let mut grants = Vec::new();
        for epoch in 0..3 {
            let requests: Vec<f64> = (0..n).map(|_| (xorshift(&mut state) % 4) as f64).collect();
            sched.allocate(&requests, total(&requests) * 0.5, &mut grants);
            let mut expected: Vec<usize> = (0..n).collect();
            // Stable sort on the key alone: equal keys keep index order.
            expected.sort_by(|&a, &b| requests[a].total_cmp(&requests[b]));
            assert_eq!(sched.order, expected, "epoch {epoch}");
        }
    }

    #[test]
    fn waterfill_never_grants_above_request_at_the_budget_edge() {
        // A budget one ulp short of demand: the last device's lift barely
        // fails, and the shared level lands on its request up to rounding.
        let mut state = 0xED6Eu64;
        for case in 0..200 {
            let n = 2 + (xorshift(&mut state) % 30) as usize;
            let requests: Vec<f64> = (0..n)
                .map(|_| (xorshift(&mut state) % 10_000) as f64 / 700.0)
                .collect();
            let demand = total(&requests);
            let capacity = f64::from_bits(demand.to_bits() - 1);
            let mut grants = Vec::new();
            let production = vec![1.0; n];
            allocate(
                SchedulerPolicy::WaterFill,
                &requests,
                &production,
                capacity,
                &mut grants,
            );
            for (i, (g, r)) in grants.iter().zip(&requests).enumerate() {
                assert!(g <= r, "case {case}, device {i}: grant {g} > request {r}");
            }
        }
    }
}
