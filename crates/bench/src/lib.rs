//! Shared criterion configurations for the benches in `benches/`.
//!
//! The benches time the code. Only `headline_stats` prints anything first:
//! the paper-claims ledger, pinned by `tests/golden/claims.txt`. The paper's
//! figures are printed by the examples (`aliasing_demo`: Figures 2–3;
//! `datacenter_study`: Figures 1, 4 and 5; `adaptive_temperature`: Figures
//! 6–7; `sweet_spot`), whose stdout is pinned in `tests/golden/`.

use std::time::Duration;

/// Criterion configuration for experiment-scale benchmarks (a study or a
/// fleet run per iteration): few samples, short measurement windows.
pub fn experiment_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args()
}

/// Criterion configuration for DSP kernel microbenchmarks.
pub fn kernel_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .configure_from_args()
}
