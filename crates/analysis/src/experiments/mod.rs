//! Per-figure experiment drivers.
//!
//! One module per paper artifact. The examples print every figure, and
//! `tests/golden/example_*.txt` pins their stdout. The study-backed figures
//! ([`fig1`], [`fig4`], [`fig5`]) build from one [`crate::study::FleetStudy`]
//! with `from_study`, as does [`headline`]; the other drivers expose a
//! `run(...)`. Each returns structured results with a `render()` method
//! producing the text figure. [`claims`] collects the quantitative claims
//! into one ledger, which a golden fixture pins in the test suite.

pub mod claims;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod headline;
pub mod sweetspot;
