//! Per-figure experiment drivers.
//!
//! One module per paper artifact; `cargo bench -p sweetspot-bench` (the
//! README's *Build, test, run* section) regenerates them all. Every driver
//! exposes a `run(...)` returning structured results with a `render()`
//! method producing the text figure. [`claims`] collects the quantitative
//! claims into one ledger, which a golden fixture pins in the test suite.

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
