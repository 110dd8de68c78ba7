//! The benchmark harness: one module per table/figure of the paper.
//!
//! Every module exposes a `Config` with `paper()` (full scale) and
//! `quick()` (CI scale) presets, a `run()` driver returning structured
//! results, and a `render()` that prints the same rows/series the paper
//! reports. The `repro` binary regenerates everything:
//!
//! ```text
//! cargo run --release -p squeezy-bench --bin repro -- all
//! ```
//!
//! The fleet-level extensions beyond the paper — the routing × backend
//! grid and the autoscale-policy × backend grid — are not modules here
//! but committed spec files, `examples/scenarios/cluster_grid.scn` and
//! `fleet_grid.scn`, which `repro cluster` and `repro fleet` run through
//! `faas::SweepSpec::run` like any other spec.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fpr;
pub mod hybrid;
pub mod perf;
pub mod setup;
pub mod soft;
pub mod table1;
pub mod temporal;
pub mod thp;
