//! The benchmark harness: one module per table/figure of the paper.
//!
//! A figure module exposes a `Config` with `paper()` (full scale) and
//! `quick()` (CI scale) presets (Figure 11 and the soft-memory and
//! temporal ablations have nothing to scale and take none), a `run()`
//! driver returning structured results, `run_with()` taking the runner
//! options, and a `render()` that prints the same rows/series the paper
//! reports. Each driver is one or two `sim_core::experiment::run_grid`
//! calls: the grid's points are a slice, one `(point, trial)` cell is a
//! closure, and the call states its seed and trial count. `setup` holds
//! the shared memhog farms; `perf` holds the drumbeat the repository
//! benchmark (`perfbench/`) replays. The `repro` binary regenerates
//! everything from one table of targets:
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
