//! The repository benchmark, as a library so its own tests can drive
//! single runs in-process. `src/main.rs` is the command; `README.md`
//! says what each workload and metric is for.

pub mod mem;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;
