//! Figure 2: instance churn of the 10 most popular functions over one
//! hour — thousands of creations and evictions per minute motivate agile
//! N:1 resizing.

use sim_core::experiment::{run_experiment, ExpOpts, Experiment, TrialCtx};
use sim_core::TextTable;
use workloads::{analyze_churn, zipf_function_traces, ChurnResult};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig2Config {
    /// Number of top functions analysed (paper: 10).
    pub functions: usize,
    /// Window length in seconds (paper: one hour).
    pub duration_s: f64,
    /// Aggregate request rate across the functions.
    pub total_rps: f64,
    /// Idle eviction window (paper: 5 minutes).
    pub keepalive_s: f64,
    /// Mean execution time per request.
    pub exec_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig2Config {
    /// Configuration matching the paper's analysis scale.
    pub fn paper() -> Self {
        Fig2Config {
            functions: 10,
            duration_s: 3600.0,
            total_rps: 400.0,
            keepalive_s: 300.0,
            exec_s: 1.0,
            seed: 2021,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig2Config {
            functions: 5,
            duration_s: 600.0,
            total_rps: 40.0,
            keepalive_s: 30.0,
            exec_s: 1.0,
            seed: 2021,
        }
    }
}

/// The churn analysis as a one-point sweep on the engine: the output is
/// a single per-minute timeline, so it clamps to one trial.
struct Fig2Exp<'a> {
    cfg: &'a Fig2Config,
}

impl Experiment for Fig2Exp<'_> {
    type Point = ();
    type Output = ChurnResult;

    fn points(&self) -> Vec<()> {
        vec![()]
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_trial(&self, _point: &(), ctx: &mut TrialCtx) -> ChurnResult {
        let cfg = self.cfg;
        let traces = zipf_function_traces(
            cfg.functions,
            cfg.duration_s,
            cfg.total_rps,
            1.0,
            &mut ctx.rng,
        );
        let exec = vec![cfg.exec_s; cfg.functions];
        analyze_churn(&traces, &exec, cfg.keepalive_s, cfg.duration_s)
    }
}

/// Runs the churn analysis over synthesized Azure-like traces.
pub fn run(cfg: &Fig2Config) -> ChurnResult {
    run_with(cfg, &ExpOpts::default())
}

/// [`run`] with explicit engine options.
pub fn run_with(cfg: &Fig2Config, opts: &ExpOpts) -> ChurnResult {
    run_experiment(&Fig2Exp { cfg }, opts.effective_jobs())
        .remove(0)
        .remove(0)
}

/// Renders per-minute creations/evictions.
pub fn render(result: &ChurnResult) -> String {
    let mut t = TextTable::new(&["Minute", "Creations", "Evictions"]);
    for (m, c) in result.per_minute.iter().enumerate() {
        t.row(vec![
            format!("{m}"),
            format!("{}", c.creations),
            format!("{}", c.evictions),
        ]);
    }
    let mut out = String::from(
        "Figure 2: instance creations/evictions per minute (top functions, synthetic Azure-like load)\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "total: {} creations, {} evictions; peak {} creations/min \
         (paper: thousands per minute at production scale)\n",
        result.total_creations(),
        result.total_evictions(),
        result.peak_creations()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_substantial_and_balanced() {
        let r = run(&Fig2Config::quick());
        assert!(r.total_creations() > 20, "{}", r.total_creations());
        // Evictions trail creations by at most the live pool at the end.
        assert!(r.total_evictions() <= r.total_creations());
        assert!(r.total_evictions() > r.total_creations() / 4);
    }

    #[test]
    fn paper_scale_reaches_hundreds_per_minute() {
        let r = run(&Fig2Config::paper());
        assert!(
            r.peak_creations() > 100,
            "peak {} creations/min",
            r.peak_creations()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&Fig2Config::quick());
        let b = run(&Fig2Config::quick());
        assert_eq!(a.total_creations(), b.total_creations());
        assert_eq!(a.per_minute.len(), b.per_minute.len());
    }
}
