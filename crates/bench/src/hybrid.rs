//! Ablation: horizontal vs vertical vs hybrid scale-up (§7, \[56\]).
//!
//! Sweeps burst size past the VM's concurrency factor N and reports,
//! per strategy: served instances, mean/max start latency, host
//! footprint and VM count. The expected shape: vertical is cheapest but
//! capped at N; horizontal is uncapped but pays boot + replication per
//! instance; hybrid tracks vertical below N and degrades gracefully
//! above it, paying one clone per extra VM.

use faas::{absorb_burst, BurstOutcome, ScaleStrategy};
use sim_core::experiment::{run_experiment, ExpOpts, Experiment, TrialCtx};
use sim_core::{CostModel, TextTable};
use workloads::FunctionKind;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Function under test.
    pub kind: FunctionKind,
    /// Per-VM concurrency factor N.
    pub n_per_vm: u32,
    /// Burst sizes to sweep.
    pub bursts: Vec<u32>,
}

impl HybridConfig {
    /// Full-scale configuration: N=8, bursts to 3N.
    pub fn paper() -> Self {
        HybridConfig {
            kind: FunctionKind::Cnn,
            n_per_vm: 8,
            bursts: vec![4, 8, 12, 16, 24],
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        HybridConfig {
            kind: FunctionKind::Cnn,
            n_per_vm: 3,
            bursts: vec![2, 3, 6],
        }
    }
}

/// The `bursts × strategies` sweep on the engine; the burst model is
/// deterministic, so it clamps to one trial.
struct HybridExp<'a> {
    cfg: &'a HybridConfig,
}

impl Experiment for HybridExp<'_> {
    type Point = (u32, ScaleStrategy);
    type Output = BurstOutcome;

    fn points(&self) -> Vec<(u32, ScaleStrategy)> {
        self.cfg
            .bursts
            .iter()
            .flat_map(|&b| ScaleStrategy::ALL.into_iter().map(move |s| (b, s)))
            .collect()
    }

    fn run_trial(&self, &(burst, strategy): &Self::Point, _ctx: &mut TrialCtx) -> BurstOutcome {
        let cost = CostModel::default();
        absorb_burst(self.cfg.kind, strategy, self.cfg.n_per_vm, burst, &cost)
            .expect("host is unconstrained")
    }
}

/// Runs the sweep: one outcome per burst × strategy.
pub fn run(cfg: &HybridConfig) -> Vec<BurstOutcome> {
    run_with(cfg, &ExpOpts::default())
}

/// [`run`] with explicit engine options.
pub fn run_with(cfg: &HybridConfig, opts: &ExpOpts) -> Vec<BurstOutcome> {
    run_experiment(&HybridExp { cfg }, opts.effective_jobs())
        .into_iter()
        .map(|mut trials| trials.remove(0))
        .collect()
}

/// Renders the sweep as a text table.
pub fn render(cfg: &HybridConfig, rows: &[BurstOutcome]) -> String {
    let mut t = TextTable::new(&[
        "Burst",
        "Strategy",
        "Served",
        "MeanStart(ms)",
        "MaxStart(ms)",
        "Host(MiB)",
        "VMs",
    ]);
    for r in rows {
        t.row(vec![
            format!("{}", r.burst),
            r.strategy.name().to_string(),
            format!("{}", r.served),
            format!("{:.0}", r.mean_start_ms),
            format!("{:.0}", r.max_start_ms),
            format!("{:.0}", r.host_mib),
            format!("{}", r.vms),
        ]);
    }
    let mut out = format!(
        "Ablation: burst absorption, {} with concurrency N={} per VM (§7 [56])\n",
        cfg.kind.name(),
        cfg.n_per_vm,
    );
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_shape_holds() {
        let cfg = HybridConfig::quick();
        let rows = run(&cfg);
        let get = |burst: u32, s: ScaleStrategy| {
            *rows
                .iter()
                .find(|r| r.burst == burst && r.strategy == s)
                .unwrap()
        };
        // Below N: all serve everything; vertical == hybrid shape.
        let v = get(2, ScaleStrategy::Vertical);
        let h = get(2, ScaleStrategy::Hybrid);
        let o = get(2, ScaleStrategy::Horizontal);
        assert_eq!(v.served, 2);
        assert_eq!(h.served, 2);
        assert_eq!(o.served, 2);
        assert!(h.mean_start_ms < o.mean_start_ms);
        // Above N: vertical saturates, hybrid and horizontal serve all.
        let v = get(6, ScaleStrategy::Vertical);
        let h = get(6, ScaleStrategy::Hybrid);
        let o = get(6, ScaleStrategy::Horizontal);
        assert_eq!(v.served, 3);
        assert_eq!(h.served, 6);
        assert_eq!(o.served, 6);
        // Hybrid beats horizontal on both latency and memory.
        assert!(h.mean_start_ms < o.mean_start_ms);
        assert!(h.host_mib < o.host_mib);
        assert!(h.vms < o.vms);
    }

    #[test]
    fn render_includes_all_strategies() {
        let cfg = HybridConfig::quick();
        let s = render(&cfg, &run(&cfg));
        assert!(s.contains("vertical"));
        assert!(s.contains("horizontal"));
        assert!(s.contains("hybrid"));
    }
}
