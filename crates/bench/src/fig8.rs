//! Figure 8: memory reclamation throughput (MiB/s) while the FaaS
//! runtime evicts function instances under realistic bursty load —
//! vanilla virtio-mem vs Squeezy, per function plus geomean.

use faas::{BackendKind, Deployment, FaasSim, SimConfig};
use sim_core::experiment::{mean_over, run_experiment, ExpOpts, Experiment, TrialCtx};
use sim_core::metrics::geomean;
use sim_core::{DetRng, TextTable};
use workloads::{bursty_arrivals, BurstyTraceConfig, FunctionKind};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig8Config {
    /// Trace duration per function.
    pub duration_s: f64,
    /// Per-function max concurrency.
    pub concurrency: u32,
    /// Keep-alive window (short enough to drive evictions in-trace).
    pub keepalive_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig8Config {
    /// Default (paper-shaped) configuration.
    pub fn paper() -> Self {
        Fig8Config {
            duration_s: 360.0,
            concurrency: 12,
            keepalive_s: 30.0,
            seed: 8,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig8Config {
            duration_s: 150.0,
            concurrency: 6,
            keepalive_s: 20.0,
            seed: 8,
        }
    }
}

/// One bar pair of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Row {
    /// Function.
    pub kind: FunctionKind,
    /// Vanilla virtio-mem reclamation throughput (MiB/s).
    pub virtio_mibs: f64,
    /// Squeezy reclamation throughput (MiB/s).
    pub squeezy_mibs: f64,
}

/// The `functions × backends` sweep on the engine. The trace stream is
/// derived from `(seed, function, trial)` only — NOT the backend — so
/// the two backends of a pair always face identical arrivals, and
/// trials average the throughput over independent traces.
struct Fig8Exp<'a> {
    cfg: &'a Fig8Config,
    trials: u32,
}

impl Experiment for Fig8Exp<'_> {
    type Point = (FunctionKind, BackendKind);
    type Output = f64;

    fn points(&self) -> Vec<(FunctionKind, BackendKind)> {
        FunctionKind::ALL
            .iter()
            .flat_map(|&k| [(k, BackendKind::VirtioMem), (k, BackendKind::Squeezy)])
            .collect()
    }

    fn trials(&self) -> u32 {
        self.trials
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_trial(&self, &(kind, backend): &Self::Point, ctx: &mut TrialCtx) -> f64 {
        // Pair the backends on one trace: derive from the function
        // index and trial, ignoring the point's backend half.
        let kind_idx = FunctionKind::ALL.iter().position(|&k| k == kind).unwrap() as u64;
        let mut rng = DetRng::new(self.cfg.seed)
            .derive(kind_idx)
            .derive(ctx.trial);
        run_one(kind, backend, self.cfg, &mut rng, ctx.trial)
    }
}

/// Runs each Table-1 function on its own N:1 VM under a bursty trace,
/// once per backend, and reports eviction-driven reclaim throughput
/// (averaged over trials).
pub fn run(cfg: &Fig8Config) -> Vec<Fig8Row> {
    run_with(cfg, &ExpOpts::default())
}

/// [`run`] with explicit engine options.
pub fn run_with(cfg: &Fig8Config, opts: &ExpOpts) -> Vec<Fig8Row> {
    let exp = Fig8Exp {
        cfg,
        trials: opts.trials,
    };
    let cells = run_experiment(&exp, opts.effective_jobs());
    FunctionKind::ALL
        .iter()
        .zip(cells.chunks(2))
        .map(|(&kind, pair)| Fig8Row {
            kind,
            virtio_mibs: mean_over(&pair[0], |&t| t),
            squeezy_mibs: mean_over(&pair[1], |&t| t),
        })
        .collect()
}

fn run_one(
    kind: FunctionKind,
    backend: BackendKind,
    cfg: &Fig8Config,
    rng: &mut DetRng,
    trial: u64,
) -> f64 {
    let arrivals = bursty_arrivals(
        &BurstyTraceConfig {
            duration_s: cfg.duration_s * 0.6,
            base_rps: 0.5,
            burst_rps: 8.0,
            mean_burst_s: 15.0,
            mean_idle_s: 25.0,
        },
        rng,
    );
    let sim_cfg = SimConfig {
        keepalive_s: cfg.keepalive_s,
        seed: cfg.seed,
        trial,
        ..SimConfig::single_vm(
            backend,
            Deployment {
                kind,
                concurrency: cfg.concurrency,
            },
            cfg.duration_s,
        )
    };
    let result = FaasSim::new(sim_cfg, vec![arrivals]).expect("boot").run();
    result.total_reclaims().throughput_mibs()
}

/// Renders the figure with per-function bars and the geomean.
pub fn render(rows: &[Fig8Row]) -> String {
    let mut t = TextTable::new(&["Function", "Virtio-mem(MiB/s)", "Squeezy(MiB/s)", "Speedup"]);
    for r in rows {
        t.row(vec![
            r.kind.name().to_string(),
            format!("{:.0}", r.virtio_mibs),
            format!("{:.0}", r.squeezy_mibs),
            format!("{:.1}x", r.squeezy_mibs / r.virtio_mibs.max(1e-9)),
        ]);
    }
    let v: Vec<f64> = rows.iter().map(|r| r.virtio_mibs).collect();
    let s: Vec<f64> = rows.iter().map(|r| r.squeezy_mibs).collect();
    let gv = geomean(&v);
    let gs = geomean(&s);
    t.row(vec![
        "Geomean".into(),
        format!("{gv:.0}"),
        format!("{gs:.0}"),
        format!("{:.1}x", gs / gv.max(1e-9)),
    ]);
    let mut out = String::from(
        "Figure 8: memory reclamation throughput while evicting instances under FaaS load\n",
    );
    out.push_str(&t.render());
    out.push_str("(paper: Squeezy achieves ~7x higher reclamation throughput on average)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeezy_throughput_dominates_every_function() {
        let rows = run(&Fig8Config::quick());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.virtio_mibs > 0.0 && r.squeezy_mibs > 0.0,
                "{}: evictions produced reclaims",
                r.kind.name()
            );
            assert!(
                r.squeezy_mibs > 2.0 * r.virtio_mibs,
                "{}: squeezy {:.0} vs virtio {:.0}",
                r.kind.name(),
                r.squeezy_mibs,
                r.virtio_mibs
            );
        }
    }

    #[test]
    fn render_includes_geomean() {
        let s = render(&run(&Fig8Config::quick()));
        assert!(s.contains("Geomean"));
        assert!(s.contains("Figure 8"));
    }
}
