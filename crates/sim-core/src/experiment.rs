//! The multi-trial, multi-point experiment runner.
//!
//! Every figure of the paper is a grid: sweep points (sizes,
//! utilizations, backends, functions) × repeated trials. [`run_grid`]
//! runs one closure per `(point, trial)` cell, each on its own
//! deterministic [`DetRng`] stream, serially or on a fixed number of
//! workers (`std::thread::scope`, a shared cursor over a fixed unit
//! list, no work stealing). Results are *bit-identical* for any worker
//! count: each cell's stream is derived purely from `(seed, point,
//! trial)` and outputs are reduced in index order, so thread count and
//! scheduling cannot leak into results. Each call states its seed and,
//! through [`ExpOpts::trials`], its trial count.
//!
//! ```
//! use sim_core::experiment::{run_grid, ExpOpts};
//!
//! let opts = ExpOpts::auto().with_trials(2);
//! let out = run_grid(&[1u64, 2, 3], 7, &opts, |&p, ctx| p * p + ctx.trial);
//! assert_eq!(out, vec![vec![1, 2], vec![4, 5], vec![9, 10]]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::DetRng;
use crate::stats::mean;

/// Runner options threaded from the CLI (`repro --jobs N --trials N`)
/// into every experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExpOpts {
    /// Worker threads sharding the `points × trials` grid. Results are
    /// bit-identical for every value; `0` means "all available cores".
    pub jobs: usize,
    /// Repeated trials per sweep point. Trial `t` of point `p` always
    /// sees the stream `root.derive(p).derive(t)`, so adding trials
    /// never perturbs earlier ones. Grids whose output is a single
    /// deterministic artifact (timelines, tables) run with
    /// `with_trials(1)`.
    pub trials: u32,
}

impl ExpOpts {
    /// One worker, one trial: the reference serial configuration.
    pub fn serial() -> Self {
        ExpOpts { jobs: 1, trials: 1 }
    }

    /// All available cores, one trial.
    pub fn auto() -> Self {
        ExpOpts { jobs: 0, trials: 1 }
    }

    /// Replaces the trial count.
    pub fn with_trials(self, trials: u32) -> Self {
        ExpOpts { trials, ..self }
    }

    /// Replaces the job count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        ExpOpts { jobs, ..self }
    }

    /// The effective worker count: `jobs`, or the machine's available
    /// parallelism when `jobs == 0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

impl Default for ExpOpts {
    /// Defaults to the serial configuration: the legacy `run()` entry
    /// points keep their single-threaded timing semantics (benches stay
    /// comparable across machines); parallelism is an explicit opt-in
    /// via [`ExpOpts::auto`] or [`ExpOpts::with_jobs`] (the `repro` CLI
    /// opts in).
    fn default() -> Self {
        ExpOpts::serial()
    }
}

/// Per-cell context handed to the [`run_grid`] closure.
pub struct TrialCtx {
    /// Index of the sweep point in the `points` slice.
    pub point: usize,
    /// Trial number within the point (`0..trials`).
    pub trial: u64,
    /// This cell's private deterministic stream:
    /// `DetRng::new(seed).derive(point).derive(trial)`. Never shared
    /// between cells, so parallel execution cannot perturb draws.
    pub rng: DetRng,
}

/// Runs `cell` on every `(point, trial)` of the grid, `opts.trials`
/// trials per point, on up to `opts.effective_jobs()` workers, and
/// returns, per point (in `points` order), the per-trial outputs (in
/// trial order). Bit-identical for every `jobs` value.
///
/// `cell` must depend only on its point and its [`TrialCtx`] (plus
/// captured read-only config), never on other cells' results or shared
/// mutable state, so that sharding is sound.
pub fn run_grid<P, O, F>(points: &[P], seed: u64, opts: &ExpOpts, cell: F) -> Vec<Vec<O>>
where
    P: Sync,
    O: Send,
    F: Fn(&P, &mut TrialCtx) -> O + Sync,
{
    let jobs = opts.effective_jobs();
    let trials = opts.trials.max(1) as usize;
    let units = points.len() * trials;
    let root = DetRng::new(seed);
    let unit = |i: usize| -> O {
        let (p, t) = (i / trials, i % trials);
        let mut ctx = TrialCtx {
            point: p,
            trial: t as u64,
            rng: root.derive(p as u64).derive(t as u64),
        };
        cell(&points[p], &mut ctx)
    };

    let mut flat: Vec<Option<O>> = Vec::with_capacity(units);
    if jobs <= 1 || units <= 1 {
        // Serial reference path: plain loop in index order.
        for i in 0..units {
            flat.push(Some(unit(i)));
        }
    } else {
        // Parallel path: a fixed unit list and a shared cursor. Each
        // worker claims the next unassigned cell and writes it into
        // its slot; no work stealing, no shared RNG, and the ordered
        // reduction below is independent of completion order.
        let slots: Vec<Mutex<Option<O>>> = (0..units).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(units) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    let out = unit(i);
                    *slots[i].lock().expect("no panics while holding the slot") = Some(out);
                });
            }
        });
        for slot in slots {
            flat.push(slot.into_inner().expect("worker scope joined"));
        }
    }

    // Ordered reduction: regroup the flat unit list per point.
    let mut grouped: Vec<Vec<O>> = Vec::with_capacity(points.len());
    for chunk in &mut flat.chunks_mut(trials) {
        grouped.push(
            chunk
                .iter_mut()
                .map(|o| o.take().expect("every unit ran"))
                .collect(),
        );
    }
    grouped
}

/// Mean of one metric over per-trial outputs (0 when empty).
pub fn mean_over<O, F: Fn(&O) -> f64>(outputs: &[O], metric: F) -> f64 {
    let samples: Vec<f64> = outputs.iter().map(metric).collect();
    mean(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy stochastic grid: every cell draws from its private
    /// stream, so any cross-cell interference or RNG sharing would
    /// change results between serial and parallel runs.
    fn toy(trials: u32, jobs: usize) -> Vec<Vec<Vec<u64>>> {
        let points: Vec<u64> = (0..7).collect();
        let opts = ExpOpts { jobs, trials };
        run_grid(&points, 0xE47, &opts, |&point, ctx| {
            (0..64).map(|_| ctx.rng.range(0, 1 << 32) ^ point).collect()
        })
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = toy(5, 1);
        for jobs in [2, 3, 8, 64] {
            let parallel = toy(5, jobs);
            assert_eq!(serial, parallel, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn grid_shape_and_ordering() {
        let out = toy(3, 4);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|trials| trials.len() == 3));
        // Distinct cells get distinct streams.
        assert_ne!(out[0][0], out[0][1]);
        assert_ne!(out[0][0], out[1][0]);
    }

    #[test]
    fn adding_trials_preserves_earlier_ones() {
        let three = toy(3, 2);
        let five = toy(5, 2);
        for (p3, p5) in three.iter().zip(five.iter()) {
            assert_eq!(p3.as_slice(), &p5[..3]);
        }
    }

    #[test]
    fn mean_over_extracts_then_averages() {
        let outs = [(1.0, 'a'), (2.0, 'b'), (6.0, 'c')];
        assert_eq!(mean_over(&outs, |o| o.0), 3.0);
        assert_eq!(mean_over(&[] as &[(f64, char)], |o| o.0), 0.0);
    }

    #[test]
    fn opts_builders() {
        let o = ExpOpts::serial().with_trials(4).with_jobs(2);
        assert_eq!(o.trials, 4);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.effective_jobs(), 2);
        assert!(ExpOpts::auto().effective_jobs() >= 1);
    }
}
