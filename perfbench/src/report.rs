//! Turns the replays of one benchmark run into its reported metrics.
//!
//! A run on one seed is a series of rounds. A round replays each of the
//! workload's replay seeds once in a fresh process ([`Replay::k`]),
//! plain, or plain then traced. Simulated figures repeat exactly for a
//! replay seed (checked by [`consistent`]), so they are pooled over the
//! first round. Host-time figures are totals over a round's replays,
//! reported as the median over rounds; per-process figures (set-up,
//! memory) are medians over every plain replay. Span figures come from
//! the traced replays only.

use crate::run::Sample;

/// One replay of a run: the replay seed index `k`, its round, and what
/// it measured.
pub struct Replay {
    pub k: usize,
    pub round: usize,
    pub sample: Sample,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("figures are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of sorted, non-empty `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    xs[((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len()) - 1]
}

/// Checks that every replay of one replay seed reproduces the same
/// simulated outcome, traced or not; `Err` names the first difference.
pub fn consistent(replays: &[Replay]) -> Result<(), String> {
    for r in replays {
        let first = &replays
            .iter()
            .find(|f| f.k == r.k)
            .expect("r itself")
            .sample;
        if r.sample.digest != first.digest {
            return Err(format!(
                "replay {} of round {} digests to {:#x}, an earlier one to {:#x}",
                r.k, r.round, r.sample.digest, first.digest
            ));
        }
        for ((name, a), (_, b)) in first.simulated().into_iter().zip(r.sample.simulated()) {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "replay {} of round {}: {name} = {b}, an earlier one had {a}",
                    r.k, r.round
                ));
            }
        }
    }
    Ok(())
}

/// The replays of a run, viewed by round and by kind.
struct Run<'a> {
    replays: &'a [Replay],
    rounds: usize,
}

impl<'a> Run<'a> {
    fn new(replays: &'a [Replay]) -> Run<'a> {
        let rounds = replays.iter().map(|r| r.round + 1).max().unwrap_or(0);
        Run { replays, rounds }
    }

    fn select(&self, round: Option<usize>, traced: bool) -> Vec<&'a Sample> {
        self.replays
            .iter()
            .filter(|r| round.is_none_or(|n| r.round == n) && r.sample.traced() == traced)
            .map(|r| &r.sample)
            .collect()
    }

    /// The first round's plain replays: one per replay seed.
    fn pool(&self) -> Vec<&'a Sample> {
        self.select(Some(0), false)
    }

    /// Sum of `name` over the first round's plain replays.
    fn total(&self, name: &str) -> f64 {
        self.pool().iter().map(|s| s.get(name)).sum()
    }

    /// Median over every plain replay of `name`.
    fn median_plain(&self, name: &str) -> f64 {
        median(
            self.select(None, false)
                .iter()
                .map(|s| s.get(name))
                .collect(),
        )
    }

    /// Median over rounds of `f` applied to the round's plain and
    /// traced replays.
    fn per_round(&self, f: impl Fn(&[&Sample], &[&Sample]) -> f64) -> f64 {
        median(
            (0..self.rounds)
                .map(|n| f(&self.select(Some(n), false), &self.select(Some(n), true)))
                .collect(),
        )
    }

    /// The pooled latency sample, sorted.
    fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .pool()
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        all
    }
}

fn sum(samples: &[&Sample], name: &str) -> f64 {
    samples.iter().map(|s| s.get(name)).sum()
}

/// Checks that need the pooled first round: the latency sample leaves
/// at least ten samples beyond the p99.
pub fn check_pool(replays: &[Replay]) -> Result<(), String> {
    let n = Run::new(replays).latencies().len();
    if n < 1000 {
        return Err(format!(
            "{n} latency samples leave fewer than 10 beyond the p99"
        ));
    }
    Ok(())
}

/// The end-to-end metrics.
pub fn end_to_end(replays: &[Replay]) -> Vec<Metric> {
    let run = Run::new(replays);
    let lat = run.latencies();
    let pool = run.pool();
    vec![
        metric("setup_s", "s", run.median_plain("setup_s")),
        metric(
            "invocations_per_s",
            "1/s",
            run.per_round(|plain, _| sum(plain, "completed") / sum(plain, "run_s")),
        ),
        metric("peak_rss_mib", "MiB", run.median_plain("peak_rss_mib")),
        metric("sim_p50_ms", "sim-ms", quantile(&lat, 0.50)),
        metric("sim_p99_ms", "sim-ms", quantile(&lat, 0.99)),
        metric(
            "sim_cold_frac",
            "frac",
            run.total("cold") / run.total("completed"),
        ),
        metric(
            "sim_reclaim_ms_per_gib",
            "sim-ms/GiB",
            run.total("reclaim_sim_s") * 1e3 / run.total("reclaim_gib"),
        ),
        metric(
            "sim_footprint_gib_s",
            "GiB.sim-s",
            run.total("footprint_gib_s") / pool.len() as f64,
        ),
        metric(
            "sim_host_hours",
            "host-h",
            run.total("host_hours") / pool.len() as f64,
        ),
        metric(
            "sim_slo_viol_frac",
            "frac",
            run.total("slo_violations") / run.total("slo_total"),
        ),
    ]
}

/// The per-layer metrics.
pub fn per_layer(replays: &[Replay]) -> Vec<Metric> {
    let run = Run::new(replays);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hosts = run.pool()[0].get("initial_hosts");
    let build_s = run.median_plain("build_s");
    let build_rss = run.median_plain("build_rss_mib");
    let events = run.total("events");
    let events_per_s = run.per_round(|plain, _| sum(plain, "events") / sum(plain, "run_s"));
    let span = |layer: &str| {
        let calls = format!("span.{layer}.calls");
        let secs = format!("span.{layer}.s");
        let calls: f64 = run
            .select(Some(0), true)
            .iter()
            .map(|s| s.get(&calls))
            .sum();
        (calls, run.per_round(|_, traced| sum(traced, &secs)))
    };
    let (route_calls, route_s) = span("route");
    let (decide_calls, decide_s) = span("decide");
    let (next_calls, next_s) = span("next_arrival");
    let run_self_s = run.per_round(|_, traced| {
        sum(traced, "run_s")
            - sum(traced, "span.route.s")
            - sum(traced, "span.decide.s")
            - sum(traced, "span.next_arrival.s")
    });
    let peak_queue_depth = run
        .pool()
        .iter()
        .map(|s| s.get("peak_queue_depth"))
        .fold(0.0, f64::max);
    let reclaim_gib = run.total("reclaim_gib");
    vec![
        metric("engine.events", "count", events),
        metric("engine.peak_queue_depth", "count", peak_queue_depth),
        metric("engine.events_per_s", "1/s", events_per_s),
        metric("engine.ns_per_event", "ns", 1e9 / events_per_s),
        metric("faas.build_s", "s", build_s),
        metric("faas.build_s_per_host", "s", build_s / hosts),
        metric("faas.build_rss_mib", "MiB", build_rss),
        metric("faas.build_rss_mib_per_host", "MiB", build_rss / hosts),
        metric("faas.run_self_s", "s", run_self_s),
        metric("faas.cold_starts", "count", run.total("cold")),
        metric("faas.warm_starts", "count", run.total("warm")),
        metric("faas.deferred", "count", run.total("deferred")),
        metric("reclaim.ops", "count", run.total("reclaim_ops")),
        metric("reclaim.gib", "GiB", reclaim_gib),
        metric("reclaim.sim_s", "sim-s", run.total("reclaim_sim_s")),
        metric(
            "reclaim.pages_migrated",
            "count",
            run.total("pages_migrated"),
        ),
        metric(
            "reclaim.migrated_pages_per_gib",
            "pages/GiB",
            per(run.total("pages_migrated"), reclaim_gib),
        ),
        metric(
            "reclaim.shortfall_frac",
            "frac",
            per(run.total("shortfalls"), run.total("reclaim_ops")),
        ),
        metric("workloads.generate_s", "s", run.median_plain("generate_s")),
        metric("workloads.arrivals", "count", run.total("injected")),
        metric("workloads.next_arrival.calls", "count", next_calls),
        metric("workloads.next_arrival.self_s", "s", next_s),
        metric(
            "workloads.next_arrival.ns_per_call",
            "ns",
            per(next_s * 1e9, next_calls),
        ),
        metric("router.route.calls", "count", route_calls),
        metric("router.route.self_s", "s", route_s),
        metric(
            "router.route.ns_per_call",
            "ns",
            per(route_s * 1e9, route_calls),
        ),
        metric("fleet.decide.calls", "count", decide_calls),
        metric("fleet.decide.self_s", "s", decide_s),
        metric(
            "fleet.decide.us_per_call",
            "us",
            per(decide_s * 1e6, decide_calls),
        ),
        metric("fleet.hosts_booted", "count", run.total("scale_ups")),
        metric("fleet.lost", "count", run.total("lost")),
        metric("sim.latency_samples", "count", run.latencies().len() as f64),
        metric("sim.latency_seen", "count", run.total("completed")),
        metric(
            "tracing.overhead_frac",
            "frac",
            run.per_round(|plain, traced| sum(traced, "run_s") / sum(plain, "run_s") - 1.0),
        ),
    ]
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics by name with their units.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(digest: u64, completed: f64) -> Sample {
        Sample {
            digest,
            values: Sample::NAMES
                .iter()
                .map(|&n| {
                    (
                        n.to_string(),
                        if n == "completed" { completed } else { 0.0 },
                    )
                })
                .collect(),
            latencies: Vec::new(),
        }
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((quantile(&xs, 0.5), quantile(&xs, 0.99)), (50.0, 99.0));
    }

    #[test]
    fn consistency_compares_replays_of_one_seed_only() {
        let replay = |k, round, sample| Replay { k, round, sample };
        let same_seed = [replay(0, 0, sample(1, 5.0)), replay(0, 1, sample(1, 5.0))];
        assert_eq!(consistent(&same_seed), Ok(()));
        let two_seeds = [replay(0, 0, sample(1, 5.0)), replay(1, 0, sample(2, 6.0))];
        assert_eq!(consistent(&two_seeds), Ok(()));
        let drifted = [replay(0, 0, sample(1, 5.0)), replay(0, 1, sample(2, 5.0))];
        assert!(consistent(&drifted).is_err(), "digest drift");
        let recounted = [replay(0, 0, sample(1, 5.0)), replay(0, 1, sample(1, 6.0))];
        assert!(consistent(&recounted).unwrap_err().contains("completed"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[metric("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
