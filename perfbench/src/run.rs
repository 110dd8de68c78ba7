//! One replay: set up, run the fleet, check its outputs, and record
//! the raw figures a report is computed from.

use std::time::Instant;

use faas::cluster::LATENCY_RESERVOIR_CAP;
use faas::fleet::FleetResult;
use faas::ReclaimTotals;
use sim_core::Fnv1a;

use crate::workload::{prepare, Scale, Spans, Workload};

/// The raw figures of one replay, by name, the latency sample it kept,
/// and the digest of its simulated outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub digest: u64,
    /// Every name of [`Sample::NAMES`], in that order.
    pub values: Vec<(String, f64)>,
    /// The fleet's uniform latency sample (ms), sorted.
    pub latencies: Vec<f64>,
}

impl Sample {
    /// Every figure a sample carries. Host time and memory come first,
    /// then the simulated outcome from `injected` on, then the spans,
    /// which are zero in a plain replay.
    pub const NAMES: [&'static str; 33] = [
        "setup_s",
        "generate_s",
        "build_s",
        "run_s",
        "build_rss_mib",
        "peak_rss_mib",
        "injected",
        "completed",
        "lost",
        "unserved",
        "cold",
        "warm",
        "deferred",
        "events",
        "peak_queue_depth",
        "initial_hosts",
        "scale_ups",
        "reclaim_ops",
        "reclaim_gib",
        "reclaim_sim_s",
        "pages_migrated",
        "shortfalls",
        "slo_violations",
        "slo_total",
        "footprint_gib_s",
        "host_hours",
        "span.route.calls",
        "span.route.s",
        "span.decide.calls",
        "span.decide.s",
        "span.next_arrival.calls",
        "span.next_arrival.s",
        "traced",
    ];

    /// The named figure.
    ///
    /// # Panics
    ///
    /// Panics if the sample has no such figure.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("sample has no {name:?}"))
    }

    pub fn traced(&self) -> bool {
        self.get("traced") == 1.0
    }

    /// The figures that repeat exactly across replays of one seed,
    /// traced or not: the simulated outcome.
    pub fn simulated(&self) -> Vec<(&str, f64)> {
        let first = Sample::NAMES.iter().position(|&n| n == "injected");
        let last = Sample::NAMES.iter().position(|&n| n == "host_hours");
        let (first, last) = (first.expect("listed"), last.expect("listed"));
        Sample::NAMES[first..=last]
            .iter()
            .map(|&n| (n, self.get(n)))
            .collect()
    }

    /// Renders the sample as `name value` lines: `digest` first, then
    /// the figures, then the latency sample on one line.
    pub fn render(&self) -> String {
        let mut out = format!("digest {}\n", self.digest);
        for (n, v) in &self.values {
            out.push_str(&format!("{n} {v}\n"));
        }
        let lat: Vec<String> = self.latencies.iter().map(f64::to_string).collect();
        out.push_str(&format!("latencies {}\n", lat.join(" ")));
        out
    }

    /// Parses [`Sample::render`]'s output, requiring every name.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut sample = Sample {
            digest: 0,
            values: Vec::new(),
            latencies: Vec::new(),
        };
        let num = |name: &str, v: &str| -> Result<f64, String> {
            v.parse().map_err(|e| format!("{name} {v:?}: {e}"))
        };
        let mut has_digest = false;
        for line in text.lines() {
            let (name, rest) = line.split_once(' ').unwrap_or((line, ""));
            match name {
                "digest" => {
                    sample.digest = rest.parse().map_err(|e| format!("digest {rest:?}: {e}"))?;
                    has_digest = true;
                }
                "latencies" => {
                    for v in rest.split_whitespace() {
                        sample.latencies.push(num(name, v)?);
                    }
                }
                _ => sample.values.push((name.to_string(), num(name, rest)?)),
            }
        }
        if !has_digest {
            return Err("sample has no digest".into());
        }
        let names: Vec<&str> = sample.values.iter().map(|(n, _)| n.as_str()).collect();
        if names != Sample::NAMES {
            return Err(format!(
                "sample figures {names:?} are not {:?}",
                Sample::NAMES
            ));
        }
        Ok(sample)
    }
}

/// Sets up and runs one replay of `workload` on `seed`, checks its
/// outputs, and returns its figures; `Err` lists every failed check.
pub fn run_once(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<Sample, String> {
    let prepared = prepare(workload, seed, scale, traced);
    let t0 = Instant::now();
    let out = prepared.sim.run();
    let run_s = t0.elapsed().as_secs_f64();
    let peak_rss_mib = crate::mem::peak_rss_mib();

    let routed: u64 = out.routed.iter().flatten().sum();
    let (cold, warm) = out.cold_warm_starts();
    // Crashes are off, so nothing in flight is lost: whatever reached a
    // host and did not complete is still unserved.
    let unserved = routed.saturating_sub(out.completed);
    let reclaim = out.hosts.iter().map(|h| h.result.total_reclaims()).fold(
        ReclaimTotals::default(),
        |mut acc, r| {
            acc.bytes += r.bytes;
            acc.wall += r.wall;
            acc.ops += r.ops;
            acc.shortfalls += r.shortfalls;
            acc.pages_migrated += r.pages_migrated;
            acc
        },
    );
    let mut latencies: Vec<f64> = out.latency_over_time.points().iter().map(|p| p.1).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let plain = Spans::default();
    let spans = prepared.spans.as_ref().unwrap_or(&plain);

    let mut errors = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            errors.push(msg);
        }
    };
    check(
        out.crashes == 0,
        format!("{} crashes with failures off", out.crashes),
    );
    check(
        routed >= out.completed,
        format!("completed {} > routed {routed}", out.completed),
    );
    check(
        out.completed + out.lost + unserved == out.injected,
        format!(
            "completed {} + lost {} + unserved {unserved} != injected {}",
            out.completed, out.lost, out.injected
        ),
    );
    check(
        cold + warm == out.completed,
        format!("cold {cold} + warm {warm} != completed {}", out.completed),
    );
    check(
        out.latency_over_time.seen() == out.completed,
        format!(
            "latency reservoir saw {} of {} completions",
            out.latency_over_time.seen(),
            out.completed
        ),
    );
    check(
        out.lost == 0 && unserved == 0,
        format!("{} lost and {unserved} unserved requests", out.lost),
    );
    match workload {
        Workload::Warm => check(
            (cold as f64) < 0.01 * out.completed as f64,
            format!(
                "{cold} of {} warm-workload requests were cold",
                out.completed
            ),
        ),
        Workload::Trace => {
            check_bounded(&out, &mut check);
            check(reclaim.ops > 0, "trace workload never reclaimed".into());
            check(
                reclaim.pages_migrated == 0,
                format!("Squeezy migrated {} pages", reclaim.pages_migrated),
            );
        }
        Workload::Churn => check(
            reclaim.pages_migrated > 0,
            "virtio-mem churn migrated no pages".into(),
        ),
    }
    if traced {
        check(
            spans.route.calls() == routed,
            format!("{} route calls for {routed} routed", spans.route.calls()),
        );
        // The feed pulls one arrival past the last one it injects.
        let expect_next = if workload == Workload::Trace {
            out.injected + 1
        } else {
            0
        };
        check(
            spans.next_arrival.calls() == expect_next,
            format!(
                "{} next_arrival calls for {} injected",
                spans.next_arrival.calls(),
                out.injected
            ),
        );
    }
    if !errors.is_empty() {
        return Err(format!(
            "{} replay on seed {seed} failed its checks:\n  {}",
            workload.key(),
            errors.join("\n  ")
        ));
    }

    let values = [
        prepared.setup_s,
        prepared.generate_s,
        prepared.build_s,
        run_s,
        prepared.build_rss_mib,
        peak_rss_mib,
        out.injected as f64,
        out.completed as f64,
        out.lost as f64,
        unserved as f64,
        cold as f64,
        warm as f64,
        out.deferred as f64,
        out.events_processed as f64,
        out.peak_queue_depth as f64,
        prepared.initial_hosts as f64,
        out.scale_ups as f64,
        reclaim.ops as f64,
        reclaim.bytes as f64 / (1u64 << 30) as f64,
        reclaim.wall.as_secs_f64(),
        reclaim.pages_migrated as f64,
        reclaim.shortfalls as f64,
        out.slo_violations as f64,
        out.slo_total as f64,
        out.total_gib_seconds(),
        out.host_hours(),
        spans.route.calls() as f64,
        spans.route.secs(),
        spans.decide.calls() as f64,
        spans.decide.secs(),
        spans.next_arrival.calls() as f64,
        spans.next_arrival.secs(),
        if traced { 1.0 } else { 0.0 },
    ];
    Ok(Sample {
        digest: digest(&out),
        values: Sample::NAMES
            .iter()
            .zip(values)
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        latencies,
    })
}

/// The streamed-metrics caps of a trace replay: the fleet reservoir and
/// every per-function histogram stay within [`LATENCY_RESERVOIR_CAP`],
/// and no host records a usage time series.
fn check_bounded(out: &FleetResult, check: &mut impl FnMut(bool, String)) {
    check(
        out.latency_over_time.len() <= LATENCY_RESERVOIR_CAP,
        format!("fleet reservoir holds {}", out.latency_over_time.len()),
    );
    for (i, h) in out.hosts.iter().enumerate() {
        for (kind, m) in &h.result.per_func {
            check(
                m.latency.count() <= LATENCY_RESERVOIR_CAP,
                format!("host {i} {kind:?} histogram holds {}", m.latency.count()),
            );
        }
        check(
            h.result.host_usage.points().is_empty(),
            format!("host {i} recorded a usage series"),
        );
    }
}

/// A digest of everything simulated: every host's full result digest
/// and lifetime, the routing matrix, the fleet counters and the latency
/// reservoir.
pub fn digest(out: &FleetResult) -> u64 {
    let mut h = Fnv1a::new();
    for host in &out.hosts {
        h.write_u64(host.result.digest());
        h.write_f64(host.boot_s);
        h.write_f64(host.stop_s);
    }
    for row in &out.routed {
        for &n in row {
            h.write_u64(n);
        }
    }
    for n in [
        out.completed,
        out.scale_ups,
        out.scale_downs,
        out.crashes,
        out.requeued,
        out.lost,
        out.deferred,
        out.slo_violations,
        out.slo_total,
        out.events_processed,
        out.peak_queue_depth as u64,
        out.injected,
        out.end.0,
    ] {
        h.write_u64(n);
    }
    for (t, v) in out.latency_over_time.sorted_points() {
        h.write_f64(t);
        h.write_f64(v);
    }
    h.finish()
}
