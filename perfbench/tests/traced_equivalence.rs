//! The timing decorators delegate every method, so a traced replay is
//! the same simulation as a plain one: same simulated digest, same
//! per-layer counts, same latency sample — for every workload.

use perfbench::report::{end_to_end, per_layer, Replay};
use perfbench::run::{run_once, Sample};
use perfbench::workload::{replay_seed, Scale, Workload};

fn replay(w: Workload, seed: u64, traced: bool) -> Sample {
    run_once(w, seed, Scale::Test, traced).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn traced_replay_reproduces_the_plain_one() {
    for w in Workload::ALL {
        let seed = replay_seed(7, 0);
        let plain = replay(w, seed, false);
        let traced = replay(w, seed, true);
        let key = w.key();
        assert_eq!(plain.digest, traced.digest, "{key}: simulated digest");
        assert_eq!(plain.simulated(), traced.simulated(), "{key}: counts");
        assert_eq!(plain.latencies, traced.latencies, "{key}: latency sample");
        assert!(
            plain.get("completed") > 0.0,
            "{key}: the replay served requests"
        );
        assert_eq!(
            plain.get("span.route.calls"),
            0.0,
            "{key}: plain is untimed"
        );
        assert_eq!(
            traced.get("span.route.calls"),
            traced.get("completed"),
            "{key}: one route call per served request"
        );
        let decides = traced.get("span.decide.calls");
        assert_eq!(decides > 0.0, w == Workload::Trace, "{key}: control ticks");
        let pulls = traced.get("span.next_arrival.calls");
        assert_eq!(pulls > 0.0, w == Workload::Trace, "{key}: trace pulls");
    }
}

#[test]
fn replay_seeds_change_the_inputs() {
    for w in Workload::ALL {
        let a = replay(w, replay_seed(7, 0), false);
        let b = replay(w, replay_seed(7, 1), false);
        assert_ne!(a.digest, b.digest, "{}: replay seeds 0 and 1", w.key());
    }
}

#[test]
fn samples_survive_the_process_boundary() {
    let s = replay(Workload::Churn, replay_seed(3, 0), true);
    assert_eq!(Sample::parse(&s.render()), Ok(s));
    assert!(
        Sample::parse("digest 1\nsetup_s 2\n").is_err(),
        "figures missing"
    );
}

/// `BENCHMARK.json` names every metric the report prints, with the same
/// unit, and nothing else.
#[test]
fn report_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section ends")];
        body.lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    };
    let replays: Vec<Replay> = [false, true]
        .into_iter()
        .map(|traced| Replay {
            k: 0,
            round: 0,
            sample: replay(Workload::Trace, replay_seed(5, 0), traced),
        })
        .collect();
    let printed = |metrics: Vec<perfbench::report::Metric>| -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(printed(end_to_end(&replays)), listed("end_to_end"));
    assert_eq!(printed(per_layer(&replays)), listed("per_layer"));
}
