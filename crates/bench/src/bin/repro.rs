//! Regenerates every table and figure of the paper as text output, and
//! runs declarative scenario specs.
//!
//! Usage:
//!
//! ```text
//! repro [all|table1|fig1|...|fig11|thp|soft|fpr|temporal|hybrid|cluster|fleet]
//!       [--quick] [--jobs N] [--trials N] [--json <path>]
//! repro run <spec.scn>... [--compare] [--quick] [--jobs N] [--trials N] [--json <path>]
//! repro gen-trace
//! repro scenarios
//! ```
//!
//! * `repro cluster` / `repro fleet` — run the committed grids
//!   `examples/scenarios/cluster_grid.scn` / `fleet_grid.scn` exactly
//!   as `repro run` would (their `expect.*` gates set the exit code).
//! * `repro run` — execute scenario spec files (`faas::SweepSpec`
//!   format; see `examples/scenarios/`) with one report section per
//!   spec. Specs are parsed and validated up front: a bad file fails
//!   before anything runs. A spec may sweep axes
//!   (`hosts = 4..64 step 2x`, `router = least-loaded, power-of-two`)
//!   into a grid of cells, and may declare `expect.*` gates
//!   (`expect.p99_ms_max = 250`) — any failed gate makes the whole run
//!   exit 1 after the per-cell verdict table prints.
//! * `repro run --compare a.scn b.scn` — run exactly two single-cell
//!   specs and append a significance-aware diff table (Welch's t-test
//!   plus a seeded bootstrap CI per metric; see `faas::scenario`).
//! * `repro gen-trace` — (re)write the committed example traces under
//!   `examples/traces/` from their pinned generators, byte-identically.
//! * `repro scenarios` — list the scenario registry (workloads,
//!   topologies, backends, routers, policies, spec keys).
//! * `--jobs N` — shard each experiment grid over `N` worker threads
//!   (default: all cores). Output is byte-identical for every value of
//!   `N`; only wall time changes.
//! * `--trials N` — repeat stochastic experiments `N` times on derived
//!   RNG streams and report trial means (default: 1).
//! * `--json <path>` — additionally write a machine-readable summary
//!   (per-section wall time + output digest) for bench-trajectory
//!   tracking and `--jobs` byte-identity checks.
//!
//! Every report here is a deterministic simulation. Host-time
//! throughput, set-up cost and peak memory of the engine are measured
//! by the repository benchmark, `perfbench/` (see `BENCHMARK.json`).

use std::time::Instant;

use faas::{compare_results, CompareReport, ExpectVerdict, GridOutcome, SweepSpec};
use sim_core::experiment::run_grid;
use sim_core::{fnv1a, ExpOpts};
use squeezy_bench::{
    fig1, fig10, fig11, fig2, fig5, fig6, fig7, fig8, fig9, fpr, hybrid, soft, table1, temporal,
    thp,
};

/// What a report target renders.
enum Body {
    /// A figure or ablation module, given `--quick` and the runner
    /// options.
    Figure(fn(bool, &ExpOpts) -> String),
    /// A committed spec grid, `(file name, embedded text)`, run exactly
    /// as `repro run` would run the file: its `expect.*` gates set the
    /// exit code.
    Grid(&'static str, &'static str),
}

/// `quick()` or `paper()`: the preset a figure runs at.
fn preset<C>(quick: bool, quick_cfg: fn() -> C, paper_cfg: fn() -> C) -> C {
    if quick {
        quick_cfg()
    } else {
        paper_cfg()
    }
}

/// Every report target as `(target, section title, body)`, in report
/// order: `all` renders them all, in this order. The valid-target list
/// is derived from it.
const REPORT: [(&str, &str, Body); 17] = [
    ("table1", "Table 1", Body::Figure(|_, _| table1::render())),
    (
        "fig1",
        "Figure 1",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig1::Fig1Config::quick, fig1::Fig1Config::paper);
            fig1::render(&fig1::run_with(&cfg, opts))
        }),
    ),
    (
        "fig2",
        "Figure 2",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig2::Fig2Config::quick, fig2::Fig2Config::paper);
            fig2::render(&fig2::run_with(&cfg, opts))
        }),
    ),
    (
        "fig5",
        "Figure 5",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig5::Fig5Config::quick, fig5::Fig5Config::paper);
            fig5::render(&fig5::run_with(&cfg, opts))
        }),
    ),
    (
        "fig6",
        "Figure 6",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig6::Fig6Config::quick, fig6::Fig6Config::paper);
            fig6::render(&fig6::run_with(&cfg, opts))
        }),
    ),
    (
        "fig7",
        "Figure 7",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig7::Fig7Config::quick, fig7::Fig7Config::paper);
            fig7::render(&fig7::run_with(&cfg, opts))
        }),
    ),
    (
        "fig8",
        "Figure 8",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig8::Fig8Config::quick, fig8::Fig8Config::paper);
            fig8::render(&fig8::run_with(&cfg, opts))
        }),
    ),
    (
        "fig9",
        "Figure 9",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig9::Fig9Config::quick, fig9::Fig9Config::paper);
            fig9::render(&fig9::run_with(&cfg, opts), &cfg)
        }),
    ),
    (
        "fig10",
        "Figure 10",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fig10::Fig10Config::quick, fig10::Fig10Config::paper);
            fig10::render(&fig10::run_with(&cfg, opts))
        }),
    ),
    (
        "fig11",
        "Figure 11",
        Body::Figure(|_, opts| fig11::render(&fig11::run_with(opts))),
    ),
    (
        "thp",
        "Ablation: THP",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, thp::ThpConfig::quick, thp::ThpConfig::paper);
            thp::render(&thp::run_with(&cfg, opts))
        }),
    ),
    (
        "soft",
        "Ablation: soft memory",
        Body::Figure(|_, opts| soft::render(&soft::run_with(opts))),
    ),
    (
        "fpr",
        "Ablation: free page reporting",
        Body::Figure(|quick, opts| {
            let cfg = preset(quick, fpr::FprConfig::quick, fpr::FprConfig::paper);
            fpr::render(&fpr::run_with(&cfg, opts))
        }),
    ),
    (
        "temporal",
        "Ablation: temporal segregation",
        Body::Figure(|_, opts| temporal::render(&temporal::run_with(opts))),
    ),
    (
        "cluster",
        "Cluster",
        Body::Grid(
            "cluster_grid.scn",
            include_str!("../../../../examples/scenarios/cluster_grid.scn"),
        ),
    ),
    (
        "fleet",
        "Fleet",
        Body::Grid(
            "fleet_grid.scn",
            include_str!("../../../../examples/scenarios/fleet_grid.scn"),
        ),
    ),
    (
        "hybrid",
        "Ablation: hybrid scaling",
        Body::Figure(|quick, opts| {
            let cfg = preset(
                quick,
                hybrid::HybridConfig::quick,
                hybrid::HybridConfig::paper,
            );
            hybrid::render(&cfg, &hybrid::run_with(&cfg, opts))
        }),
    ),
];

/// Every target the CLI accepts, in help order: `all`, the figure and
/// ablation targets, the spec-grid aliases, then the commands. Unknown
/// targets are rejected at parse time against this list.
fn targets() -> Vec<&'static str> {
    let figures = REPORT.iter().filter(|t| matches!(t.2, Body::Figure(_)));
    let grids = REPORT.iter().filter(|t| matches!(t.2, Body::Grid(..)));
    std::iter::once("all")
        .chain(figures.chain(grids).map(|&(target, _, _)| target))
        .chain(["run", "gen-trace", "scenarios"])
        .collect()
}

struct Args {
    what: String,
    /// Spec files following the `run` target.
    files: Vec<String>,
    quick: bool,
    /// `run --compare`: diff exactly two single-cell specs with
    /// significance tests.
    compare: bool,
    opts: ExpOpts,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut what: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut quick = false;
    let mut compare = false;
    let mut opts = ExpOpts::auto();
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--compare" => compare = true,
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| die("--jobs needs a value"));
                opts.jobs = v.parse().unwrap_or_else(|_| die("--jobs expects a number"));
            }
            "--trials" => {
                let v = it.next().unwrap_or_else(|| die("--trials needs a value"));
                let t: u32 = v
                    .parse()
                    .unwrap_or_else(|_| die("--trials expects a number"));
                opts.trials = t.max(1);
            }
            "--json" => {
                json = Some(it.next().unwrap_or_else(|| die("--json needs a path")));
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            positional => match &what {
                // Extra positionals are spec files — but only the
                // `run` target takes them.
                Some(first) if first == "run" => files.push(positional.to_string()),
                Some(first) => die(&format!(
                    "multiple targets ({first:?} and {positional:?}); pass one"
                )),
                None if targets().contains(&positional) => what = Some(positional.to_string()),
                // A typo'd target dies here, at parse time, with the
                // full valid list — not after the run completes.
                None => die(&format!(
                    "unknown target {positional:?} (valid targets: {})",
                    targets().join(", ")
                )),
            },
        }
    }
    let what = what.unwrap_or_else(|| "all".to_string());
    if what == "run" && files.is_empty() {
        die("run needs at least one scenario spec file (see `repro scenarios`)");
    }
    if compare && what != "run" {
        die("--compare only applies to the run target");
    }
    if compare && files.len() != 2 {
        die("--compare needs exactly two scenario spec files (baseline, candidate)");
    }
    Args {
        what,
        files,
        quick,
        compare,
        opts,
        json,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// One rendered section and its cost. The `fnv1a` digest over the
/// rendered text makes `--jobs` byte-identity checkable from the JSON
/// alone.
struct Section {
    name: String,
    wall_s: f64,
    bytes: usize,
    digest: u64,
    text: String,
    /// Per-cell results and gate verdicts of a grid section.
    grid: Option<GridOutcome>,
}

/// A section waiting to render.
enum Job {
    Figure(fn(bool, &ExpOpts) -> String),
    /// A validated spec and the label its errors name.
    Grid(String, Box<SweepSpec>),
}

/// Parses, optionally quick-scales, and validates one spec. Specs may
/// be plain scenarios or sweep grids — `SweepSpec::parse` is a strict
/// superset of the scalar format.
fn load_spec(label: &str, text: &str, quick: bool) -> SweepSpec {
    let spec = SweepSpec::parse(text).unwrap_or_else(|e| die(&format!("{label}: {e}")));
    if quick {
        spec.quick()
    } else {
        spec
    }
}

/// Loads every spec file; any bad file dies before the first
/// simulation starts.
fn load_specs(files: &[String], quick: bool) -> Vec<(String, SweepSpec)> {
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            (path.clone(), load_spec(path, &text, quick))
        })
        .collect()
}

/// (Re)writes the committed example traces from their pinned in-crate
/// generators. Paths are anchored on the crate manifest, so this lands
/// in `examples/traces/` whatever the working directory; the output is
/// byte-deterministic and a bench test pins the committed files to it.
fn gen_traces() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/traces");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("creating {dir}: {e}")));
    let files = [
        ("azure_3day.csv", workloads::sample_azure_3day()),
        ("opendc_sample.csv", workloads::sample_opendc()),
    ];
    for (name, text) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, &text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!(
            "wrote {name} ({} bytes, fnv1a {:016x})",
            text.len(),
            fnv1a(&text)
        );
    }
}

fn main() {
    let args = parse_args();
    if args.what == "scenarios" {
        print!("{}", faas::scenario::registry_help());
        return;
    }
    if args.what == "gen-trace" {
        gen_traces();
        return;
    }
    let quick = args.quick;
    let opts = args.opts;

    let specs = load_specs(&args.files, quick);
    if args.compare {
        for (path, spec) in &specs {
            let cells = spec.cells().len();
            if cells != 1 {
                die(&format!(
                    "--compare needs single-cell specs; {path} expands to {cells} cells \
                     (drop the sweep axes)"
                ));
            }
        }
    }
    // Spec files take the first sections, in order; then the report
    // targets selected by `what`.
    let mut jobs: Vec<(String, Job)> = specs
        .into_iter()
        .map(|(path, spec)| (path.clone(), Job::Grid(path, Box::new(spec))))
        .collect();
    for (target, title, body) in &REPORT {
        if args.what == "all" || args.what == *target {
            let job = match *body {
                Body::Figure(render) => Job::Figure(render),
                Body::Grid(file, text) => {
                    Job::Grid(file.to_string(), Box::new(load_spec(file, text, quick)))
                }
            };
            jobs.push((title.to_string(), job));
        }
    }

    let t0 = Instant::now();
    // The report itself is a grid: each section is a point, so `--jobs`
    // pipelines whole figures against each other (a section with a
    // serial phase, like Figure 10's abundant baseline, does not block
    // the machine) while the ordered reduction prints them in canonical
    // order. Each section is one deterministic artifact, so one trial.
    // The section level is capped at 4 workers: only one section
    // (Figure 10) is long enough to need overlap, and an uncapped outer
    // level would multiply with each section's inner workers into
    // jobs^2 busy threads on big machines.
    let outer = opts.with_jobs(opts.effective_jobs().min(4)).with_trials(1);
    let sections: Vec<Section> = run_grid(&jobs, 0, &outer, |(name, job), _| {
        let t = Instant::now();
        let (text, grid) = match job {
            Job::Figure(render) => (render(quick, &opts), None),
            Job::Grid(label, spec) => {
                let outcome = spec
                    .run(&opts)
                    .unwrap_or_else(|e| die(&format!("{label}: {e}")));
                (outcome.render(), Some(outcome))
            }
        };
        // Progress goes to stderr in completion order; stdout stays
        // buffered and byte-identical in canonical order.
        eprintln!("[repro] {name} done in {:.1}s", t.elapsed().as_secs_f64());
        Section {
            name: name.clone(),
            wall_s: t.elapsed().as_secs_f64(),
            digest: fnv1a(&text),
            bytes: text.len(),
            text,
            grid,
        }
    })
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect();
    for sec in &sections {
        println!("{}", "=".repeat(72));
        println!("== {}", sec.name);
        println!("{}", "=".repeat(72));
        println!("{}", sec.text);
    }
    let grids: Vec<&GridOutcome> = sections.iter().filter_map(|s| s.grid.as_ref()).collect();
    let compare = args.compare.then(|| {
        // Validated at parse time: exactly two single-cell specs, which
        // are the first two sections.
        let (a, b) = (grids[0], grids[1]);
        let report = compare_results(&args.files[0], &a.cells[0].1, &args.files[1], &b.cells[0].1);
        println!("{}", "=".repeat(72));
        println!("== Compare");
        println!("{}", "=".repeat(72));
        println!("{}", report.render());
        report
    });
    let total_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "[repro] done in {total_s:.1}s (jobs={}, trials={})",
        opts.effective_jobs(),
        opts.trials
    );

    let verdicts: Vec<&ExpectVerdict> = grids.iter().flat_map(|g| g.verdicts.iter()).collect();
    if let Some(path) = args.json {
        let json = to_json(
            &sections,
            total_s,
            quick,
            &opts,
            &verdicts,
            compare.as_ref(),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("[repro] wrote {path}");
    }
    // Behavioral gates make the process fail *after* the full report
    // and JSON land — exit 1 (distinct from usage errors' exit 2).
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    if failed > 0 {
        eprintln!("[repro] {failed} expectation gate(s) FAILED — see verdict table above");
        std::process::exit(1);
    }
}

/// Minimal JSON string escaping: section names are figure titles or
/// user-supplied spec paths, so quotes, backslashes and control bytes
/// must not corrupt the summary.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `null` for non-finite values — bare JSON numbers cannot spell NaN
/// or infinity.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes the run summary (no external crates: the schema is flat
/// and the only free-form strings — section names, cell labels — are
/// escaped).
fn to_json(
    sections: &[Section],
    total_s: f64,
    quick: bool,
    opts: &ExpOpts,
    verdicts: &[&ExpectVerdict],
    compare: Option<&CompareReport>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"suite\": \"squeezy-repro\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", opts.effective_jobs()));
    s.push_str(&format!("  \"trials\": {},\n", opts.trials));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    if !verdicts.is_empty() {
        s.push_str("  \"expectations\": [\n");
        for (i, v) in verdicts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"cell\": \"{}\", \"gate\": \"{}\", \"limit\": {}, \"actual\": {}, \
                 \"pass\": {}}}{}\n",
                json_escape(&v.cell),
                v.kind.key(),
                json_f64(v.limit),
                json_f64(v.actual),
                v.pass,
                if i + 1 < verdicts.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
    }
    if let Some(c) = compare {
        s.push_str(&format!(
            "  \"compare\": {{\"a\": \"{}\", \"b\": \"{}\", \"alpha\": {}, \"rows\": [\n",
            json_escape(&c.label_a),
            json_escape(&c.label_b),
            faas::scenario::ALPHA
        ));
        let n: usize = c.rows.iter().map(|(_, diffs)| diffs.len()).sum();
        let mut i = 0;
        for (backend, diffs) in &c.rows {
            for d in diffs {
                i += 1;
                s.push_str(&format!(
                    "    {{\"backend\": \"{}\", \"metric\": \"{}\", \"mean_a\": {}, \
                     \"mean_b\": {}, \"diff\": {}, \"p\": {}, \"significant\": {}, \
                     \"verdict\": \"{}\"}}{}\n",
                    backend.key(),
                    d.metric,
                    json_f64(d.mean_a),
                    json_f64(d.mean_b),
                    json_f64(d.diff()),
                    d.welch
                        .map(|w| json_f64(w.p))
                        .unwrap_or_else(|| "null".to_string()),
                    d.significant(),
                    d.verdict(),
                    if i < n { "," } else { "" }
                ));
            }
        }
        s.push_str("  ]},\n");
    }
    s.push_str("  \"sections\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"bytes\": {}, \"fnv1a\": \"{:016x}\"}}{}\n",
            json_escape(&sec.name),
            sec.wall_s,
            sec.bytes,
            sec.digest,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
