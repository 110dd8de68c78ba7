//! The `repro` command-line contract: usage errors exit 2 with the
//! valid targets listed, and `--json` writes one summary entry per
//! report section.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_target_exits_2_listing_the_valid_targets() {
    let out = repro(&["perf"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target \"perf\""), "{stderr}");
    for target in ["all", "table1", "fig11", "cluster", "run", "scenarios"] {
        assert!(stderr.contains(target), "{target} missing from: {stderr}");
    }
}

#[test]
fn json_summary_has_one_entry_per_section() {
    let path = std::env::temp_dir().join(format!("repro-cli-{}.json", std::process::id()));
    let out = repro(&[
        "table1",
        "--quick",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("summary written");
    std::fs::remove_file(&path).expect("summary removed");
    assert!(json.contains("\"suite\": \"squeezy-repro\""), "{json}");
    assert_eq!(json.matches("\"name\": ").count(), 1, "{json}");
    assert!(json.contains("\"name\": \"Table 1\""), "{json}");
    assert!(!json.contains("\"perf"), "{json}");
}
