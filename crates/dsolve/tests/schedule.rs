//! Pins the one-worker fixpoint schedule. At `--jobs 1` every round is
//! one partition checked in FIFO order, so the work a run does is a pure
//! function of its input: these counts move only when the schedule, the
//! weakening checks, or the query cache change. Each run is a fresh
//! process, because the symbol interner is process-global.

use dsolve_obs::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

/// `(smt_queries, iterations, rounds)` of one `--jobs 1` run.
fn work_counts(bench: &str) -> (u64, u64, u64) {
    let stats = std::env::temp_dir()
        .join(format!("dsolve-schedule-{}-{bench}.json", std::process::id()));
    let ml = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks")
        .join(format!("{bench}.ml"));
    let out = Command::new(env!("CARGO_BIN_EXE_dsolve"))
        .arg(ml)
        .args(["--jobs", "1", "--quiet", "--stats-json"])
        .arg(&stats)
        .output()
        .expect("spawn dsolve");
    assert!(
        out.status.success(),
        "{bench}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = parse_json(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let _ = std::fs::remove_file(&stats);
    let count = |key: &str| doc.get(key).and_then(Json::as_num).unwrap() as u64;
    (count("smt_queries"), count("iterations"), count("rounds"))
}

#[test]
fn one_worker_schedule_is_pinned() {
    for (bench, expected) in [
        ("stablesort", (882, 4197, 12)),
        ("malloc", (790, 792, 4)),
        ("subvsolve", (1064, 2523, 9)),
    ] {
        assert_eq!(
            work_counts(bench),
            expected,
            "{bench}: (smt_queries, iterations, rounds) at --jobs 1"
        );
    }
}
