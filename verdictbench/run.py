#!/usr/bin/env python3
"""Time-to-verdict benchmark for dsolve-rs.

Builds the benchmark worker (a package of its own in this directory),
runs one workload in a child process, checks every verdict against its
known answer, checks that the work counts repeat exactly, and prints one
JSON object as the last line of standard output:

    python3 verdictbench/run.py --workload fig10-decided --seed 1 --seconds 40 --trace 0

With `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
the run alternates untraced and traced passes and the metrics are the
per-layer ones. Every run also writes a run record under
`verdictbench/runs/`. Run from the repository root. README.md in this
directory explains the workloads, caps and estimators.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = os.path.join(BENCH_DIR, "runs")

WORKLOADS = ["fig10-decided", "fig10-capped", "fleet"]

# The fleet seed used by default, and a second seed kept unused while
# changes are written, so a claimed gain can be re-checked on programs
# it was not tuned on (`--fleet-seed 11`).
DEFAULT_FLEET_SEED = 7
HELD_OUT_FLEET_SEED = 11

# The host-speed probe's time (worker `probe()`) when the test host that
# README.md names runs fast. Every end-to-end time is scaled by this over
# the probes taken around it; README.md explains why.
REFERENCE_PROBE_S = 0.0009

# Counts that must repeat exactly for every program, from pass to pass
# and from run to run of the same worker binary.
GUARDED_COUNTS = ["queries", "iterations", "simplex_pivots", "euf_merges", "sat_decisions"]

END_TO_END = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("verdict_s_geomean", "s"),
    ("verdict_s_median", "s"),
    ("peak_rss_mb", "MB"),
]

THEORIES = ["simplex", "euf", "sat", "arrays", "sets"]
TRACE_LAYERS = ["harness", "job_other", "frontend", "gen", "fixpoint", "obligations", "smt_query"]

PER_LAYER = (
    [("smt.%s_s" % t, "s") for t in THEORIES]
    + [
        ("smt.theory_s", "s"),
        ("smt.simplex.pivots", "count"),
        ("smt.simplex.bb_nodes", "count"),
        ("smt.simplex.pivots_per_query", "count"),
        ("smt.euf.merges", "count"),
        ("smt.euf.congruence_pairs", "count"),
        ("smt.sat.decisions", "count"),
        ("smt.sat.conflicts", "count"),
        ("smt.arrays.axiom_instances", "count"),
        ("smt.sets.lemmas", "count"),
        ("smt.query_ms_mean", "ms"),
        ("liquid.solve_other_s", "s"),
        ("smt.checks", "count"),
        ("smt.cache_hit_rate", "ratio"),
        ("smt.sessions", "count"),
        ("smt.scoped_checks", "count"),
        ("liquid.iterations", "count"),
        ("liquid.rounds", "count"),
        ("smt.queries", "count"),
        ("smt.refused", "count"),
        ("smt.queries_per_iteration", "ratio"),
        ("liquid.obligations_s", "s"),
        ("liquid.kvars", "count"),
        ("liquid.initial_quals", "count"),
        ("liquid.constraints", "count"),
        ("nanoml.parse_s", "s"),
        ("nanoml.infer_s", "s"),
        ("dsolve.frontend_s", "s"),
        ("liquid.gen_s", "s"),
        ("decided_share", "ratio"),
        ("proved_share", "ratio"),
        ("failed_share", "ratio"),
        ("obs.trace_overhead_s", "s"),
        ("obs.trace_events", "count"),
    ]
    + [("trace.%s_self_s" % l, "s") for l in TRACE_LAYERS]
)


# ---------------------------------------------------------------------
# Estimators


def adjusted(rec, key):
    """`rec[key]`, a time, in seconds at the reference host speed: scaled
    by the reference probe time over the mean of the probes taken just
    before and just after it."""
    return rec[key] * 2 * REFERENCE_PROBE_S / (rec["probe_before_s"] + rec["probe_after_s"])


def median_across_passes(samples):
    """Each program's verdict time: the median of its scaled times over
    the passes.

    A program does identical work on every pass, so raw times err only
    upwards, but a scaled time errs both ways: when the probes around a
    sample misread the host's speed during it, the sample is scaled too
    far down. The median keeps one such sample from setting the time,
    where the minimum would pick exactly that one."""
    return {name: statistics.median(times) for name, times in samples.items()}


def min_across_passes(samples):
    """Each program's fastest raw time over the passes, for `raw_suite_s`."""
    return {name: min(times) for name, times in samples.items()}


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values):
    """The 90th percentile (nearest rank), or None unless at least ten
    samples lie beyond it."""
    xs = sorted(values)
    rank = math.ceil(0.9 * len(xs))
    if rank == 0 or len(xs) - rank < 10:
        return None
    return xs[rank - 1]


# ---------------------------------------------------------------------
# Oracle


def oracle(expect, verdict):
    """Whether `verdict` is acceptable for a program whose known answer
    is `expect`.

    - `safe`: a Fig. 10 row that verifies; it must be SAFE (UNKNOWN means
      the safety cap was hit).
    - `not-unsafe`: a capped Fig. 10 row; SAFE or UNKNOWN, never UNSAFE.
    - `holds`: a fleet program whose assertions all hold; any verdict but
      a front-end error or a panic.
    - `violating`: a fleet program with a failing assertion; never SAFE.
    """
    allowed = {
        "safe": ("SAFE",),
        "not-unsafe": ("SAFE", "UNKNOWN"),
        "holds": ("SAFE", "UNSAFE", "UNKNOWN"),
        "violating": ("UNSAFE", "UNKNOWN"),
    }
    return verdict in allowed.get(expect, ())


# ---------------------------------------------------------------------
# Analysis


def guarded(rec):
    return tuple(rec.get(k, rec.get("micro", {}).get(k)) for k in GUARDED_COUNTS)


def analyze(records):
    """Checks the worker's records and derives every metric.

    Returns a dict with `failures` (program names with a wrong verdict,
    an error or a panic), `nondeterministic` (names whose guarded counts
    differ between passes), `attempted`, `failed`, the per-program table
    and both metric sets."""
    setups = [adjusted(r, "setup_s") for r in records if r["kind"] == "setup"]
    done = next((r for r in records if r["kind"] == "done"), {})
    progs = {}
    for r in records:
        if r["kind"] == "program":
            progs.setdefault(r["name"], []).append(r)

    failures, nondet = [], []
    attempted = failed = 0
    table = []
    for name, recs in progs.items():
        bad = [r for r in recs if not oracle(r["expect"], r["verdict"])]
        attempted += len(recs)
        failed += len(bad)
        if bad:
            failures.append(name)
        if not bad and len({guarded(r) for r in recs}) > 1:
            nondet.append(name)
        timed = [dict(r, adjusted_s=adjusted(r, "wall_s")) for r in recs if "wall_s" in r]
        untraced = [r for r in timed if not r.get("traced")]
        traced = [r for r in timed if r.get("traced")]
        best = min(untraced, key=lambda r: r["wall_s"]) if untraced else None
        best_traced = min(traced, key=lambda r: r["wall_s"]) if traced else None
        table.append(
            {
                "name": name,
                "expect": recs[0]["expect"],
                "cap": recs[0].get("cap"),
                "verdicts": sorted({r["verdict"] for r in recs}),
                "detail": recs[0].get("detail", ""),
                "wall_s": [r["wall_s"] for r in untraced],
                "adjusted_s": [r["adjusted_s"] for r in untraced],
                "probes_s": [[r["probe_before_s"], r["probe_after_s"]] for r in untraced],
                "traced_adjusted_s": [r["adjusted_s"] for r in traced],
                "counts": dict(zip(GUARDED_COUNTS, guarded(recs[0]))),
                "best": best,
                "best_traced": best_traced,
            }
        )
    table.sort(key=lambda row: row["name"])

    n = max(len(table), 1)
    decided = sum(1 for row in table if row["verdicts"][0] in ("SAFE", "UNSAFE"))
    safe_known = [row for row in table if row["expect"] in ("safe", "not-unsafe", "holds")]
    proved = sum(1 for row in safe_known if row["verdicts"] == ["SAFE"])
    out = {
        "failures": failures,
        "nondeterministic": nondet,
        "attempted": attempted,
        "failed": failed,
        "passes": done.get("passes", 0),
        "elapsed_s": done.get("elapsed_s"),
        "programs": table,
        "shares": {
            "decided_share": decided / n,
            "proved_share": proved / len(safe_known) if safe_known else 0.0,
            "failed_share": len(failures) / n,
        },
    }
    if failures or not table or any(row["best"] is None for row in table):
        return out

    times = median_across_passes({row["name"]: row["adjusted_s"] for row in table})
    out["raw_suite_s"] = sum(min_across_passes({row["name"]: row["wall_s"] for row in table}).values())
    out["verdict_s_p90"] = p90(times.values())
    out["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "suite_s": sum(times.values()),
        "verdict_s_geomean": geomean(times.values()),
        "verdict_s_median": statistics.median(times.values()),
        "peak_rss_mb": done.get("peak_rss_kb", 0) / 1024.0,
    }
    out["per_layer"] = per_layer(table, out["shares"])
    return out


def per_layer(table, shares):
    """Per-layer metrics: counts summed over programs (they repeat
    exactly), layer times summed over each program's fastest untraced
    pass, as measured."""
    best = [row["best"] for row in table]

    def total(key):
        return sum(r[key] for r in best)

    def micro(key):
        return sum(r["micro"][key] for r in best)

    theory = {t: sum(r["theory_ns"][t] for r in best) / 1e9 for t in THEORIES}
    theory_s = sum(theory.values())
    queries = total("queries")
    iterations = total("iterations")
    m = {"smt.%s_s" % t: theory[t] for t in THEORIES}
    m.update(
        {
            "smt.theory_s": theory_s,
            "smt.simplex.pivots": micro("simplex_pivots"),
            "smt.simplex.bb_nodes": micro("simplex_bb_nodes"),
            "smt.simplex.pivots_per_query": micro("simplex_pivots") / max(queries, 1),
            "smt.euf.merges": micro("euf_merges"),
            "smt.euf.congruence_pairs": micro("euf_congruence_pairs"),
            "smt.sat.decisions": micro("sat_decisions"),
            "smt.sat.conflicts": micro("sat_conflicts"),
            "smt.arrays.axiom_instances": micro("arrays_axiom_instances"),
            "smt.sets.lemmas": micro("sets_saturation_lemmas"),
            "smt.query_ms_mean": total("query_time_sum_ns") / 1e6 / max(total("query_time_count"), 1),
            "liquid.solve_other_s": total("fixpoint_s") + total("obligations_s") - theory_s,
            "smt.checks": total("checks"),
            "smt.cache_hit_rate": total("cache_hits") / max(total("checks"), 1),
            "smt.sessions": total("sessions"),
            "smt.scoped_checks": total("scoped_checks"),
            "liquid.iterations": iterations,
            "liquid.rounds": total("rounds"),
            "smt.queries": queries,
            "smt.refused": total("refused"),
            "smt.queries_per_iteration": queries / max(iterations, 1),
            "liquid.obligations_s": total("obligations_s"),
            "liquid.kvars": total("kvars"),
            "liquid.initial_quals": total("initial_quals"),
            "liquid.constraints": total("constraints"),
            "nanoml.parse_s": sum(r["phase_ns"]["parse"] for r in best) / 1e9,
            "nanoml.infer_s": sum(r["phase_ns"]["infer"] for r in best) / 1e9,
            "dsolve.frontend_s": total("frontend_s"),
            "liquid.gen_s": total("gen_s"),
        }
    )
    m.update(shares)
    traced = [row["best_traced"] for row in table]
    if all(r is not None and "trace_self_us" in r for r in traced):
        untraced_s = median_across_passes({row["name"]: row["adjusted_s"] for row in table})
        traced_s = median_across_passes({row["name"]: row["traced_adjusted_s"] for row in table})
        m["obs.trace_overhead_s"] = sum(traced_s.values()) - sum(untraced_s.values())
        m["obs.trace_events"] = sum(r["trace_events"] for r in traced)
        for layer in TRACE_LAYERS:
            m["trace.%s_self_s" % layer] = sum(r["trace_self_us"][layer] for r in traced) / 1e6
    return m


def select_metrics(result, trace):
    """The metrics a run prints: end-to-end ones untraced, per-layer
    ones traced, each as `{"value", "unit"}`."""
    if "end_to_end" not in result:
        return {}
    names, values = (PER_LAYER, result["per_layer"]) if trace else (END_TO_END, result["end_to_end"])
    return {name: {"value": values[name], "unit": unit} for name, unit in names if name in values}


# ---------------------------------------------------------------------
# Run record and count ledger


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest(root):
    """Digest of the sources the worker is built from, which identifies
    the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "benchmarks", "verdictbench"):
        base = os.path.join(root, top)
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "runs"))
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                h.update(file_digest(p).encode())
    return h.hexdigest()


def commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_ledger(path, build, workload, table):
    """Compares each program's guarded counts with those of the first run
    of the same build, and records new ones. Returns the names whose
    counts differ."""
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    seen = ledger.setdefault(build, {})
    mismatched = []
    for row in table:
        key = "%s/%s/cap%s" % (workload, row["name"], row["cap"])
        counts = {k: row["counts"][k] for k in GUARDED_COUNTS}
        first = seen.setdefault(key, counts)
        if first != counts:
            mismatched.append(row["name"])
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return mismatched


def write_record(args, root, result, worker):
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = os.path.join(RUNS_DIR, "%s-seed%d-trace%d-%s.json" % (args.workload, args.seed, args.trace, stamp))
    programs = []
    for row in result["programs"]:
        programs.append({k: v for k, v in row.items() if k not in ("best", "best_traced")})
    record = {
        "host": {"nproc": os.cpu_count(), "machine": os.uname().machine},
        "commit": commit(root),
        "source_digest": source_digest(root),
        "worker_digest": file_digest(worker),
        "workload": args.workload,
        "seed": args.seed,
        "fleet_seed": args.fleet_seed if args.workload == "fleet" else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": result["passes"],
        "elapsed_s": result["elapsed_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "nondeterministic": result["nondeterministic"],
        "shares": result["shares"],
        "verdict_s_p90": result.get("verdict_s_p90"),
        "raw_suite_s": result.get("raw_suite_s"),
        "end_to_end": result.get("end_to_end"),
        "per_layer": result.get("per_layer"),
        "programs": programs,
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


# ---------------------------------------------------------------------
# Entry point


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    worker = os.path.join(target, "release", "verdictbench-worker")
    return worker if os.path.exists(worker) else None


def run_worker(worker, args, trace_dir):
    cmd = [
        worker,
        "--workload", args.workload,
        "--order-seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--fleet-seed", str(args.fleet_seed),
    ]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "worker did not finish in time"
    if proc.returncode != 0:
        return None, "worker exited with code %d" % proc.returncode
    return [json.loads(line) for line in out.splitlines() if line.strip()], None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="orders the programs within each pass")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fleet-seed", type=int, default=DEFAULT_FLEET_SEED,
                    help="default %d; %d is held out" % (DEFAULT_FLEET_SEED, HELD_OUT_FLEET_SEED))
    args = ap.parse_args(argv)
    root = os.getcwd()

    worker = build(root)
    if worker is None:
        print("verdictbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(RUNS_DIR, "trace-" + args.workload)
        os.makedirs(trace_dir, exist_ok=True)
        for f in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, f))

    records, err = run_worker(worker, args, trace_dir)
    if records is None:
        print("verdictbench: " + err, file=sys.stderr)
        return 2
    result = analyze(records)
    mismatched = check_ledger(
        os.path.join(RUNS_DIR, "counts-ledger.json"), file_digest(worker), args.workload, result["programs"]
    )
    result["nondeterministic"] = sorted(set(result["nondeterministic"]) | set(mismatched))
    path = write_record(args, root, result, worker)

    for row in result["programs"]:
        print(
            "%-22s %-8s %-10s passes=%d scaled median=%.4fs raw min=%.4fs %s"
            % (row["name"], row["expect"], "/".join(row["verdicts"]), len(row["adjusted_s"]),
               statistics.median(row["adjusted_s"] or [float("nan")]), min(row["wall_s"] or [float("nan")]),
               row["counts"]),
            file=sys.stderr,
        )
    print("run record: " + os.path.relpath(path, root), file=sys.stderr)

    correct = not result["failures"] and not result["nondeterministic"] and "end_to_end" in result
    if result["failures"]:
        print("verdictbench: wrong verdicts: " + ", ".join(result["failures"]), file=sys.stderr)
    if result["nondeterministic"]:
        print("verdictbench: counts differ across passes or runs: " + ", ".join(result["nondeterministic"]),
              file=sys.stderr)
    if correct:
        print("suite_s: %.4f  raw_suite_s: %.4f  verdict_s_p90: %s  shares: %s"
              % (result["end_to_end"]["suite_s"], result["raw_suite_s"], result["verdict_s_p90"], result["shares"]),
              file=sys.stderr)
    metrics = select_metrics(result, args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] + len(result["nondeterministic"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
