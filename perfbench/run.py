"""gsoscheck benchmark: cold command-line passes, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  A workload is a list of gsoscheck command
lines (``perfbench/workloads.json``); one pass runs all of them through
``gsoscheck.cli.execute`` in a fresh interpreter, because the step cache is
process-global and a command-line user pays it cold on every invocation.
Passes run one after another (a closed loop with one client) with
``--threads 1`` until ``--seconds`` have passed.  Benchmark seed N runs
gsoscheck with ``--seed 0xC0FFEE+N``, so seed 0 is gsoscheck's default.
Pass and set-up times are scaled by a reference loop timed just before
them (see REFERENCE_S).

Every report is checked against ``perfbench/expected.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, taken from
separate passes under the boundary tracer (``perfbench/tracer.py``) that
alternate with untraced ones.  ``--workload all`` prints one summary line
per workload instead, with the failure ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 0xC0FFEE
SETUP_SAMPLES = 15  # set-up is short and noisy, so it is sampled more often
# The speed of the shared host drifts by 20% and more within seconds, which
# moves raw times as much.  Each pass and set-up is therefore timed against
# child.reference(), run in its own interpreter just before it, and pass_s
# and setup_s are stated in seconds of a machine on which that loop takes
# REFERENCE_S (about its median on a 2-core x86-64 host with Python 3.11).
REFERENCE_S = 0.16
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def op_name(argv: list) -> str:
    if argv[0] == "coherence":
        return "coherence." + argv[argv.index("--compiler") + 1]
    return argv[0]


def commands(workload: str, seed: int) -> list:
    spec = load_json(BENCH / "workloads.json")[workload]
    return [argv + ["--threads", "1", "--seed", str(DEFAULT_SEED + seed)]
            for argv in spec["commands"]]


def build():
    """Byte-compile gsoscheck and the benchmark, so that no measured pass
    compiles sources."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "gsoscheck"), str(BENCH)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("compileall failed:\n" + proc.stdout + proc.stderr)


def run_child(job: dict) -> dict:
    """Run ``child.py`` on one job in a fresh interpreter and return its
    result."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    job = dict(job, src=str(SRC))
    proc = subprocess.run([sys.executable, "-s", str(BENCH / "child.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# correctness

def _witness(report: dict):
    witness = report["witness"]
    if witness and "case" in witness:
        return {"term": witness["case"]["term"], "input": witness["case"]["input"],
                "field": witness["divergence"]["field"]}
    return witness


def check_op(op: dict, expected: dict, seed: int) -> list:
    """Differences between one operation and its expected entry; the empty
    list means correct.  The wall time is never compared."""
    if "error" in op:
        return [op["error"]]
    want = expected["ops"][op_name(op["argv"])]
    report = op["report"]
    found = []
    if op["exit"] != want["exit"]:
        found.append(f"exit {op['exit']} != {want['exit']}")
    if report["verdict"] != want["verdict"]:
        found.append(f"verdict {report['verdict']} != {want['verdict']}")
    if "exhausted" in want and report["tallies"].get("exhausted") != want["exhausted"]:
        found.append(f"exhausted {report['tallies'].get('exhausted')} != {want['exhausted']}")
    if seed == 0:
        pinned = want["default_seed"]
        if _witness(report) != pinned["witness"]:
            found.append(f"witness {_witness(report)} != {pinned['witness']}")
        if report["tallies"] != pinned["tallies"]:
            found.append(f"tallies {report['tallies']} != {pinned['tallies']}")
    return [f"{op_name(op['argv'])}: {d}" for d in found]


# ---------------------------------------------------------------------------
# measuring

def _pass_s(child: dict) -> float:
    return sum(op["s"] for op in child["ops"])


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict,
            spans=None) -> dict:
    """Run passes for ``seconds`` and return the raw measurements and every
    correctness problem found."""
    cmds = commands(workload, seed)
    plain, traced, problems = [], [], []
    failed = 0

    def check(child, untraced=None):
        nonlocal failed
        for i, op in enumerate(child["ops"]):
            found = check_op(op, expected, seed)
            if untraced is not None and op.get("report") != untraced["ops"][i].get("report"):
                found.append(f"{op_name(op['argv'])}: traced report differs from untraced")
            failed += bool(found)
            problems.extend(found)

    def referenced(job):
        reference_s = run_child({"reference": True})["reference_s"]
        return dict(run_child(job), reference_s=reference_s)

    deadline = time.monotonic() + seconds
    while True:
        plain.append(referenced({"commands": cmds}))
        check(plain[-1])
        if trace:
            job = {"commands": cmds, "trace": True}
            if not traced and spans:
                job["spans"] = str(spans)
            traced.append(run_child(job))
            check(traced[-1], plain[-1])
        if time.monotonic() >= deadline:
            break
    setups = [c["setup_s"] / c["reference_s"] for c in plain]
    while len(setups) < SETUP_SAMPLES:
        probe = referenced({"commands": []})
        setups.append(probe["setup_s"] / probe["reference_s"])
    return {"plain": plain, "traced": traced, "setups": setups, "problems": problems,
            "attempted": sum(len(c["ops"]) for c in plain + traced), "failed": failed}


def end_to_end(m: dict) -> dict:
    return {
        "setup_s": REFERENCE_S * statistics.median(m["setups"]),
        "pass_s": REFERENCE_S * statistics.median(
            _pass_s(c) / c["reference_s"] for c in m["plain"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in m["plain"]),
    }


def per_layer(m: dict, names: list) -> dict:
    traced, plain = m["traced"], m["plain"]
    out = {}
    for key in traced[0]["layers"]:
        values = [c["layers"][key] for c in traced]
        counts = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if counts else statistics.median(values)
    reports = [op["report"] for op in plain[0]["ops"] if "report" in op]
    out["checker.cases"] = sum(
        r["tallies"].get("cases", r["tallies"].get("cases_before", -1) + 1)
        for r in reports if r["command"][0] == "coherence")
    out["checker.ctx.contexts"] = sum(
        r["tallies"]["contexts"] for r in reports if r["command"][0] == "ctx-closure")
    for name in names:
        if name.startswith("op."):
            out[name] = 0.0  # a command line this workload does not run
    for i, op in enumerate(plain[0]["ops"]):
        out[f"op.{op_name(op['argv'])}.s"] = statistics.median(
            c["ops"][i]["s"] for c in plain)
    out["pass.wall_s"] = statistics.median(_pass_s(c) for c in plain)
    out["pass.reference_s"] = statistics.median(c["reference_s"] for c in plain)
    out["trace.overhead"] = (statistics.median(_pass_s(c) for c in traced)
                             / out["pass.wall_s"])
    return out


def result(m: dict, metrics: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def summary(workload: str, m: dict) -> str:
    e = end_to_end(m)
    failed = m["failed"]
    wall = statistics.median(_pass_s(c) for c in m["plain"])
    return (f"{workload:<20} setup_s {e['setup_s']:.4f} s  "
            f"pass_s {e['pass_s']:.4f} s (n={len(m['plain'])}, wall {wall:.4f} s)  "
            f"peak_rss_mb {e['peak_rss_mb']:.1f} MB  "
            f"fail_ratio {failed}/{m['attempted']} = {failed / m['attempted']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gsoscheck" / "cli.py").is_file():
            raise BenchError(f"no gsoscheck sources under {SRC}")
        workloads = load_json(BENCH / "workloads.json")
        names = list(workloads) if args.workload == "all" else [args.workload]
        if any(n not in workloads for n in names):
            raise BenchError(f"unknown workload {args.workload}; choose from {list(workloads)}")
        spec = load_json(ROOT / "BENCHMARK.json")
        expected = load_json(BENCH / "expected.json")
        build()
        if args.workload == "all":
            ok = True
            for name in names:
                m = measure(name, args.seed, args.seconds, False, expected)
                print(summary(name, m), flush=True)
                for problem in m["problems"]:
                    print("  " + problem)
                ok = ok and not m["problems"]
            return 0 if ok else 1
        spans = None
        if args.trace:
            (BUILD / "traces").mkdir(parents=True, exist_ok=True)
            spans = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected,
                    spans)
        if args.trace:
            specs = spec["per_layer"]
            metrics = per_layer(m, [s["name"] for s in specs])
        else:
            specs = spec["end_to_end"]
            metrics = end_to_end(m)
        out = result(m, metrics, specs)
    except (BenchError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(summary(args.workload, m))
    for problem in m["problems"]:
        print("  " + problem)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
