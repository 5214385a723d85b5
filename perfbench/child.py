"""One cold pass of gsoscheck command lines, run in a fresh interpreter.

Reads a job from standard input as JSON:

    {"src": "<path to src>", "commands": [[argv...], ...],
     "trace": false, "spans": "<file for the stored spans, optional>"}

and prints one JSON object on standard output: the set-up time, then for
each command line its wall time, exit code and report (without
``wall_time_s``), the peak resident set size after the pass and, when
traced, the per-layer metrics.  With no commands it only measures set-up.
An exception raised by a command is recorded as that operation's error; the
remaining commands still run.

The job ``{"reference": true}`` instead times ``reference()``, a fixed loop
that does not touch gsoscheck, and prints ``{"reference_s": ...}``.
"""
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class _Tree:
    tag: str
    kids: tuple = ()


def _build(depth: int, i: int) -> _Tree:
    if depth == 0:
        return _Tree("leaf" if i % 3 else "stop")
    return _Tree("node", (_build(depth - 1, i), _build(depth - 1, i + depth)))


def _size(tree: _Tree) -> int:
    return 1 + sum(_size(k) for k in tree.kids)


def reference() -> float:
    """Seconds for a fixed loop of the kind gsoscheck spends its time on:
    frozen-dataclass trees built, hashed recursively as dictionary keys and
    walked.  It tells how fast this machine runs Python at the moment."""
    started = time.perf_counter()
    seen = {}
    nodes = 0
    for i in range(600):
        tree = _build(6, i)
        seen[i % 40, tree] = seen.get((i % 40, tree), 0) + 1
        nodes += _size(tree)
    if nodes != 600 * 127:
        raise AssertionError("reference loop miscounted")
    return time.perf_counter() - started


def main() -> int:
    job = json.load(sys.stdin)
    if job.get("reference"):
        print(json.dumps({"reference_s": reference()}))
        return 0
    sys.path.insert(0, job["src"])

    started = time.perf_counter()
    from gsoscheck import cli
    from gsoscheck.compilers import compiler_registry
    from gsoscheck.languages import language_registry
    language_registry()
    compiler_registry()
    result = {"setup_s": time.perf_counter() - started, "ops": []}
    if not job["commands"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for argv in job["commands"]:
        if tracer:
            tracer.open("command " + " ".join(argv[:3]))
        op = {"argv": argv}
        started = time.perf_counter()
        try:
            code, report, _ = cli.execute(list(argv))
        except Exception as err:  # the benchmark counts it as a failed operation
            op["error"] = f"{type(err).__name__}: {err}"
        else:
            op["exit"] = code
            op["report"] = asdict(report)
            op["report"].pop("wall_time_s")
        op["s"] = time.perf_counter() - started
        if tracer:
            tracer.close()
        result["ops"].append(op)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
