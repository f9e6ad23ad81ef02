"""End-to-end benchmark of the simulator: host speed, set-up time, memory.

Every measurement is one fresh child process (``child.py``) that sets up
and runs one workload in one host thread; children run one at a time.
The simulated outputs are checked exactly on every run (see README.md).

Full suite (R untraced runs per workload, round-robin, then one
cProfile-traced run per workload; prints every metric, writes JSON)::

    python benchmarks/e2e/run.py [--seed N] [--repeats R] \\
        [--workloads a,b] [--out FILE]

One timed run of one workload, ending in one JSON result line (the
interface ``BENCHMARK.json`` names)::

    python benchmarks/e2e/run.py --workload kmc-remote --seed 3 \\
        --seconds 20 --trace 0

Gate a result set against a baseline, and regenerate the golden digests
after a deliberate behaviour change::

    python benchmarks/e2e/run.py compare BASE.json NEW.json
    python benchmarks/e2e/run.py --write-expected
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = BENCH_DIR / "expected.json"
DEFAULT_OUT = BENCH_DIR / "out" / "e2e.json"

DEFAULT_REPEATS = 5
#: Untraced runs per one-workload invocation, however short --seconds is.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
SCHEMA = 2


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs, hash seed pinned,
    and numpy's OpenBLAS held to the one host thread the child runs in (by
    default it starts a thread per core at import, which took 40 to 90 ms
    of set-up on a 2-core host)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(workload: str, seed: int, requests: int, mode: str) -> dict:
    """One child in ``mode`` (see ``child.MODES``); a crashed or timed-out
    child comes back with errors."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--requests", str(requests), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"exit {proc.returncode}: " + " | ".join(tail)]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median; 0 for a
    single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _stats(value: float, values: list[float]) -> dict:
    return {"value": value, "spread": spread(values), "n": len(values),
            "values": values}


def expected_digest(workload: str, seed: int, requests: int) -> str | None:
    """The golden digest, when one is committed for (seed, requests)."""
    if not EXPECTED_FILE.is_file():
        return None
    golden = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    if golden["seed"] != seed or golden["requests"] != requests:
        return None
    return golden["digests"].get(workload)


def summarize(workload: str, seed: int, requests: int,
              untraced: list[dict], traced: dict | None) -> dict:
    """Fold one workload's children into its metrics and correctness verdict.

    A child fails when it crashed, when its own checks failed, or when its
    digest differs from the golden one (default seed) or else from the
    first good untraced run.  Only children that passed are measured.
    """
    children = untraced + ([traced] if traced is not None else [])
    golden = expected_digest(workload, seed, requests)
    reference = golden or next(
        (r["digest"] for r in untraced if "digest" in r and not r["errors"]), None)
    failures, passed = [], []
    for r in children:
        problems = list(r["errors"])
        if "digest" in r and r["digest"] != reference:
            problems.append(f"digest {r['digest'][:12]} != {str(reference)[:12]}")
        if problems:
            failures.append(problems)
        elif r is not traced:
            passed.append(r)
    out: dict = {"digest": reference, "runs": len(children),
                 "failed_runs": len(failures), "failures": failures,
                 "end_to_end": {}, "per_layer": {}, "exact": {}}
    if not passed:
        return out

    def median_ref(key: str) -> float:
        return statistics.median(r["ref_s"][key] for r in passed)

    rates = [requests / r["ref_s"]["run_s"] for r in passed]
    setup_s = [r["ref_s"]["setup_s"] for r in passed]
    rss = [r["peak_rss_mb"] for r in passed]
    out["end_to_end"] = {
        "host_req_per_s": _stats(statistics.median(rates), rates),
        "setup_s": _stats(statistics.median(setup_s), setup_s),
        "peak_rss_mb": _stats(statistics.median(rss), rss),
    }
    exact = dict(passed[0]["exact"])
    layer = {
        "sim.engine.us_per_event": median_ref("run_s") * 1e6 / passed[0]["events"],
        "setup.import_s": median_ref("import_s"),
        "traces.synth_s": median_ref("synth_s"),
        "experiments.build_s": median_ref("build_s"),
    }
    if traced is not None and not traced["errors"]:
        exact.update(traced["exact"])
        total = sum(traced["self_time"].values())
        for name, secs in traced["self_time"].items():
            layer[f"{name}.self_share"] = secs / total
        untraced_s = statistics.median(r["host_s"]["run_s"] for r in passed)
        layer["trace_overhead_x"] = traced["host_s"]["run_s"] / untraced_s
    out["exact"] = dict(sorted(exact.items()))
    out["per_layer"] = dict(sorted({**exact, **layer}.items()))
    return out


def _provenance() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def _warm_bytecode() -> None:
    """Compile the package once so no timed child pays for it."""
    compileall.compile_dir(str(child.SRC / "repro"), quiet=1)


def one_workload(args: argparse.Namespace) -> int:
    """The ``--workload`` interface: untraced runs for ``--seconds``
    (at least MIN_RUNS; no run is started that would overrun), then
    one JSON line of the end-to-end (``--trace 0``) or per-layer
    (``--trace 1``, after one traced run) metrics ``BENCHMARK.json`` names."""
    spec = load_spec()
    requests = child.DEFAULT_REQUESTS
    start = time.perf_counter()  # simlint: disable=SL02 -- run length is host time
    untraced: list[dict] = []
    elapsed, last_s = 0.0, 0.0
    while len(untraced) < MIN_RUNS or elapsed + last_s <= args.seconds:
        untraced.append(run_child(args.workload, args.seed, requests, "run"))
        now = time.perf_counter() - start  # simlint: disable=SL02 -- run length is host time
        elapsed, last_s = now, now - elapsed
    traced = run_child(args.workload, args.seed, requests, "traced") if args.trace else None
    summary = summarize(args.workload, args.seed, requests, untraced, traced)
    for problems in summary["failures"]:
        print(f"{args.workload}: run failed: {'; '.join(problems)}", file=sys.stderr)
    if args.trace:
        wanted, values = spec["per_layer"], summary["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {k: v["value"] for k, v in summary["end_to_end"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = summary["failed_runs"] == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": summary["runs"],
                      "failed": summary["failed_runs"], "metrics": metrics}))
    return 0 if correct else 1


def suite(args: argparse.Namespace) -> int:
    """The full suite: R untraced runs of each, then one traced run each."""
    spec = load_spec()
    requests = child.DEFAULT_REQUESTS
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
        unknown = sorted(set(names) - set(child.WORKLOADS))
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            return 2
    start = time.perf_counter()  # simlint: disable=SL02 -- wall time of the suite is reported
    untraced: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.repeats):
        for w in names:
            untraced[w].append(run_child(w, args.seed, requests, "run"))
            print(f"[{i + 1}/{args.repeats}] {w}", file=sys.stderr)
    traced = {}
    for w in names:
        traced[w] = run_child(w, args.seed, requests, "traced")
        print(f"[traced] {w}", file=sys.stderr)
    result = {
        "schema": SCHEMA, "seed": args.seed, "requests": requests,
        "repeats": args.repeats, **_provenance(),
        "workloads": {w: summarize(w, args.seed, requests, untraced[w], traced[w])
                      for w in names},
    }
    result["wall_s"] = time.perf_counter() - start  # simlint: disable=SL02 -- wall time of the suite is reported
    print(render(result, spec))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[saved to {out}]")
    return 0 if all(s["failed_runs"] == 0 for s in result["workloads"].values()) else 1


def render(result: dict, spec: dict) -> str:
    """Every metric by name with its unit, one block per workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"seed {result['seed']}, {result['requests']} requests, "
             f"{result['repeats']} untraced runs + 1 traced run, "
             f"git {result['git_sha'][:12]}, python {result['python']}, "
             f"nproc {result['nproc']}, {result['wall_s']:.0f} s"]
    for w, s in result["workloads"].items():
        lines.append(f"\n{w}  digest {str(s['digest'])[:16]}  "
                     f"failed_runs {s['failed_runs']} of {s['runs']}")
        for name, v in s["end_to_end"].items():
            lines.append(f"  {name:<38} {v['value']:>12.4f} {units[name]:<6}"
                         f" (spread {v['spread']:.1%}, n={v['n']})")
        for name, v in s["per_layer"].items():
            lines.append(f"  {name:<38} {v:>12.4f} {units[name]}")
    return "\n".join(lines)


def compare(base_path: str, new_path: str) -> int:
    """Gate NEW against BASE with ``BENCHMARK.json``'s bounds; 1 on regression.

    A value worse than its bound fails.  Within the bound, a metric is
    "unresolved" when either side's runs spread (quartile distance over
    median) wider than the bound, unless every new run beats every base
    run.  Digests and exact per-layer metrics must be equal when seed and
    size match, and the new set must have no failed run.
    """
    spec = load_spec()
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    same_inputs = (base["seed"], base["requests"]) == (new["seed"], new["requests"])
    failed = False
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][w], new["workloads"][w]
        cells = []
        if n["failed_runs"]:
            failed = True
            cells.append(f"failed_runs {n['failed_runs']} FAIL")
        for m in spec["end_to_end"]:
            verdict, text = _judge(m, b["end_to_end"].get(m["name"]),
                                   n["end_to_end"].get(m["name"]))
            failed |= verdict == "FAIL"
            cells.append(f"{m['name']} {text} {verdict}")
        if same_inputs:
            diffs = [k for k in sorted(b["exact"].keys() | n["exact"].keys())
                     if b["exact"].get(k) != n["exact"].get(k)]
            if b["digest"] != n["digest"]:
                diffs.insert(0, "digest")
            failed |= bool(diffs)
            cells.append("exact ok" if not diffs else
                         f"exact FAIL ({', '.join(diffs)})")
        print(f"{w:<13} " + " | ".join(cells))
    return 1 if failed else 0


def _judge(metric: dict, base: dict | None, new: dict | None) -> tuple[str, str]:
    if base is None or new is None:
        return "FAIL", "missing"
    bound = metric["bound"]
    change = new["value"] / base["value"] - 1.0
    worse = -change if metric["better"] == "higher" else change
    text = f"{change:+.1%}"
    if worse > bound:
        return "FAIL", text
    if metric["better"] == "higher":
        dominates = min(new["values"]) > max(base["values"])
    else:
        dominates = max(new["values"]) < min(base["values"])
    if max(base["spread"], new["spread"]) > bound and not dominates:
        return "unresolved", text
    return "ok", text


def write_expected() -> int:
    """Record the golden digest of every workload at the default inputs."""
    digests = {}
    for w in child.WORKLOADS:
        r = run_child(w, child.DEFAULT_SEED, child.DEFAULT_REQUESTS, "run")
        if r["errors"]:
            print(f"{w}: {'; '.join(r['errors'])}", file=sys.stderr)
            return 1
        digests[w] = r["digest"]
    golden = {"seed": child.DEFAULT_SEED, "requests": child.DEFAULT_REQUESTS,
              "digests": digests}
    EXPECTED_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"[saved to {EXPECTED_FILE}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (child.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {child.SRC}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("base")
        ap.add_argument("new")
        cargs = ap.parse_args(argv[1:])
        return compare(cargs.base, cargs.new)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=child.DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", default=str(DEFAULT_OUT))
    ap.add_argument("--workload", choices=sorted(child.WORKLOADS),
                    help="time this one workload for --seconds")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)
    _warm_bytecode()
    if args.write_expected:
        return write_expected()
    if args.workload:
        return one_workload(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
