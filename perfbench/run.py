"""Benchmark of the origamis library: four workloads timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-suites --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload orn-lifts --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run sets the workload up in fresh interpreters several times (`setup_s`),
then runs whole passes, each in fresh interpreters, until `--seconds` have
passed; every pass is checked against the paper's values or invariants.
Times are CPU seconds of the processes scaled to a reference host speed by
the probe of `speed.py`, which runs inside each timed process. With
`--trace 1` it runs one traced pass instead and reports the per-layer
metrics. The second-to-last stdout line is the full
result record (stages, samples, hashes, provenance); the last line is the
summary `{"correct", "attempted", "failed", "metrics"}`. `--out FILE` also
appends the record to FILE, and `--compare` reads two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import COUNTS, TOTALS, span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOADS = ("paper-suites", "orn-lifts", "random-origamis", "readme-cli")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _spawn(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one child to its end: (wall seconds, CPU seconds, the process)."""
    cpu = _children_cpu_s()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, env=_env(), cwd=ROOT,
                          capture_output=True, timeout=170)
    return time.perf_counter() - start, _children_cpu_s() - cpu, proc


def _child(*args: str) -> list[str]:
    return [str(HERE / "child.py"), *args]


# -- one pass -------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.pass_s = 0.0      # CPU time scaled to the reference speed
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.probes = {"probe_count": 0, "probe_s": 0.0}
        self.stages: dict[str, float] = {}
        self.ops: list[dict] = []          # name, ok, and error when failed
        self.sha256: dict[str, str] = {}
        self.trace: list[dict] = []        # span snapshots, one per process

    def fail(self, name: str, why: str) -> None:
        self.ops.append({"name": name, "ok": False, "error": why})

    def add_process(self, wall_s: float, cpu_s: float, probes: dict | None,
                    check_s: float = 0.0) -> float:
        """Count one process; returns its scaled seconds (traced: wall)."""
        self.wall_s += wall_s - check_s
        if probes is None:       # traced: wall time only
            self.pass_s += wall_s - check_s
            return wall_s - check_s
        for key in self.probes:
            self.probes[key] += probes[key]
        work = cpu_s - probes["probe_s"] - check_s
        scaled = work * speed.scale(probes)
        self.cpu_s += work
        self.pass_s += scaled
        return scaled


def command_pass(commands, trace: bool) -> PassResult:
    """Each command in a fresh `origamis` process; checks read its JSON."""
    result = PassResult()
    for stage, argv, check in commands:
        seconds, cpu, proc = _spawn(_child("cli" if trace else "run", *argv))
        result.sha256[stage] = hashlib.sha256(proc.stdout).hexdigest()
        try:
            record = json.loads(proc.stderr.splitlines()[-1])
        except (IndexError, ValueError):
            result.wall_s += seconds
            result.fail(stage, "no span or probe record on stderr: "
                        f"{proc.stderr.decode(errors='replace')[-300:]}")
            continue
        if trace:
            result.trace.append(record)
        scaled = result.add_process(seconds, cpu, None if trace else record)
        if stage.endswith("_s"):
            result.stages[stage] = scaled
        if proc.returncode != 0:
            result.fail(stage, f"exit code {proc.returncode}: "
                        f"{proc.stderr.decode(errors='replace')[-300:]}")
            continue
        try:
            ok = bool(check(json.loads(proc.stdout)))
        except (ValueError, KeyError, TypeError, StopIteration) as err:
            result.fail(stage, f"unreadable report: {err!r}")
            continue
        if not ok:
            result.fail(stage, "wrong answer")
            continue
        result.ops.append({"name": stage, "ok": True})
    return result


def library_pass(name: str, seed: int, quick: bool, trace: bool) -> PassResult:
    """One pass in a fresh interpreter; the child times and checks each call."""
    argv = _child("pass", name, str(seed)) + (["--quick"] if quick else []) + \
        (["--trace"] if trace else [])
    seconds, cpu, proc = _spawn(argv)
    result = PassResult()
    if proc.returncode != 0:
        result.wall_s = result.pass_s = seconds
        result.fail(name, proc.stderr.decode(errors="replace")[-300:])
        return result
    data = json.loads(proc.stdout.splitlines()[-1])
    result.add_process(seconds, cpu, data["probes"], data["check_s"])
    result.stages = {k: v for k, v in data["stages"].items() if k.endswith("_s")}
    if name == "random-origamis":
        result.stages["surfaces_per_s"] = data["stages"]["surfaces"] / result.pass_s
    result.ops = data["ops"]
    result.sha256[name] = data["answers_sha256"]
    if data["trace"]:
        result.trace.append(data["trace"])
    return result


def run_pass(name: str, seed: int, quick: bool, trace: bool) -> PassResult:
    if name == "paper-suites":
        return command_pass(workloads.QUICK_PAPER_SUITES if quick
                            else workloads.PAPER_SUITES, trace)
    if name == "readme-cli":
        return command_pass(workloads.QUICK_README_COMMANDS if quick
                            else workloads.README_COMMANDS, trace)
    return library_pass(name, seed, quick, trace)


def time_setup(name: str, seed: int, quick: bool) -> tuple[float, float, dict]:
    """Time one set-up: (wall seconds, CPU seconds less probes, probes)."""
    seconds, cpu, proc = _spawn(_child("setup", name, str(seed))
                                + (["--quick"] if quick else []))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    probes = json.loads(proc.stdout.splitlines()[-1])
    return seconds, cpu - probes["probe_s"], probes


# -- metrics --------------------------------------------------------------------


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if span in TOTALS:
            units[f"{span}.total_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["trace.coverage"] = "share"
    units["trace.overhead"] = "share"
    return units


def per_layer_metrics(snapshots: list[dict], wall: float) -> dict[str, float]:
    """Sum the span snapshots of a traced pass's processes."""
    values = dict.fromkeys(per_layer_units(), 0)
    top = overhead = 0.0
    for snap in snapshots:
        top += snap["top_s"]
        overhead += snap["overhead_s"]
        for span, stats in snap["spans"].items():
            for key in ("calls", "self_s", "total_s"):
                metric = f"{span}.{key}"
                if metric in values:
                    values[metric] += stats[key]
        for count, value in snap["counts"].items():
            values[count] += value
    values["trace.coverage"] = top / wall
    values["trace.overhead"] = overhead / (wall - overhead)
    return values


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def provenance() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "origamis").glob("*.py")))
    return {"python": platform.python_version(), "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "src_lines": src_lines}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> tuple[dict, dict]:
    """Returns (full record, summary line)."""
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "quick": quick, "provenance": provenance()}
    passes = []
    if trace:
        passes = [run_pass(name, seed, quick, trace=True)]
        metrics = per_layer_metrics(passes[0].trace, passes[0].wall_s)
        units = per_layer_units()
        record["samples"] = {"traced_wall_s": [passes[0].wall_s]}
    else:
        repeats = 1 if quick else SETUP_REPEATS
        setups = [time_setup(name, seed, quick) for _ in range(repeats)]
        # a set-up runs only a few probes, so the run's set-ups share them
        setup_scale = speed.scale({
            "probe_count": sum(s[2]["probe_count"] for s in setups),
            "probe_s": sum(s[2]["probe_s"] for s in setups)})
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(name, seed, quick, trace=False))
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        scaled_setups = [s[1] * setup_scale for s in setups]
        metrics = {"pass_s": statistics.median(p.pass_s for p in passes),
                   "setup_s": statistics.median(scaled_setups),
                   "peak_rss_mb": rss_kb / 1024}
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        record["samples"] = {
            "pass_s": [p.pass_s for p in passes],
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "probe_ms": [1000 * p.probes["probe_s"] / p.probes["probe_count"]
                         for p in passes if p.probes["probe_count"]],
            "setup_s": scaled_setups,
            "setup_wall_s": [s[0] for s in setups]}
        record["raw"] = {"wall_s": statistics.median(record["samples"]["wall_s"]),
                         "cpu_s": statistics.median(record["samples"]["cpu_s"])}
        record["stages"] = {
            stage: statistics.median([p.stages[stage] for p in passes
                                      if stage in p.stages])
            for stage in passes[0].stages}
    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if not op["ok"]]
    record["fail_share"] = len(failures) / len(ops) if ops else 1.0
    record["failures"] = [{k: op.get(k) for k in ("name", "error", "known")}
                          for op in failures]
    record["stdout_sha256"] = passes[0].sha256
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    correct = bool(ops) and all(op.get("known") for op in failures)
    summary = {"correct": correct, "attempted": len(ops),
               "failed": len(failures), "metrics": record["metrics"]}
    return record, summary


# -- compare mode ---------------------------------------------------------------


def _load_records(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"] and not rec["quick"]:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def compare(old_path: str, new_path: str) -> int:
    """One row per workload x metric: medians, quartiles, delta, verdict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    old, new = _load_records(old_path), _load_records(new_path)
    header = ("workload", "metric", "old median [q1, q3] n",
              "new median [q1, q3] n", "delta", "verdict")
    rows = [header]
    for name in WORKLOADS:
        if name not in old or name not in new:
            continue
        metrics = list(rules) + sorted(old[name][0].get("stages", {})) + \
            sorted(old[name][0].get("raw", {}))
        for metric in metrics:
            better, bound = rules.get(metric, (
                "higher" if metric.endswith("_per_s") else "lower",
                rules["pass_s"][1]))
            a = [_value(r, metric) for r in old[name]]
            b = [_value(r, metric) for r in new[name]]
            a, b = [x for x in a if x is not None], [x for x in b if x is not None]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = mb / ma - 1
            worse = delta if better == "lower" else -delta
            spread = max((q[1] - q[0]) / m
                         for q, m in ((_quartiles(a), ma), (_quartiles(b), mb)))
            all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append((name, metric, _fmt(ma, _quartiles(a), len(a)),
                         _fmt(mb, _quartiles(b), len(b)), f"{delta:+.1%}",
                         verdict))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


def _value(record: dict, metric: str):
    if metric in record["metrics"]:
        return record["metrics"][metric]["value"]
    if metric in record.get("raw", {}):
        return record["raw"][metric]
    return record.get("stages", {}).get(metric)


def _fmt(median: float, quartiles: list[float], n: int) -> str:
    return f"{median:.4g} [{quartiles[0]:.4g}, {quartiles[1]:.4g}] n={n}"


# -- quick mode -----------------------------------------------------------------


def quick() -> int:
    """Smallest sizes of every workload, both modes; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if expected[1] != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the tracer")
    for name in WORKLOADS:
        for trace in (0, 1):
            _, summary = run_workload(name, 1, 0, bool(trace), quick=True)
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            where = f"{name} --trace {trace}"
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: summary keys {sorted(summary)}")
            if got != expected[trace]:
                problems.append(f"{where}: metric names or units differ")
            if not all(isinstance(v["value"], (int, float))
                       for v in summary["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not summary["correct"] or summary["failed"]:
                problems.append(f"{where}: {summary['failed']} failed")
            print(f"quick {where}: attempted {summary['attempted']}, "
                  f"failed {summary['failed']}", flush=True)
    for problem in problems:
        print("quick: " + problem, file=sys.stderr)
    print("quick: " + ("schema ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes of every workload; schema check")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files written by --out")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "origamis" / "__init__.py").is_file():
        print(f"no origamis sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if not args.workload:
        parser.error("--workload is required")
    record, summary = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(line + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
