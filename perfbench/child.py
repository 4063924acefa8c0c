"""One fresh interpreter of the benchmark: a set-up probe, a pass or a command.

    child.py setup WORKLOAD SEED [--quick]        set up, then exit
    child.py pass WORKLOAD SEED [--quick] [--trace]
        run one pass of an in-process workload; the last stdout line is JSON
    child.py run ARGS...
        run `origamis ARGS...`; stdout is the command's own, and the last
        stderr line holds the speed probes as JSON
    child.py cli ARGS...
        the same with spans; the last stderr line holds the spans as JSON

Untraced processes run the speed probe of `speed.py` from their start; the
parent scales their CPU time by it. `run.py` starts these with `src/` first
on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import workloads
from speed import Sampler
from tracer import IMPORT_SPAN, Tracer


def _traced_import() -> Tracer:
    tracer = Tracer()
    tracer.call(IMPORT_SPAN, importlib.import_module, ("origamis.cli",), {})
    tracer.install()
    return tracer


def setup(name: str, seed: int, quick: bool):
    if name in workloads.IN_PROCESS:
        return workloads.IN_PROCESS[name][0](seed, quick)
    return workloads.setup_commands(seed, quick)


def run_pass(name: str, seed: int, quick: bool, trace: bool) -> dict:
    tracer = _traced_import() if trace else None
    sampler = None if trace else Sampler()
    if sampler:
        sampler.start()
    make, body = workloads.IN_PROCESS[name]
    state = make(seed, quick)
    p = workloads.Pass(tracer, sampler)
    stages = body(p, state)
    return {"ops": p.ops, "stages": stages, "check_s": p.check_s,
            "answers_sha256": workloads.answers_digest(p.answers),
            "probes": sampler.stop() if sampler else None,
            "trace": tracer.snapshot() if tracer else None}


def run_cli(argv: list[str], trace: bool) -> int:
    if trace:
        tracer = _traced_import()
    else:
        sampler = Sampler()
        sampler.start()
        importlib.import_module("origamis.cli")
    code = sys.modules["origamis.cli"].run(argv)
    sys.stdout.flush()
    record = tracer.snapshot() if trace else sampler.stop()
    print(json.dumps(record), file=sys.stderr)
    return code


def main() -> int:
    if sys.argv[1:2] in (["cli"], ["run"]):
        return run_cli(sys.argv[2:], trace=sys.argv[1] == "cli")
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        sampler = Sampler()
        sampler.start()
        setup(args.workload, args.seed, args.quick)
        print(json.dumps(sampler.stop()))
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.quick, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
