"""Benchmark for shellball: one workload, one seed, one run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lattice-minors --seed 1 --seconds 30 --trace 0

One process, one thread.  The run imports shellball from ``src/`` and builds
the workload's inputs (its set-up, repeated before every pass), then makes
passes over the workload's corpus, each in an order shuffled by the seed,
until the next pass would overrun ``--seconds`` (at least one pass).  Every
instance's output is checked against its pin.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics named in ``BENCHMARK.json`` with their units.
With ``--trace 0`` they are the end-to-end metrics, medians over the
passes.  With ``--trace 1`` untraced and traced passes alternate; the traced
ones give the per-layer metrics (medians over traced passes), check that the
workload stresses the layer it is meant to, and write every span to
``perfbench/out/``.  DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, CheckInstance, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_PASS = 5


def load_shellball():
    """Import shellball and its CLI afresh, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == "shellball" or k.startswith("shellball.")]:
        del sys.modules[key]
    sb = importlib.import_module("shellball")
    importlib.import_module("shellball.cli")
    return sb


def setup(workload, seed: int):
    """Import shellball afresh and build the workload's inputs; returns the jobs."""
    sb = load_shellball()
    if Path(sb.__file__).resolve().parent != SRC / "shellball":
        raise ImportError(f"shellball was imported from {sb.__file__}, not from {SRC}")
    return [(inst, inst.prepare(sb, seed)) for inst in workload.instances]


def run_pass(jobs, rng: random.Random, tracer: Tracer | None) -> dict[str, Outcome]:
    order = list(jobs)
    rng.shuffle(order)
    outcomes = {}
    for inst, run in order:
        gc.collect()
        if tracer is not None:
            tracer.request = inst.name
        try:
            outcome = run()
        except Exception as exc:  # a failed instance is counted, the run goes on
            outcome = Outcome(0.0, "error", (f"{type(exc).__name__}: {exc}",))
        outcomes[inst.name] = outcome
        for problem in outcome.problems:
            print(f"FAILED {inst.name}: {problem}", file=sys.stderr)
    return outcomes


def measure(workload, seed: int, seconds: float, trace: bool):
    """Passes until the next one would overrun `seconds`.

    Before each pass the set-up is repeated SETUPS_PER_PASS times, so the
    set-up samples are spread over the whole run like the passes are.
    Returns the set-up times, the untraced passes and the traced passes.
    """
    rng = random.Random(seed)
    setup_times: list[float] = []
    plain: list[dict[str, Outcome]] = []
    traced: list[tuple[dict[str, Outcome], Tracer]] = []
    longest = {False: 0.0, True: 0.0}
    start = perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            begun = perf_counter()
            jobs = setup(workload, seed)
            setup_times.append(perf_counter() - begun)
        with_trace = trace and len(traced) < len(plain)
        begun = perf_counter()
        if with_trace:
            tracer = Tracer()
            tracer.install()
            try:
                outcomes = run_pass(jobs, rng, tracer)
            finally:
                tracer.uninstall()
            traced.append((outcomes, tracer))
        else:
            outcomes = run_pass(jobs, rng, None)
            plain.append(outcomes)
        longest[with_trace] = max(longest[with_trace], perf_counter() - begun)
        kind = "traced" if with_trace else "untraced"
        print(f"{kind} pass: {pass_wall(outcomes):.3f} s", file=sys.stderr)
        done = bool(plain) and (bool(traced) or not trace)
        next_trace = trace and len(traced) < len(plain)
        if done and perf_counter() - start + longest[next_trace] > seconds:
            return setup_times, plain, traced


def pass_wall(outcomes: dict[str, Outcome]) -> float:
    return sum(o.seconds for o in outcomes.values())


def end_to_end(plain, setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(pass_wall(p) for p in plain),
        "slowest_instance_s": statistics.median(max(o.seconds for o in p.values()) for p in plain),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self seconds per traced function, work counters and layer self times of one pass."""
    out = {f"{name}.s": s for name, s in tracer.self_times().items()}
    out.update({f"layer.{layer}.self_s": s for layer, s in tracer.layer_self_times().items()})
    counts = tracer.counts
    out.update(counts)
    rank_calls = counts["exactrank.rank_int_columns.calls"] + counts["exactrank.rank_gf2_columns.calls"]
    subsets = counts["homology.subsets"]
    out["homology.rank_calls_per_subset"] = rank_calls / subsets if subsets else 0.0
    return out


def per_layer(plain, traced, attempted: int, failed: int) -> dict[str, float]:
    passes = [layer_metrics(tracer) for _, tracer in traced]
    names = set().union(*passes)
    out = {name: statistics.median(p.get(name, 0) for p in passes) for name in names}
    untraced_wall = statistics.median(pass_wall(p) for p in plain)
    traced_wall = statistics.median(pass_wall(p) for p, _ in traced)
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1
    out["failed_frac"] = failed / attempted
    return out


def stress_problems(workload, plain, traced) -> list[str]:
    """Checks that the workload exercises the layers it is meant to, and only those."""
    problems = []
    expected = {name: o.signature for name, o in plain[0].items()}
    for k, (outcomes, tracer) in enumerate(traced):
        calls = tracer.calls()
        for banned in workload.uncalled:
            n = sum(c for name, c in calls.items() if name == banned or name.startswith(banned + "."))
            if n:
                problems.append(f"traced pass {k}: {n} calls into {banned}")
        shares = tracer.layer_self_times()
        target = sum(shares[layer] for layer in workload.target)
        others = {layer: s for layer, s in shares.items() if layer not in workload.target}
        top = max(others, key=others.get)
        if others[top] >= target:
            problems.append(
                f"traced pass {k}: {top} has more self time ({others[top]:.3f} s) "
                f"than {'+'.join(workload.target)} ({target:.3f} s)"
            )
        for inst in workload.instances:
            if outcomes[inst.name].signature != expected[inst.name]:
                problems.append(f"traced pass {k}: {inst.name} output differs from the untraced pass")
            if isinstance(inst, CheckInstance) and "exactrank" not in workload.uncalled:
                used = tracer.calls(inst.name)
                want, other = "rank_int_columns", "rank_gf2_columns"
                if inst.field == 2:
                    want, other = other, want
                if not used[f"exactrank.{want}"] or used[f"exactrank.{other}"]:
                    problems.append(
                        f"traced pass {k}: {inst.name} made {used[f'exactrank.{want}']} {want} "
                        f"and {used[f'exactrank.{other}']} {other} calls"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "shellball" / "__init__.py").is_file():
        print(f"error: no shellball sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup_times, plain, traced = measure(workload, args.seed, args.seconds, bool(args.trace))

    runs = plain + [outcomes for outcomes, _ in traced]
    attempted = sum(len(p) for p in runs)
    failed = sum(1 for p in runs for o in p.values() if o.problems)
    problems = []
    if args.trace:
        problems = stress_problems(workload, plain, traced)
        for problem in problems:
            print(f"STRESS CHECK FAILED: {problem}", file=sys.stderr)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        for k, (_, tracer) in enumerate(traced):
            tracer.dump(spans_path, f"pass{k}")
        values = per_layer(plain, traced, attempted, failed)
        wanted = declared["per_layer"]
    else:
        values = end_to_end(plain, statistics.median(setup_times))
        wanted = declared["end_to_end"]

    print(
        f"{workload.name} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced passes",
        file=sys.stderr,
    )
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
