"""Benchmark of the xctangle library: seeded workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload knots|certify|calculus \\
        --seed N --seconds S --trace 0|1

The run compiles ``src/xctangle``, measures set-up in several fresh
interpreters, builds the workload's inputs from the seed, then repeats
whole passes over them (each item checked against its reference) until
``--seconds`` have passed, always at least one pass.  It prints one line
per metric and, last, one JSON object.  With ``--trace 0`` the metrics are
the end-to-end ones, their times read at the nominal pace of ``pace.py``;
with ``--trace 1`` untraced passes are followed by as
many seconds of traced passes, the per-layer metrics come from the traced
spans, and the spans are written to ``perfbench/out/``.

Single process, single thread, one workload per run.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from pace import Pace
from probe import timed_setup
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters

KNOTS_CROSSINGS = range(3, 10)
PATTERN_KINDS = ("G0r", "G0", "G1f", "G2", "G2p", "G3")
# per-layer metrics that are medians of per-call span durations
CALL_SPANS = ("invariant.zeval", "invariant.long_knot_scalar",
              "virtualt.lift", "virtualt.bracket_oracle",
              "algebra.check_axioms", "moves.orbit", "moves.find_sites",
              "moves.apply", "polyak.map_I", "polyak.map_I_inverse",
              "polyak.framing_formula")
COUNTS = ("invariant.long_knot_scalar.fail", "moves.orbit.members",
          "moves.find_sites.sites", "polyak.map_I.terms")


def run_pass(items, tracer) -> dict:
    """One pass over ``items``; records each item's start and end."""
    tracer.begin_pass()
    spans, causes = [], []
    for item_id, fn in items:
        tracer.begin_item(item_id)
        t0 = perf_counter()
        try:
            cause = fn(tracer)
        except Exception as exc:  # an item failure is counted, never raised
            traceback.print_exc(file=sys.stderr)
            cause = f"raised {type(exc).__name__}"
        spans.append((t0, perf_counter()))
        tracer.end_item()
        causes.append(cause)
    return {"spans": spans, "causes": causes}


def run_passes(items, tracer, seconds: float, paced: bool) -> list[dict]:
    """Whole passes until ``seconds`` have passed, at least one.  Each
    pass gets ``times``, its item times: at the nominal pace if ``paced``,
    else the raw wall times.  ``wall`` is their sum, the time to all of the
    pass's verdicts."""
    passes = []
    pace = Pace()
    start = perf_counter()
    with pace if paced else contextlib.nullcontext():
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(items, tracer))
    for p in passes:
        p["raw"] = [t1 - t0 - pace.paused(t0, t1) for t0, t1 in p["spans"]]
        p["times"] = ([pace.nominal(t0, t1) for t0, t1 in p["spans"]]
                      if paced else p["raw"])
        p["wall"] = sum(p["times"])
    return passes


def p90(values) -> float:
    """Linearly interpolated 90th percentile."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def outputs_correct(causes, allowed) -> bool:
    """False as soon as one item failed with a cause that is not among the
    workload's ``allowed`` refusals: a wrong value or a raised exception."""
    return all(c is None or c in allowed for c in causes)


def end_to_end(passes, setup_s: float) -> dict:
    times = [t for p in passes for t in p["times"]]
    attempted = len(times)
    failed = sum(c is not None for p in passes for c in p["causes"])
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms"),
        "item_p90_ms": (1e3 * p90(times), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tracer, plain, traced) -> dict:
    """Per-layer metrics from the traced passes' spans and counts.  A layer
    that the workload never calls reads 0."""
    durations: dict[str, list[float]] = {}
    per_pass: dict[str, list[float]] = {}
    item_total: dict[int, float] = {}
    child_total: dict[int, float] = {}
    npass = len(traced)
    for i, (name, start, end, parent, _item, pno, tag) in enumerate(
            tracer.spans):
        dt = end - start
        if name == "item":
            item_total[i] = dt
            continue
        child_total[parent] = child_total.get(parent, 0.0) + dt
        durations.setdefault(name, []).append(dt)
        if name == "invariant.zeval":
            durations.setdefault(f"{name}.c{tag}", []).append(dt)
        if name == "moves.validate_pattern":
            sums = per_pass.setdefault(f"{name}.{tag}", [0.0] * npass)
            sums[pno] += dt
    check = [0.0] * npass
    for i, dt in item_total.items():
        check[tracer.spans[i][5]] += dt - child_total.get(i, 0.0)

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {f"{n}.s": (med(durations.get(n)), "s") for n in CALL_SPANS}
    for c in KNOTS_CROSSINGS:
        out[f"invariant.zeval.s.c{c}"] = (
            med(durations.get(f"invariant.zeval.c{c}")), "s")
    for kind in PATTERN_KINDS:
        out[f"moves.validate_pattern.s.{kind}"] = (
            med(per_pass.get(f"moves.validate_pattern.{kind}")), "s")
    for n in COUNTS:
        out[n] = (tracer.counts[0].get(n, 0), "count")
    out["bench.check.s"] = (med(check), "s")
    out["bench.trace_overhead.s"] = (
        statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in plain), "s")
    return out


def setup_samples(workload: str, n: int) -> list[float]:
    """Set-up seconds measured in ``n`` fresh interpreters."""
    out = []
    for _ in range(n):
        res = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("knots", "certify", "calculus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "xctangle" / "__init__.py").is_file():
        print(f"perfbench: no xctangle sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so that no timed import compiles
    if not compileall.compile_dir(SRC / "xctangle", quiet=1):
        print("perfbench: byte-compiling src/xctangle failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    samples = setup_samples(args.workload, SETUP_SAMPLES - 1)
    algebra, own = timed_setup(args.workload)
    samples.append(own)
    import workloads  # after the timed set-up, which imports xctangle

    items = workloads.WORKLOADS[args.workload](args.seed, algebra)
    plain = run_passes(items, Tracer(False), args.seconds,
                       paced=not args.trace)
    measured = plain
    if args.trace:
        tracer = Tracer(True)
        traced = run_passes(items, tracer, args.seconds, paced=False)
        measured = plain + traced
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(tracer, plain, traced)
    else:
        metrics = end_to_end(plain, statistics.median(samples))

    causes = [c for p in measured for c in p["causes"] if c is not None]
    attempted = sum(len(p["causes"]) for p in measured)
    n_items = len(items)
    print(f"workload {args.workload}: seed {args.seed}, {n_items} items "
          f"per pass, {len(plain)} untraced pass(es)"
          + (f", {len(measured) - len(plain)} traced" if args.trace else ""))
    print("setup samples at the nominal pace (s): "
          + ", ".join(f"{x:.4f}" for x in samples))
    for cause in sorted(set(causes)):
        print(f"failed items, cause {cause!r}: {causes.count(cause)}")
    if not args.trace:
        times = [t for p in plain for t in p["times"]]
        cut = p90(times)
        print(f"item quantiles over {len(times)} item samples, "
              f"{sum(t > cut for t in times)} of them beyond p90")
        for i, p in enumerate(plain, start=1):
            print(f"pass {i}: {p['wall']:.4f} s at the nominal pace, "
                  f"{sum(p['raw']):.4f} s of wall time")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outputs_correct(
            causes, workloads.EXPECTED_REFUSALS[args.workload]),
        "attempted": attempted,
        "failed": len(causes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
