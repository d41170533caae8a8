#!/usr/bin/env python3
"""Benchmark of ``hypstab analyze`` and the torus-LP crosscheck.

Usage (from the repository root):

    python3 perfbench/run.py --workload families --seed 1 --seconds 10 --trace 0

One caller on one thread runs the operations of a pass in order, each after
the previous one returned (a closed loop), and repeats passes until
``--seconds`` have elapsed; a pass is never cut short.  ``analyze`` runs in
process through ``hypstab.cli.main`` at the CLI defaults (``--budget 50``,
height 3).  Every output is checked by ``check.py`` against references that
share no code with ``hypstab``.  Times are scaled to a reference host speed
by ``gauge.py``.  With ``--trace 1`` one more pass runs with every layer
wrapped (see ``spans.py``) and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the run exits with
status 2 and prints no result.
"""
import os

# Pin BLAS/OpenMP pools before numpy is imported: the loop is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # this process plus two fresh ones
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
# An operation faster than SHORT_OP_S runs again after the passes until it has
# MIN_SAMPLES latencies: on a shared host one sub-second reading varies by a
# third, and the median of readings taken apart in time varies much less.
SHORT_OP_S = 1.0
MIN_SAMPLES = 3


class MissingProgram(Exception):
    pass


def set_up(workload: str, seed: int, tag: str):
    """Import the program, generate the inputs and write the input files;
    returns (modules, inputs, paths, seconds taken)."""
    start = time.perf_counter()
    if not (SRC / "hypstab" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC / 'hypstab'}")
    sys.path.insert(0, str(SRC))
    import hypstab
    import hypstab.cli
    import hypstab.polynomials
    import hypstab.torus

    if Path(hypstab.__file__).resolve().parent != SRC / "hypstab":
        raise MissingProgram(f"hypstab was imported from {hypstab.__file__}, not {SRC}")
    inputs = workloads.build(workload, seed)
    workdir = WORK / f"{workload}-{seed}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, inp in enumerate(inputs):
        path = workdir / f"{i:03d}.poly"
        path.write_text(inp.text + "\n", encoding="utf-8")
        paths.append(path)
    modules = (hypstab.cli, hypstab.torus, hypstab.polynomials)
    return modules, inputs, paths, time.perf_counter() - start


def run_op(modules, inp, path) -> dict:
    """One operation; the result records the return code and output text."""
    cli, torus, polynomials = modules
    try:
        if inp.strict is None:
            argv = ["analyze", str(path), "--no-timestamp", "--json", "-",
                    "--seed", str(inp.analyze_seed)]
            if inp.fields:
                argv += ["--fields", inp.fields]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
        f = polynomials.parse_poly(inp.text, inp.n)
        decision = torus.torus_destabilize(f, inp.strict)
        witness = torus.enumerate_weight_oracle(f, inp.oracle_bound, inp.strict)
        out = {"lp": decision.to_json(), "oracle": list(witness.r) if witness else None}
        return {"rc": 0, "out": json.dumps(out, sort_keys=True)}
    except SystemExit as exc:
        return {"rc": exc.code, "out": "", "error": f"SystemExit({exc.code})"}
    except Exception as exc:  # an operation that raises counts as failed
        return {"rc": None, "out": "", "error": f"{type(exc).__name__}: {exc}"}


def timed_op(modules, inp, path, host):
    """(outcome, seconds, scaled seconds), leaving out the time spent in
    gauge readings."""
    spent, start = host.spent, time.perf_counter()
    outcome = run_op(modules, inp, path)
    end = time.perf_counter()
    seconds = end - start - (host.spent - spent)
    return outcome, seconds, seconds * host.scale(start, end)


def run_pass(modules, inputs, paths, host, tracer=None):
    """Outcomes, raw and scaled latencies of one pass over the inputs."""
    outcomes, raw, scaled = [], [], []
    for i, (inp, path) in enumerate(zip(inputs, paths)):
        if tracer is None:
            outcome, seconds, at_ref = timed_op(modules, inp, path, host)
        else:
            with tracer.op(i):
                outcome, seconds, at_ref = timed_op(modules, inp, path, host)
        outcomes.append(outcome)
        raw.append(seconds)
        scaled.append(at_ref)
    return outcomes, raw, scaled


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile, samples beyond).  With too few samples for any
    percentile to qualify, the maximum is reported with 0 beyond."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        return ordered[-1], 100.0, 0
    return ordered[k], 100.0 * k / (len(ordered) - 1), TAIL_BEYOND


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for i in range(1, SETUP_SAMPLES):
        tag = f"setup{i}"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only", tag],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(WORK / f"{workload}-{seed}-{tag}", ignore_errors=True)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        modules, inputs, paths, setup_s = set_up(
            args.workload, args.seed, args.setup_only or "main")
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s *= gauge.scale_now()
    if args.setup_only:
        print(repr(setup_s))
        return 0

    # Untraced passes: the end-to-end measurement.  samples[i] holds the
    # scaled latencies of operation i.
    samples, walls, raw_walls, first, nondeterministic = [[] for _ in inputs], [], [], None, []
    with gauge.Gauge() as host:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            outcomes, raw, scaled = run_pass(modules, inputs, paths, host)
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
            for op_samples, t in zip(samples, scaled):
                op_samples.append(t)
            if first is None:
                first, short = outcomes, [i for i, t in enumerate(raw) if t < SHORT_OP_S]
            nondeterministic += [
                f"{inp.name}: output differs between untraced passes"
                for inp, a, b in zip(inputs, first, outcomes) if a["out"] != b["out"]
            ]
        for _ in range(MIN_SAMPLES - len(walls)):
            for i in short:
                outcome, _, at_ref = timed_op(modules, inputs[i], paths[i], host)
                samples[i].append(at_ref)
                if outcome["out"] != first[i]["out"]:
                    nondeterministic.append(f"{inputs[i].name}: output differs between runs")
    passes = len(walls)
    latencies = [statistics.median(s) for s in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_wall_s = statistics.median(raw_walls)
    wall_s = statistics.median(walls)

    layer_metrics = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            with gauge.Gauge(on_reading=tracer.reading) as traced_host:
                traced, traced_lats, traced_scaled = run_pass(
                    modules, inputs, paths, traced_host, tracer)
        finally:
            tracer.uninstall()
        nondeterministic += [
            f"{inp.name}: output differs between traced and untraced passes"
            for inp, a, b in zip(inputs, first, traced) if a["out"] != b["out"]
        ]
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        layer_metrics = tracer.layer_metrics(sum(traced_lats))
        layer_metrics["trace.overhead_s"] = sum(traced_scaled) - wall_s
        layer_metrics["raw.wall_s"] = raw_wall_s
        layer_metrics["gauge.reading_s"] = statistics.mean(r for _, r in host.readings)

    setups = setup_samples(args.workload, args.seed, setup_s)

    import check  # imports sympy, so only after peak memory was read

    hard = list(nondeterministic)
    failed_ops, failed, decided, certified = [], 0, 0, 0
    for inp, outcome, op_samples in zip(inputs, first, samples):
        op_hard, op_failed = check.check(inp, outcome)
        hard += op_hard
        if op_failed:
            failed_ops.append(op_failed)
            failed += len(op_samples)
        decided += check.decided(inp, outcome)
        certified += check.certified(inp, outcome)

    per_pass = len(inputs)
    attempted = sum(len(s) for s in samples)
    tail_s, tail_pct, tail_beyond = tail(latencies)
    e2e = {
        "wall_s": wall_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "decided_share": decided / per_pass,
        "ok_share": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload}, seed {args.seed}: {passes} pass(es) of "
          f"{per_pass} operations, closed loop, 1 caller")
    print(f"  times are seconds at the gauge's reference speed ({gauge.REF_S} s): "
          f"{len(host.readings)} readings, mean {statistics.mean(r for _, r in host.readings):.4g} s; "
          f"raw wall_s = {raw_wall_s:.6g}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g}")
    print(f"  op_tail_s is p{tail_pct:.1f} of {len(latencies)} per-operation medians "
          f"({tail_beyond} beyond it); {attempted} operations run")
    print(f"  failed_share = {failed}/{attempted}; certified_share = {certified}/{per_pass}")
    for reason in failed_ops:
        print(f"  failed: {reason}")
    if layer_metrics is not None:
        for name, value in layer_metrics.items():
            print(f"  {name} = {'null' if value is None else f'{value:.6g}'}")
        layer_metrics["verdict.certified_share"] = certified / per_pass
        layer_metrics["verdict.failed_share"] = failed / attempted
    for problem in hard:
        print(f"HARD GATE: {problem}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values = layer_metrics if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    shutil.rmtree(paths[0].parent, ignore_errors=True)
    print(json.dumps({"correct": not hard, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
