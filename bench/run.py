"""linsys benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload verify-random --seed 1 --seconds 30 --trace 0

A closed loop on one thread: each op starts when the previous one has
returned.  The workload's op list runs in passes for ``--seconds``; an op's
latency is its fastest run, ``wall_s`` their sum and ``op_p50_ms`` and
``op_tail_ms`` percentiles over the ops.  Results are checked against
independent references after the measurement; an op that raises, fails its
check, or is still running when its pass runs out of budget counts as failed.

Times are reported at a reference machine speed.  The benchmark shares its
machine with other tenants, which slow it by up to 1.6x for tens of seconds
at a time, so one run can be uniformly slower than the next.  A fixed
pure-Python loop is timed at the start and end of every pass and every
quarter second between ops; each pass's times are scaled by the loop's
reference time over its mean time in that pass.  Raw times are kept in
``bench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one plain
pass and one pass with every layer function wrapped in spans, and reports
the per-layer metrics of the traced pass.  The last line of stdout is the
JSON result; details (and, traced, the spans) go to ``bench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

RUN_BUDGET_S = 110.0  # measurement stops here, to exit well within 180 s
SETUP_PROBES = 2      # extra set-ups in fresh processes for the setup_s median
TAIL_BEYOND = 10      # the tail percentile leaves this many samples beyond it
SPIN_ITERS = 50_000
SPIN_REF_S = 0.0037   # the spin loop's time on an idle 2-vCPU Xeon VM, CPython 3.11
SPIN_EVERY_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


class BudgetExceeded(BaseException):
    """Raised by the pass timer; a BaseException so library code that
    catches Exception cannot swallow it."""


def _alarm(signum, frame):
    raise BudgetExceeded


def spin() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    t = time.perf_counter()
    s = 0
    for i in range(SPIN_ITERS):
        s += i * i % 7
    return time.perf_counter() - t


def speed_scale(samples) -> float:
    """Reference over mean spin time: the ops pay the mean slowdown."""
    return SPIN_REF_S / statistics.fmean(samples)


def peak_rss_mb() -> float:
    """This process's peak resident memory.  ``ru_maxrss`` is not used: it
    keeps the parent's peak across fork and exec, so a large parent would
    hide the benchmark's own."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the scaled set-up time and exit")
    return p.parse_args(argv)


def load_program():
    """Import linsys from this checkout's src/; exit with an error when the
    sources are absent."""
    src = ROOT / "src"
    if not (src / "linsys" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.exit(f"error: no linsys sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH))
    import linsys

    if Path(linsys.__file__).resolve().parent != (src / "linsys").resolve():
        sys.exit(f"error: imported linsys from {linsys.__file__}, not from {src}")


def schedule(ops, indices) -> list[int]:
    """Rounds of ops: an op with ``repeat`` r runs once in each of the first
    r rounds and the other ops are spread over the rounds in order, so the
    runs of a cheap op meet the machine at different times."""
    rounds = max(ops[i].repeat for i in indices)
    singles = [i for i in indices if ops[i].repeat == 1]
    order = []
    for r in range(rounds):
        order += singles[r * len(singles) // rounds:(r + 1) * len(singles) // rounds]
        order += [i for i in indices if r < ops[i].repeat > 1]
    return order


def run_pass(ops, indices, deadline, tracer=None):
    """Run ``ops[i]`` for i in ``indices``, ``repeat`` times each, in rounds.

    Returns the runs as (i, seconds or None, ("ok", digest) or an error
    string), whether the pass ran out of time, and the pass's speed scale.
    """
    runs = []
    order = schedule(ops, indices)
    gc.collect()
    spins = [spin()]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return [(i, None, "run budget exhausted") for i in order], True, speed_scale(spins)
    overrun = False
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        last_spin = time.perf_counter()
        for i in order:
            op = ops[i]
            if time.perf_counter() - last_spin >= SPIN_EVERY_S:
                spins.append(spin())
                last_spin = time.perf_counter()
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.op = i
            try:
                t = time.perf_counter()
                result = op.run()
                dt = time.perf_counter() - t
            except Exception as exc:  # an op that raises is a failed op
                runs.append((i, None, f"raised {type(exc).__name__}: {exc}"))
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            runs.append((i, dt, ("ok", op.digest(result))))
            del result
    except BudgetExceeded:
        runs += [(i, None, "pass budget exceeded") for i in order[len(runs):]]
        overrun = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    spins.append(spin())
    return runs, overrun, speed_scale(spins)


def measure(ops, seconds, pass_budget, run_deadline):
    """Passes back to back for ``seconds``: a pass starts only if the last
    pass's time for the same ops says it ends in time.  Ops marked ``once``
    run in the first pass only.  Stops after a pass that ran out of budget."""
    start = time.perf_counter()
    passes = []
    while True:
        indices = [i for i, op in enumerate(ops) if not (passes and op.once)]
        if passes:
            todo = set(indices)
            expected = sum(t for i, t, _ in passes[-1][0] if t is not None and i in todo)
            if time.perf_counter() - start + expected > seconds:
                return passes
        deadline = min(time.perf_counter() + pass_budget, run_deadline)
        passes.append(run_pass(ops, indices, deadline))
        if passes[-1][1]:
            return passes


def check(ops, passes):
    """Check every digest; returns (attempted, failures as (op label, reason))."""
    failures = []
    attempted = 0
    for runs, _, _ in passes:
        for i, _, out in runs:
            attempted += 1
            if not isinstance(out, tuple):
                failures.append((ops[i].label, out))
                continue
            try:
                err = ops[i].check(out[1])
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failures.append((ops[i].label, err))
    return attempted, failures


def op_latencies(passes, scaled=True) -> dict[int, float]:
    """Each op's latency: its fastest run over the passes, which drops the
    bursts of load shorter than the run."""
    best: dict[int, float] = {}
    for runs, _, scale in passes:
        for i, t, _ in runs:
            if t is not None:
                t *= scale if scaled else 1.0
                best[i] = min(t, best.get(i, t))
    return best


def pass_time(p, scaled=True) -> float:
    runs, _, scale = p
    return sum(t for _, t, _ in runs if t is not None) * (scale if scaled else 1.0)


def latency_stats(lat: dict[int, float]):
    """wall_s, op_p50_ms, op_tail_ms, the tail's percentile and n."""
    samples = sorted(t * 1e3 for t in lat.values())
    n = len(samples)
    if n <= TAIL_BEYOND:
        return sum(lat.values()), float("nan"), float("nan"), float("nan"), n
    tail, pct = samples[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return sum(lat.values()), statistics.median(samples), tail, pct, n


def setup_probes(args):
    """Scaled set-up time measured again in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(workloads.WORKLOADS)}")
    workloads.warm()
    ops = wl.build(args.seed)
    setup_raw_s = time.perf_counter() - T0
    setup_s = setup_raw_s * speed_scale([spin() for _ in range(5)])
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    run_deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        import spans

        # one plain and one traced pass over every op; traced numbers are
        # per pass and the overhead compares the two passes
        every = range(len(ops))

        def deadline():
            return min(time.perf_counter() + wl.pass_budget_s, run_deadline)

        plain = [run_pass(ops, every, deadline())]
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = [run_pass(ops, every, deadline(), tracer)]
        finally:
            tracer.uninstall()
        all_passes = plain + traced
    else:
        tracer = None
        plain = all_passes = measure(ops, args.seconds, wl.pass_budget_s, run_deadline)
    peak_mb = peak_rss_mb()

    attempted, failures = check(ops, all_passes)
    lat = op_latencies(plain)
    wall_s, p50, tail, tail_pct, n_ops = latency_stats(lat)
    detail = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "passes": len(all_passes),
        "pass_speed_scale": [p[2] for p in all_passes],
        "pass_raw_s": [pass_time(p, scaled=False) for p in all_passes],
        "raw_wall_s": sum(op_latencies(plain, scaled=False).values()),
        "op_tail_percentile": tail_pct, "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "op_latency_ms": {ops[i].label: t * 1e3 for i, t in sorted(lat.items())},
    }
    if args.trace:
        # the spans hold every run of the traced pass, repeats included
        traced_wall = pass_time(traced[0])
        metrics, shares = spans.layer_metrics(tracer, pass_time(traced[0], scaled=False))
        metrics = {k: v * traced[0][2] if k.endswith("_s") else v for k, v in metrics.items()}
        metrics["trace.overhead_frac"] = traced_wall / pass_time(plain[0]) - 1.0
        units = {k: spans.unit(k) for k in metrics}
        detail.update(shares=shares, missing_wrappers=tracer.missing, traced_wall_s=traced_wall)
    else:
        probes = setup_probes(args)
        metrics = {
            "setup_s": statistics.median([setup_s] + probes),
            "wall_s": wall_s,
            "op_p50_ms": p50,
            "op_tail_ms": tail,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS
        detail.update(setup_samples_s=[setup_s] + probes, setup_raw_s=setup_raw_s)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"result": result, **detail}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.json.gz"))

    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}")
    print(f"{wl.name} seed={args.seed}: {len(all_passes)} passes of {len(ops)} ops, "
          f"failed_frac = {len(failures)}/{attempted} = {detail['failed_frac']:.4f}, "
          f"speed scale {min(detail['pass_speed_scale']):.3f}-{max(detail['pass_speed_scale']):.3f}")
    if not args.trace:
        print(f"  op latency: fastest of {len(plain)} passes per op; "
              f"n = {n_ops} ops, tail = p{tail_pct:.1f}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
