"""k3auto benchmark: verdict-checked workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 40 --trace 0

Run it from the root of a k3auto checkout.  A run executes whole rounds of
seeded jobs, one at a time in one closed loop, and checks every verdict
against an oracle that does not use k3auto.  With --trace 0 it measures the
end-to-end metrics for about --seconds, each time scaled by a host-speed
probe timed beside it (see PROBE_REF_S); with --trace 1 it runs a fixed
number of rounds, each job plain, with spans and under cProfile, and reports
the per-layer metrics.  The last line of stdout is one JSON object; the full
results go to perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("maps", "graphs_lattices", "cli")
# Set-up samples: a few before the first round, then one after every round,
# so that they span the run as the job latencies do.
SETUP_SAMPLES_FIRST = 3
# An untraced run goes on past --seconds until it has run this many jobs, so
# that at least ten latencies lie beyond the 90th percentile.
MIN_JOBS = 100
# Rounds in a traced run: fixed, so its operation counts repeat exactly.
TRACE_ROUNDS = 1
# Host-speed probe.  On a shared host the speed of the same code drifts by
# 20-50% within minutes, and job times drift with it; a probe timed right
# before and after each job drifts alike.  Every end-to-end time (each job,
# each set-up sample) is scaled by PROBE_REF_S over the mean of the probe
# times on either side of it, so it reads as on a host where the probe takes
# PROBE_REF_S.  A job stopped by its timeout took the timeout whatever the
# host's speed, and stays unscaled.  The results file keeps the unscaled
# times.  The benchmark and its children run on one CPU, so that the probe
# times the CPU the job ran on.
PROBE_REF_S = 0.010

SETUP_IN_PROCESS = (
    "import time; t = time.perf_counter(); import k3auto; "
    "from k3auto.fixtures import load_bundle; load_bundle(); "
    "print(time.perf_counter() - t)"
)
IMPORT_CLI = (
    "import time; t = time.perf_counter(); import k3auto.cli; "
    "print(time.perf_counter() - t)"
)


def host_probe() -> float:
    """Seconds taken by a fixed computation of the jobs' kind (Fraction and
    integer arithmetic, dict updates) that does not use k3auto."""
    gc.disable()  # a collection would time the objects the jobs left behind
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i * i + 1)
        counts: dict[int, int] = {}
        for i in range(30000):
            counts[i % 997] = counts.get(i % 997, 0) + 3 * i
        sorted(counts.items())
        return perf_counter() - start
    finally:
        gc.enable()


def python_wall(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running `code`, and its stdout."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(ROOT),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return perf_counter() - start, proc.stdout


def measure_setup(workload: str) -> tuple[float, float]:
    """Set-up cost in one fresh interpreter, and the mean probe time around it."""
    before = host_probe()
    if workload == "cli":
        setup = python_wall("import k3auto.cli")[0]
    else:
        setup = float(python_wall(SETUP_IN_PROCESS)[1])
    return setup, (before + host_probe()) / 2


def rounds_factory(workload: str, seed: int, workdir: Path, runner=None):
    """Make fresh rounds; cli jobs run their command through `runner`."""
    if workload == "maps":
        return lambda: workloads.maps_rounds(seed)
    if workload == "graphs_lattices":
        return lambda: workloads.graphs_rounds(seed)
    return lambda: workloads.cli_rounds(seed, ROOT, workdir, runner)


class Record:
    """Latency and verdict of every job a pass ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[dict] = []
        self.unexpected = 0  # failures outside the known defect classes
        self.timed_out: set[int] = set()

    def run_job(self, job, tracer=None, profiler=None) -> None:
        index = len(self.latencies)
        if tracer is not None:
            tracer.job = index
        start = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcome = job.run()
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            outcome, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.disable()
        self.latencies.append(perf_counter() - start)
        self.kinds.append(job.kind)
        reason = error or job.check(outcome)
        if reason is not None:
            self.failures.append({"job": index, "kind": job.kind, "reason": reason[:300]})
            if reason.startswith("timeout:"):
                self.timed_out.add(index)
            if not workloads.known_defect(job, reason):
                self.unexpected += 1


def run_for(make_rounds, seconds: float, after_round):
    """Run whole rounds for about `seconds`: start the next round while the
    run, at its mean round time, would overrun by less than half a round, or
    while it has run fewer than MIN_JOBS jobs.
    The probe runs before the first job and after every job.  Returns the
    record, the mean probe time around each job, the size of each round, and
    the wall time."""
    record = Record()
    probes = [host_probe()]
    sizes: list[int] = []
    start = perf_counter()
    for jobs in make_rounds():
        elapsed = perf_counter() - start
        late = sizes and elapsed + elapsed / len(sizes) / 2 >= seconds
        if late and sum(sizes) >= MIN_JOBS:
            break
        for job in jobs:
            record.run_job(job)
            probes.append(host_probe())
        sizes.append(len(jobs))
        after_round()
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return record, around, sizes, perf_counter() - start


def first_rounds(make_rounds, rounds: int) -> list:
    return [job for _, batch in zip(range(rounds), make_rounds()) for job in batch]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(
    workload: str, seed: int, seconds: float, workdir: Path
) -> tuple[dict, Record, dict]:
    setup = [measure_setup(workload) for _ in range(SETUP_SAMPLES_FIRST)]
    make_rounds = rounds_factory(
        workload, seed, workdir, lambda argv: workloads.run_subprocess(ROOT, argv)
    )
    record, probes, sizes, wall = run_for(
        make_rounds, seconds, lambda: setup.append(measure_setup(workload))
    )
    scaled = [
        x if i in record.timed_out else x * PROBE_REF_S / probe
        for i, (x, probe) in enumerate(zip(record.latencies, probes))
    ]
    setup_scaled = [x * PROBE_REF_S / probe for x, probe in setup]

    def times(lat: list[float], setup_s: list[float]) -> dict:
        ends = list(accumulate(sizes))
        rounds = [lat[end - size:end] for end, size in zip(ends, sizes)]
        p90 = statistics.quantiles(lat, n=10)[8]
        return {
            "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
            # Rounds have the same mix, so the median round's rate is the
            # closed-loop rate with bursts of outside load filtered out.
            "jobs_per_s": metric(
                statistics.median(len(r) / sum(r) for r in rounds), "jobs/s", len(rounds)
            ),
            "job_p50_ms": metric(1000 * statistics.median(lat), "ms", len(lat)),
            "job_p90_ms": metric(1000 * p90, "ms", len(lat)),
        }

    metrics = times(scaled, setup_scaled)
    metrics["peak_rss_mb"] = metric(peak_rss_mb(workload), "MB", 1)
    p90 = metrics["job_p90_ms"]["value"] / 1000
    extra = {
        "rounds": len(sizes),
        "probe_ref_s": PROBE_REF_S,
        "unscaled": times(record.latencies, [x for x, _ in setup]),
        "wall_s": wall,
        # Unscaled set-up time and the mean probe time around it.
        "setup_samples_s": setup,
        "p90_samples_beyond": sum(1 for x in scaled if x > p90),
        # Kind, scaled and unscaled latency, and the mean probe around the job.
        "job_latencies_ms": [
            [kind, round(1000 * x, 3), round(1000 * raw, 3), round(1000 * probe, 3)]
            for kind, x, raw, probe in zip(record.kinds, scaled, record.latencies, probes)
        ],
    }
    return metrics, record, extra


def cli_startup(samples: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of `import k3auto.cli`."""
    interp = [python_wall("pass")[0] for _ in range(samples)]
    imports = [float(python_wall(IMPORT_CLI)[1]) for _ in range(samples)]
    return statistics.median(interp), statistics.median(imports)


# Job kinds that check one map each, the base of funfield.verify_per_check.
MAP_CHECK_KINDS = (
    "fixture_map", "word", "scaling_non_morphism", "translation", "fixture_check_map",
)


def traced(workload: str, seed: int, workdir: Path) -> tuple[dict, Record, dict]:
    import k3auto.cli  # noqa: F401  (loads every module the tracer patches)

    rounds = TRACE_ROUNDS
    make_rounds = rounds_factory(workload, seed, workdir, workloads.run_in_process)
    jobs = first_rounds(make_rounds, rounds)
    # Each job runs plain, then with spans, so both see the same warm state.
    plain, record = Record(), Record()
    tracer = tracing.Tracer()
    for job in jobs:
        plain.run_job(job)
        tracer.install()
        try:
            record.run_job(job, tracer)
        finally:
            tracer.uninstall()
    plain_wall, traced_wall = sum(plain.latencies), sum(record.latencies)
    # A timed-out job does clock-dependent work: it stays out of the counts,
    # and the profiled pass, slower under cProfile, gets a longer timeout.
    tracer.excluded = plain.timed_out | record.timed_out
    profiled_rounds = rounds_factory(
        workload, seed, workdir,
        lambda argv: workloads.run_in_process(argv, 10 * workloads.CLI_TIMEOUT_S),
    )
    profiler = cProfile.Profile()
    profiled = Record()
    for index, job in enumerate(first_rounds(profiled_rounds, rounds)):
        if index not in tracer.excluded:
            profiled.run_job(job, profiler=profiler)
    counts, cross, file_self = tracing.profile_counts(profiler)
    interpreter_s, import_s = cli_startup()

    calls, busy = tracer.calls, tracer.busy
    attempts = calls("rigidity._saturate")
    checked = sum(1 for k in record.kinds if k in MAP_CHECK_KINDS)
    per_layer = {
        "cyclotomic.mul.calls": counts["cyclotomic.mul.calls"],
        "cyclotomic.add.calls": counts["cyclotomic.add.calls"],
        "cyclotomic.inverse.calls": counts["cyclotomic.inverse.calls"],
        "cyclotomic.fraction_ops": counts["cyclotomic.fraction_ops"],
        "cyclotomic.self_s": counts["cyclotomic.self_s"],
        "polyring.multi_gcd.calls": calls("polyring.multi_gcd"),
        "polyring.multi_gcd.busy_s": busy("polyring.multi_gcd"),
        "polyring.multi_gcd.max_deg": tracer.max_value("polyring.multi_gcd"),
        "polyring.RationalFunction.new.calls": counts["polyring.RationalFunction.new.calls"],
        "polyring.uni_gcd.calls": counts["polyring.uni_gcd.calls"],
        "polyring.gcd_free_basis.busy_s": busy("polyring.gcd_free_basis"),
        "surface.classify_all.busy_s": busy("surface.classify_all"),
        "funfield.verify_morphism.calls": calls("funfield.verify_morphism"),
        "funfield.verify_morphism.busy_s": busy("funfield.verify_morphism"),
        "funfield.verify_per_check": (
            calls("funfield.verify_morphism") / checked if checked else 0.0
        ),
        "funfield.omega_factor.busy_s": busy("funfield.omega_factor"),
        "funfield.map_order.busy_s": busy("funfield.map_order"),
        "funfield.compose.calls": calls("funfield.compose"),
        "funfield.compose.busy_s": busy("funfield.compose"),
        "funfield.normalize.busy_s": busy("funfield.normalize"),
        "funfield.translation_map.busy_s": busy("funfield.translation_map"),
        "rigidity.enumerate_actions.busy_s": busy("rigidity.enumerate_actions"),
        "rigidity.graph_automorphisms.busy_s": busy("rigidity.graph_automorphisms"),
        "rigidity.aut_size": tracer.max_value("rigidity.graph_automorphisms"),
        "rigidity.saturate.attempts": counts["rigidity.saturate.attempts"],
        "rigidity.saturate.accept_ratio": (
            tracer.accepted("rigidity._saturate") / attempts if attempts else 0.0
        ),
        "rigidity.transport.calls": counts["rigidity.transport.calls"],
        "rigidity.canonical_key.busy_s": busy("rigidity.canonical_key"),
        "rigidity.census.busy_s": busy("rigidity.census"),
        "rigidity.compose_actions.busy_s": busy("rigidity.compose_actions"),
        "lattice.smith_normal_form.calls": calls("lattice.smith_normal_form"),
        "lattice.smith_normal_form.busy_s": busy("lattice.smith_normal_form"),
        "lattice.discriminant_data.busy_s": busy("lattice.discriminant_data"),
        "lattice.genus_equal.busy_s": busy("lattice.genus_equal"),
        "lattice.b_of.calls": counts["lattice.b_of.calls"],
        "files.load_surface_text.busy_s": busy("files.load_surface_text"),
        "files.load_graph_text.busy_s": busy("files.load_graph_text"),
        "parser.parse_expression.calls": calls("parser.parse_expression"),
        "parser.parse_expression.busy_s": busy("parser.parse_expression"),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.main.busy_s": busy("cli.main"),
        "trace.overhead_s": traced_wall - plain_wall,
    }
    n = len(record.latencies)
    metrics = {name: metric(value, per_layer_unit(name), n) for name, value in per_layer.items()}
    mismatched = {
        name: {"spans": calls(name), "cprofile": cross[name]}
        for name in tracing.CROSS_CHECKED
        if calls(name) != cross[name]
    }
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.write(spans_path)
    self_times = tracer.self_times()
    total_profiled = sum(file_self.values()) or 1.0
    extra = {
        "rounds": rounds,
        "plain_job_s": plain_wall,
        "traced_job_s": traced_wall,
        "plain_failures": len(plain.failures),
        "plain_unexpected_failures": plain.unexpected,
        "jobs_left_out_of_counts": sorted(tracer.excluded),
        "determinism": {"ok": not mismatched, "mismatched": mismatched},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_self_s": dict(sorted(self_times.items(), key=lambda kv: -kv[1])),
        "profile_self_share": {
            source: round(t / total_profiled, 4)
            for source, t in sorted(file_self.items(), key=lambda kv: -kv[1])[:12]
        },
    }
    return metrics, record, extra


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_check")):
        return "ratio"
    return "degree" if name.endswith("max_deg") else "count"


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "k3auto" / "__init__.py").is_file():
        print(f"no k3auto sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    os.chdir(ROOT)  # cli arguments name the fixtures relative to the root
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        if args.trace:
            metrics, record, extra = traced(args.workload, args.seed, Path(work))
        else:
            metrics, record, extra = end_to_end(args.workload, args.seed, args.seconds, Path(work))

    attempted, failed = len(record.latencies), len(record.failures)
    by_class: dict[str, int] = {}
    for f in record.failures:
        cls = f["reason"].split(":", 1)[0] if args.workload == "cli" else "failed"
        by_class[cls] = by_class.get(cls, 0) + 1
    kinds = {}
    for kind in sorted(set(record.kinds)):
        lat = [x for x, k in zip(record.latencies, record.kinds) if k == kind]
        kinds[kind] = {
            "count": len(lat),
            "p50_ms": 1000 * statistics.median(lat),
            "max_ms": 1000 * max(lat),
            "failed": sum(1 for f in record.failures if f["kind"] == kind),
        }
    correct = (
        record.unexpected == 0
        and extra.get("plain_unexpected_failures", 0) == 0
        and extra.get("determinism", {}).get("ok", True)
    )
    results = {
        "env": environment(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "metrics": metrics,
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures_by_class": by_class,
        "kinds": kinds,
        **extra,
        "failures": record.failures[:100],
    }
    path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}; failures by class: {by_class}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
