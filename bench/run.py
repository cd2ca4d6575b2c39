"""nashatlas benchmark: seeded solve/probe workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): pair-generic, multi-newton, tied-cli,
atlas-probe. The library is imported from ``src/`` next to this
directory; without it the run fails with exit code 1 and no result.

Load is one process and one caller in a closed loop: the next task starts
when the previous one returns. BLAS/OpenMP pools are pinned to one thread.
Task latencies and set-up time are CPU seconds of this process and its
reaped child processes, scaled to a fixed reference speed by the
calibration kernel run around and inside each of them (see
calibrate.py): on a shared virtual machine identical work runs up to
1.7x slower at some moments than at others, in CPU time as in wall time. The library is
single-threaded and CPU-bound, so on a dedicated core CPU time equals
wall time. Raw CPU and wall times are kept in the record.

``--trace 0`` times round(S / round_s) whole rounds of tasks, where
round_s is the time one round took on the reference machine, so the seed
code measures about S seconds and every run times the same tasks; it
reports the end-to-end metrics, taking each task's latency as the median
of its corpus item's runs. ``--trace 1`` runs one round (the same tasks
for the same seed) once untraced and once under the outside-in tracer,
and reports per-layer metrics; its calls counts repeat exactly. Every
output of both modes goes through the independent verifier. The last
line of stdout is the result as one JSON object; the full record, with
provenance, is also written to ``.bench_out/``. The trace's
``trace.wall_s`` and ``trace.overhead_s`` are scaled to the reference
speed by the kernel passes around each task; the spans themselves are
raw wall time.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from calibrate import Sampled  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pair-generic", "multi-newton", "tied-cli", "atlas-probe")
#: Fresh interpreters timed per run for setup_s (the median is reported).
SETUP_REPEATS = 5
#: No new task starts after this much wall time in one pass, whatever
#: --seconds says, so a run ends well inside its time limit.
WALL_CAP_S = 120.0
#: The tail is the latency with this many tasks above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "tasks_per_s": "1/s", "task_ms_p50": "ms", "task_ms_tail": "ms", "ok_frac": "ratio",
    "parity_ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def load_library():
    """Import nashatlas from this checkout's src/, never from elsewhere."""
    pkg = SRC / "nashatlas"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import nashatlas
    if Path(nashatlas.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported nashatlas from {nashatlas.__file__}, not {pkg}")
    return nashatlas


def provenance() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nashatlas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree (read directly,
    so nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_now() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def measure_setup(workload: str) -> tuple[float, float]:
    """CPU seconds of a fresh interpreter from start to the end of its
    import and warm-up task (interpreter exit included), scaled to the
    reference speed by the calibration kernel passes it ran (see
    setup_probe), and the raw CPU seconds."""
    t0 = cpu_now()
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                          "--setup-probe"], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    raw = cpu_now() - t0
    speed = json.loads(out.splitlines()[-1])
    return (raw - speed["cpu_overhead_s"]) / speed["slowdown"], raw


def setup_probe(workload: str) -> None:
    """The set-up a run pays: import the library, build the workload and
    run its warm-up task, under the calibration kernel (passes from the
    start of the import on); print the host slowdown and the kernel's CPU
    seconds inside."""
    OUT.mkdir(exist_ok=True)
    with Sampled() as speed:
        load_library()
        from workloads import WORKLOADS
        wl = WORKLOADS[workload]()
        with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
            warm_up(wl, Path(tmpdir))
    print(json.dumps({"slowdown": speed.slowdown, "cpu_overhead_s": speed.cpu_overhead_s}))


def warm_up(wl, tmp):
    """One untimed task of the workload, plus the lazily imported LP path."""
    from workloads import lp_warmup, run_task
    run_task(wl.warmup_task(tmp))
    lp_warmup()


def attempt(task, inside: bool = True):
    """(CPU seconds, wall seconds, host slowdown, outcome) of one task;
    raising counts as a failure. The slowdown comes from the calibration
    kernel run around the task and, if `inside`, inside it; the passes
    inside are taken off its times."""
    from workloads import Outcome, check_task, run_task
    error = None
    with Sampled(inside) as speed:
        c0, w0 = cpu_now(), perf_counter()
        try:
            output = run_task(task)
        except Exception as exc:  # a task that raises is a failed task, not a dead run
            error = exc
        cpu = cpu_now() - c0 - speed.cpu_overhead_s
        wall = perf_counter() - w0 - speed.wall_overhead_s
    if error is not None:
        return cpu, wall, speed.slowdown, Outcome([f"raised {error!r}"])
    return cpu, wall, speed.slowdown, check_task(task, output)


class Tally:
    """Task latencies and outcome counts of one pass."""

    def __init__(self):
        self.latencies: list[float] = []   # CPU seconds at the reference speed
        self.cpus: list[float] = []        # raw CPU seconds
        self.walls: list[float] = []       # wall seconds
        self.slowdowns: list[float] = []
        self.items: list[int] = []
        self.shapes: list[str] = []
        self.failed = 0
        self.parity_bad = 0
        self.problems: list[str] = []

    def add(self, task, cpu: float, wall: float, slow: float, outcome, label: str):
        self.latencies.append(cpu / slow)
        self.cpus.append(cpu)
        self.walls.append(wall)
        self.slowdowns.append(slow)
        self.items.append(task.item)
        self.shapes.append("x".join(map(str, task.shape)))
        if outcome.problems:
            self.failed += 1
            self.problems += [f"{label} ({self.shapes[-1]}): {p}" for p in outcome.problems[:3]]
        if not outcome.parity_ok:
            self.parity_bad += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def timed_run(wl, seed: int, seconds: float, tmp: Path) -> tuple[dict, Tally, dict]:
    import numpy as np

    setups, setups_raw = zip(*(measure_setup(wl.name) for _ in range(SETUP_REPEATS)))
    warm_up(wl, tmp)
    rng = np.random.default_rng(seed)
    tally = Tally()
    # A fixed number of whole rounds, so that every run (and every commit)
    # times the same tasks; a faster program finishes sooner.
    rounds = max(1, round(seconds / wl.round_s))
    wall0 = perf_counter()
    for _ in range(rounds):
        for task in wl.round(rng, tmp):
            if perf_counter() - wall0 >= WALL_CAP_S:
                break
            tally.add(task, *attempt(task), f"task {tally.attempted}")
    wall_s = perf_counter() - wall0
    # Every round repeats the same corpus items, so each task's latency is
    # taken as the median of its item's runs in this process: load from
    # outside the process that slows a minority of those runs does not
    # move the figures.
    runs: dict[int, list[float]] = {}
    for item, t in zip(tally.items, tally.latencies):
        runs.setdefault(item, []).append(t)
    typical = {item: statistics.median(ts) for item, ts in runs.items()}
    lat = sorted(typical[item] for item in tally.items)
    n = len(lat)
    tail_idx = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "tasks_per_s": (1 - tally.failed / n) * len(typical) / sum(typical.values()),
        "task_ms_p50": 1000 * statistics.median(lat),
        "task_ms_tail": 1000 * lat[tail_idx],
        "ok_frac": (n - tally.failed) / n,
        "parity_ok_frac": 1 - tally.parity_bad / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_shape: dict[str, list[float]] = {}
    for shape, item in zip(tally.shapes, tally.items):
        by_shape.setdefault(shape, []).append(typical[item])
    detail = {
        "rounds": rounds, "samples": n, "busy_scaled_cpu_s": tally.busy,
        "busy_cpu_s": sum(tally.cpus), "busy_wall_s": sum(tally.walls), "wall_s": wall_s,
        "slowdown_quartiles": statistics.quantiles(tally.slowdowns, n=4),
        "round_tasks_per_s": [len(runs) / sum(ts[r] for ts in runs.values())
                              for r in range(min(map(len, runs.values())))],
        "tail_percentile": 100 * (tail_idx + 1) / n, "tail_tasks_beyond": n - 1 - tail_idx,
        "setup_runs_s": setups, "setup_runs_raw_s": setups_raw, "even_unwarned": tally.parity_bad,
        "p50_ms_by_shape": {k: 1000 * statistics.median(v) for k, v in by_shape.items()},
    }
    return metrics, tally, detail


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(wl, seed: int, tmp: Path) -> tuple[dict, Tally, dict, list[str]]:
    """One seeded round: an untraced pass, a traced pass, spans saved."""
    import numpy as np

    rng = np.random.default_rng(seed)
    tasks = wl.round(rng, tmp)
    warm_up(wl, tmp)
    metrics, tally, detail, problems, tracer = trace_tasks(tasks)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{wl.name}-seed{seed}.npz"
    tracer.save(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, tally, detail, problems


def trace_tasks(tasks):
    """Run `tasks` untraced, then traced; per-layer metrics, the tally of
    both passes, detail, problems with the trace identities, the tracer."""
    from spans import Tracer

    tally = Tally()
    for k, task in enumerate(tasks):
        tally.add(task, *attempt(task, inside=False), f"untraced task {k}")
    # spans are wall-clock, so the passes are compared in wall time too,
    # each task's scaled to the reference speed like the timed runs' CPU
    # time (from the kernel passes around it only: passes inside would
    # land in the spans)
    n = len(tasks)
    untraced_s = sum(w / s for w, s in zip(tally.walls, tally.slowdowns))
    with Tracer() as tracer:
        for k, task in enumerate(tasks):
            tracer.task_id = k
            tally.add(task, *attempt(task, inside=False), f"traced task {k}")
    traced_s = sum(w / s for w, s in zip(tally.walls[n:], tally.slowdowns[n:]))
    traced_raw_s = sum(tally.walls[n:])

    layers = tracer.layer_times()

    def get(name, stat):
        return layers.get(name, {}).get(stat, 0)

    c = tracer.counts
    ss_calls = get("equilibrium.solve_support.exact", "calls") + get(
        "equilibrium.solve_support.newton", "calls")
    metrics = {
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "equilibrium.solve_support.calls": ss_calls,
        "equilibrium.solve_support.singular_frac":
            _ratio(c["equilibrium.solve_support.singular"], ss_calls),
        "equilibrium.solve_support.candidates_per_call":
            _ratio(c["equilibrium.solve_support.candidates"], ss_calls),
        "equilibrium.best_reply_check.pass_frac": _ratio(
            c["equilibrium.best_reply_check.pass"], get("equilibrium.best_reply_check", "calls")),
        "genericity.regular_value_probe.roots_per_call": _ratio(
            c["genericity.regular_value_probe.roots"],
            get("genericity.regular_value_probe", "calls")),
    }
    for name in LAYER_STATS:
        layer, _, stat = name.rpartition(".")
        metrics.setdefault(name, get(layer, stat))

    # identities the trace must satisfy on a correct run
    problems = []
    supports = sum(t.supports for t in tasks)
    if ss_calls != supports:
        problems.append(f"solve_support calls {ss_calls} != supports {supports}")
    if all(len(t.shape) == 2 and t.kind != "probe" for t in tasks):
        for layer in ("exact.solve_affine", "exact.rref"):
            if get(layer, "calls") != 2 * supports:
                problems.append(f"{layer} calls {get(layer, 'calls')} != 2 x supports {supports}")
    probes = sum(t.kind == "probe" for t in tasks)
    if get("genericity.regular_value_probe", "calls") != probes:
        problems.append(f"regular_value_probe calls != {probes} probes")
    self_total = sum(v["self_s"] for v in layers.values())
    if self_total > traced_raw_s:
        problems.append(f"layer self times {self_total:.6f} s exceed traced wall "
                        f"{traced_raw_s:.6f} s")
    detail = {
        "tasks": len(tasks), "supports": supports, "untraced_s": untraced_s,
        "traced_s": traced_s, "traced_raw_s": traced_raw_s, "layer_self_total_s": self_total,
        "spans": len(tracer.start),
        "layers": layers,
    }
    return metrics, tally, detail, problems, tracer


#: Per-layer metrics read straight from span statistics (name.stat).
LAYER_STATS = (
    "exact.rref.calls", "exact.rref.self_s",
    "exact.solve_affine.calls", "exact.solve_affine.self_s",
    "equilibrium.solve_support.exact.calls", "equilibrium.solve_support.exact.self_s",
    "equilibrium.solve_support.newton.calls", "equilibrium.solve_support.newton.self_s",
    "equilibrium.best_reply_check.calls", "equilibrium.best_reply_check.self_s",
    "forms.payoff_slice_values.self_s",
    "equilibrium.enumerate_nash.self_s",
    "genericity.certify_equilibrium.calls", "genericity.certify_equilibrium.total_s",
    "genericity.transversal_at.self_s",
    "atlas.defining_map.calls", "atlas.defining_map.self_s",
    "forms.eval.calls", "forms.eval.self_s", "forms.grad.calls", "forms.grad.self_s",
    "genericity.full_gradient.self_s",
    "genericity.regular_value_probe.calls", "genericity.regular_value_probe.self_s",
    "forms.homogeneous_decomposition.self_s",
    "game.parse_game.self_s", "cli.main.self_s",
)


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    stat = name.rpartition(".")[2]
    if stat.endswith("_per_call"):
        return "1/call"
    return {"calls": "count", "self_s": "s", "total_s": "s", "wall_s": "s",
            "overhead_s": "s"}.get(stat, "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    load_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        if args.trace:
            metrics, tally, detail, problems = traced_run(wl, args.seed, tmp)
        else:
            metrics, tally, detail = timed_run(wl, args.seed, args.seconds, tmp)
            problems = []
    problems = tally.problems + problems
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "workload_spec": wl.spec(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "detail": detail,
              "problems": problems, "provenance": provenance(), "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for k, v in metrics.items():
        print(f"{k:48s} {v:14.6g} {_unit(k)}")
    print("record " + json.dumps({k: record[k] for k in ("workload_spec", "provenance")}
                                 | {"detail": {k: v for k, v in detail.items() if k != "layers"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
