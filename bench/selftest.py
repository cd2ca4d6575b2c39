"""Self-tests of the benchmark itself (not of the library).

    python3 bench/selftest.py

Checks that the verifier rejects a perturbed equilibrium, a wrong
support and an unnormalised point and accepts the library's outputs on
every workload; that every ``.calls`` count and the ratio counters of a
traced pass repeat exactly across two passes; and that the trace
identities hold, including layer self times summing to no more than the
traced wall time. Exits 1 if any check failed, 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run

run.load_library()

import numpy as np  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def verifier_on_pennies():
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    utilities = [u1, -u1]
    half = [Fraction(1, 2)] * 2
    check(verify.check_profile(utilities, [half, half], ((0, 1), (0, 1))) == [],
          "pennies: exact equilibrium accepted")
    check(verify.check_profile(utilities, [[0.5, 0.5], [0.5, 0.5]]) == [],
          "pennies: float equilibrium accepted")
    check(verify.check_profile(utilities, [[0.501, 0.499], [0.5, 0.5]]) != [],
          "pennies: perturbed equilibrium rejected")
    check(verify.check_profile(utilities, [half, half], ((0,), (0, 1))) != [],
          "pennies: wrong support rejected")
    check(verify.check_profile(utilities, [[0.6, 0.6], [0.5, 0.5]]) != [],
          "pennies: unnormalised point rejected")
    check(verify.check_profile(utilities, [[1.0, 0.0], [1.0, 0.0]], ((0,), (0,))) != [],
          "pennies: pure non-equilibrium rejected")


def _perturbed(weights, support):
    """Move weight inside the support of the first mixed player."""
    ws = [np.array(w, dtype=float) for w in weights]
    for i, s in enumerate(support):
        if len(s) >= 2:
            ws[i][s[0]] += 1e-3
            ws[i][s[1]] -= 1e-3
            return ws
    return None


def verifier_on_outputs(tmp: Path):
    rng = np.random.default_rng(7)
    pair = workloads.PairGeneric()
    tasks = [t for t in pair.round(rng, tmp) if t.shape[0] <= 4]
    outs = [workloads.run_task(t) for t in tasks]
    check(all(workloads.check_task(t, o).problems == [] for t, o in zip(tasks, outs)),
          f"pair-generic: {len(tasks)} library outputs accepted")
    mixed = [(t, c) for t, o in zip(tasks, outs) for c in o.equilibria
             if max(map(len, c.support.supports)) >= 2]
    t, cert = mixed[0]
    bad = _perturbed(cert.point.weights, cert.support.supports)
    check(verify.check_profile(t.utilities, bad, cert.support.supports) != [],
          "pair-generic: perturbed equilibrium rejected")
    wrong = tuple(s[:1] for s in cert.support.supports)
    check(verify.check_profile(t.utilities, cert.point.weights, wrong) != [],
          "pair-generic: wrong support rejected")
    scaled = [np.asarray(w, dtype=float) * 1.01 for w in cert.point.weights]
    check(verify.check_profile(t.utilities, scaled, cert.support.supports) != [],
          "pair-generic: unnormalised point rejected")

    tasks = workloads.TiedCli().round(rng, tmp)[:20]
    outs = [workloads.run_task(t) for t in tasks]
    check(all(workloads.check_task(t, o).problems == [] for t, o in zip(tasks, outs)),
          f"tied-cli: {len(tasks)} library outputs accepted")
    for t, (code, text) in zip(tasks, outs):
        report = json.loads(text)
        eqs = report["results"]["equilibria"]
        mixed = [e for e in eqs if max(map(len, e["support"])) >= 2]
        if not mixed:
            continue
        bad = copy.deepcopy(report)
        e = next(e for e in bad["results"]["equilibria"] if max(map(len, e["support"])) >= 2)
        i = next(i for i, s in enumerate(e["support"]) if len(s) >= 2)
        a, b = e["support"][i][:2]
        e["point"][i][a] = str(Fraction(e["point"][i][a]) + Fraction(1, 1000))
        e["point"][i][b] = str(Fraction(e["point"][i][b]) - Fraction(1, 1000))
        check(verify.check_solve_json(t.utilities, bad, code) != [],
              "tied-cli: perturbed exact equilibrium rejected")
        check(verify.check_solve_json(t.utilities, report, 2 - code) != [],
              "tied-cli: wrong exit code rejected")
        break

    task = workloads.MultiNewton().warmup_task(tmp)
    check(workloads.check_task(task, workloads.run_task(task)).problems == [],
          "multi-newton: library output accepted")

    tasks = _two_player_probes(tmp)
    outs = [workloads.run_task(t) for t in tasks]
    check(all(workloads.check_task(t, o).problems == [] for t, o in zip(tasks, outs)),
          f"atlas-probe: {len(tasks)} library outputs accepted")
    t, rep = next((t, r) for t, r in zip(tasks, outs) if r.roots)
    tilde = [np.insert(np.asarray(c, dtype=float) + 1e-3, l, 1.0)
             for c, l in zip(rep.roots[0].point.coords, t.chart)]
    check(verify.check_probe_root(t.utilities, t.pairs, t.labels, tilde) != [],
          "atlas-probe: perturbed root rejected")


def _two_player_probes(tmp: Path):
    probe = workloads.AtlasProbe()
    return [probe.task(k, list(item[1]), tmp) for k, item in enumerate(probe.corpus)
            if len(item[0]) == 2]


def trace_repeats(tmp: Path):
    rng = np.random.default_rng(3)
    lists = {
        "pair-generic": [t for t in workloads.PairGeneric().round(rng, tmp) if t.shape[0] <= 4],
        "tied-cli": workloads.TiedCli().round(rng, tmp)[:20],
        "multi-newton": [workloads.MultiNewton().warmup_task(tmp)],
        "atlas-probe": _two_player_probes(tmp),
    }
    for name, tasks in lists.items():
        runs = [run.trace_tasks(tasks) for _ in range(2)]
        for metrics, tally, detail, problems, _ in runs:
            check(tally.failed == 0 and not problems,
                  f"{name}: traced pass verified, trace identities hold {tally.problems + problems}")
        counted = [k for k in runs[0][0] if k.endswith((".calls", "_frac", "_per_call"))]
        same = all(runs[0][0][k] == runs[1][0][k] for k in counted)
        check(same, f"{name}: {len(counted)} counts and count ratios repeat exactly")
        top = max(runs[0][2]["layers"].items(), key=lambda kv: kv[1]["self_s"])[0]
        print(f"     {name}: largest self time in {top}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmpdir:
        tmp = Path(tmpdir)
        verifier_on_pennies()
        verifier_on_outputs(tmp)
        trace_repeats(tmp)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
