"""The repository's benchmark: real-backend campaign workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``paper-suite``
and ``cache-rerun``. For ``--seconds`` seconds the
benchmark repeats rounds of passes over the workload, each pass in a
fresh interpreter (``passes.py``), one at a time. With ``--trace 0`` a
round is one untraced end-to-end pass, and the end-to-end metrics are
medians over passes. With ``--trace 1`` a round is an untraced pass, a
traced campaign and a pass timing every layer directly, and the
per-layer metrics are medians over rounds.

Outputs are checked cell by cell. Every campaign cell must equal the
same cell compiled and run directly through the backends; on seed 0
every directly computed cell must match ``reference.json`` within
``REFERENCE_REL_TOL``. Any
mismatch, and any cell lost to a campaign that raised, counts as a
failed cell. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--limit N`` keeps the first N cells of each lane, for quick checks of
the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Relative tolerance against the recorded reference: a later change
#: may legitimately reorder float additions (a closed-form pipeline in
#: place of the event loop, say), but not change a result.
REFERENCE_REL_TOL = 1e-9

#: Set-up-only interpreters per end-to-end run, beside the set-up
#: every pass measures: set-up is short and swings with host noise.
SETUPS = 6

#: No single pass may run longer than this.
PASS_TIMEOUT_S = 120.0


def run_pass(mode: str, workload: str, seed: int,
             limit: int | None) -> dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON result."""
    work = WORK / f"{os.getpid()}-{mode}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "passes.py"), mode, workload,
            str(seed), str(work)] + ([str(limit)] if limit else [])
    # Own session, so a pass that hangs is killed with its workers.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} pass timed out") from None
    except BaseException:  # interrupted or terminated: take the pass along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's passes are still in it
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def repeat(modes: tuple[str, ...], workload: str, seed: int,
           seconds: float, limit: int | None,
           ) -> list[list[dict[str, Any]]]:
    """Rounds of one pass per mode, one pass after another, until the
    next round would overrun."""
    rounds: list[list[dict[str, Any]]] = []
    start = time.perf_counter()
    while True:
        rounds.append([run_pass(mode, workload, seed, limit)
                       for mode in modes])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def same(expected: list[Any], actual: list[Any], rel_tol: float = 0.0,
         ) -> bool:
    """Row equality, floats within ``rel_tol``."""
    if len(actual) != len(expected):
        return False
    for want, got in zip(expected, actual):
        if isinstance(want, float) and isinstance(got, float):
            if not math.isclose(want, got, rel_tol=rel_tol, abs_tol=0.0):
                return False
        elif want != got:
            return False
    return True


def mismatches(expected: dict[str, list[Any]],
               actual: dict[str, list[Any]], rel_tol: float = 0.0,
               ) -> list[str]:
    """Keys whose row is missing or differs from the expected one."""
    return [key for key, row in expected.items()
            if key not in actual or not same(row, actual[key], rel_tol)]


def reference_for(seed: int,
                  limit: int | None) -> dict[str, list[Any]] | None:
    if seed != 0 or limit is not None:
        return None
    # Both workloads run the paper-suite grid.
    return json.loads((HERE / "reference.json").read_text())[M.PAPER_SUITE]


class Checker:
    """Counts cell outcomes against the expected ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def campaign(self, what: str, oracle: dict[str, list[Any]],
                 result: dict[str, Any]) -> None:
        self.attempted += len(oracle)
        bad = mismatches(oracle, result["rows"])
        self.failed += [f"{what}: {key}" for key in bad]
        if result["raised"]:
            print(f"# {what}: campaign raised {result['raised']}")

    def direct(self, reference: dict[str, list[Any]] | None,
               oracle: dict[str, list[Any]]) -> None:
        if reference is None:
            return
        self.attempted += len(reference)
        bad = mismatches(reference, oracle, REFERENCE_REL_TOL)
        if set(oracle) != set(reference):
            bad += sorted(set(oracle) ^ set(reference))
        self.failed += [f"reference: {key}" for key in bad]


def check_pass(checker: Checker, oracle: dict[str, list[Any]],
               campaign_pass: dict[str, Any], label: str) -> None:
    """Both campaigns of a pass against the oracle: so each second-
    campaign cell equals its first-pass cell too."""
    checker.campaign(f"{label} first", oracle, campaign_pass["first"])
    checker.campaign(f"{label} again", oracle, campaign_pass["again"])


# ----------------------------------------------------------------------
def show(name: str, unit: str, values: list[float], note: str = "",
         ) -> None:
    line = f"{name:<28} {M.median(values):>12.4f} {unit:<6} median"
    high = M.tail(values)
    line += (f"  p{high[0]} {high[1]:.4f}" if high
             else "  (no percentile with 10 samples above)")
    print(f"{line}  n={len(values)}{note}")


def leading_layers(samples: dict[str, list[float]]) -> list[str]:
    """Layers by median self time, largest first."""
    layers = [name for name in samples
              if name.endswith("_s") and not name.startswith(
                  ("reconcile.", "trace.overhead"))]
    return sorted(layers, key=lambda n: -M.median(samples[n]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=M.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    # Terminated, exit through run_pass's clean-up like an interrupt.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    reference = reference_for(args.seed, args.limit)
    checker = Checker()
    if args.trace:
        # Each part of a round in a fresh interpreter of its own, so the
        # traced campaign and the direct layers start as cold as the
        # untraced campaign they are compared with.
        modes = ("campaign", "traced", "layers")
        rounds = repeat(modes, args.workload, args.seed, args.seconds,
                        args.limit)
        samples: dict[str, list[float]] = {}
        for i, (plain, traced, layers) in enumerate(rounds):
            oracle = layers["direct"]
            checker.direct(reference, oracle)
            check_pass(checker, oracle, plain, f"round {i}")
            for name, campaign in traced["campaigns"].items():
                checker.campaign(f"round {i} {name}", oracle, campaign)
            for name, value in M.per_layer(plain, traced, layers).items():
                samples.setdefault(name, []).append(value)
        # A compile stage added after this list still shows, in seconds.
        units = {m.name: m.unit for m in M.PER_LAYER}
        names = [m.name for m in M.PER_LAYER] + sorted(
            set(samples) - set(units))
    else:
        modes = ("campaign",)
        rounds = repeat(modes, args.workload, args.seed, args.seconds,
                        args.limit)
        passes = [round_[0] for round_ in rounds]
        setups = [run_pass("setup", args.workload, args.seed,
                           args.limit)["setup_s"] for _ in range(SETUPS)]
        oracle = run_pass("direct", args.workload, args.seed,
                          args.limit)["direct"]
        checker.direct(reference, oracle)
        for i, result in enumerate(passes):
            check_pass(checker, oracle, result, f"pass {i}")
        samples = M.end_to_end(passes)
        samples["setup_s"] += setups
        units = {m.name: m.unit for m in M.END_TO_END}
        names = [m.name for m in M.END_TO_END]

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds of {'+'.join(modes)} passes over "
          f"{rounds[0][0]['cells']} cells, each in a fresh interpreter")
    notes = {m.name: f"  (moves {m.moves} on {m.on}; not on {m.not_on})"
             for m in M.PER_LAYER if m.on != "-"}
    for name in names:
        show(name, units.get(name, "s"), samples[name], notes.get(name, ""))
    if args.trace:
        print("# leading layers: " + ", ".join(leading_layers(samples)[:4]))
    share = len(checker.failed) / checker.attempted
    print(f"{'failed_cells_share':<28} {share:>12.4f} ratio  "
          f"({len(checker.failed)} of {checker.attempted} cell outcomes)")
    for failure in checker.failed[:20]:
        print(f"# failed {failure}")
    print("# samples " + json.dumps(samples))
    print(json.dumps({
        "correct": not checker.failed,
        "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": {name: {"value": M.median(samples[name]),
                           "unit": units.get(name, "s")}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
