"""ququint benchmark: one workload, one seed, a closed loop with one client.

Run from the root of a source checkout::

    python3 bench/run.py --workload grover-backends --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the current directory and driven
in-process: the public library functions, and the CLI through
``ququint.cli.main(argv)``. Operations run one at a time, in whole rounds,
until ``--seconds`` have passed. Every result is checked against the
independent oracles in ``oracles.py``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the first half of the run is
untraced, the second half records spans at the library's module boundaries
(``tracing.py``), and the JSON object holds the per-layer metrics, the
kernel rows and the tracing overhead. Diagnostics precede the JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import tracing
from workloads import WORKLOADS

GROUPS = ("qubit", "qutrit", "ququint")
SETUP_BURST = 4
SETUP_EVERY_SECONDS = 1.0
WARMUP_SECONDS = 2.0


def import_library(src: Path):
    """Import ququint from the checkout's src/, never from anywhere else."""
    if not (src / "ququint" / "__init__.py").is_file():
        raise SystemExit(f"error: no ququint package under {src}")
    sys.path.insert(0, str(src))
    import ququint
    import ququint.cli

    if Path(ququint.__file__).resolve().parent != (src / "ququint").resolve():
        raise SystemExit(f"error: imported ququint from {ququint.__file__}, not {src}")
    return ququint


def _ququint_modules() -> list[str]:
    return [name for name in sys.modules if name == "ququint" or name.startswith("ququint.")]


def measure_setup(samples: list[float], count: int) -> None:
    """Append ``count`` samples of the seconds to import the package and its
    CLI afresh.

    Each sample drops every ququint module from ``sys.modules`` and imports
    them again; numpy stays loaded, so the figure is ququint's own import
    work. The samples load the bytecode cache that the first import wrote
    (``main`` turns bytecode writing on), as an installed package does; with
    ``PYTHONDONTWRITEBYTECODE=1`` each would compile the sources instead.
    The modules the workloads use are put back afterwards.
    """
    loaded = {name: sys.modules[name] for name in _ququint_modules()}
    try:
        for _ in range(count):
            for name in _ququint_modules():
                del sys.modules[name]
            t0 = perf_counter()
            importlib.import_module("ququint")
            importlib.import_module("ququint.cli")
            samples.append(perf_counter() - t0)
    finally:
        for name in _ququint_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


class SetupClock:
    """Import-time samples in short bursts spread over the run, at most one
    burst a second between operations, so that their median spans the same
    host phases as the operations' medians: on a shared 2-vCPU VM, one burst
    of 51 samples at start-up moved by a fifth from run to run."""

    def __init__(self):
        self.samples: list[float] = []
        self.next_at = 0.0

    def tick(self) -> None:
        if perf_counter() < self.next_at:
            return
        measure_setup(self.samples, SETUP_BURST)
        gc.collect()  # the dropped modules' cycles, outside every timed operation
        self.next_at = perf_counter() + SETUP_EVERY_SECONDS

    def median(self) -> float:
        return statistics.median(self.samples)


class Tally:
    """Durations, failures and check outcomes of the operations run."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.per_round: dict[str, int] = {}
        self.group_of: dict[str, str | None] = {}
        self.round_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems: list[str] = []

    def run_round(self, ops, between) -> None:
        first = not self.round_seconds
        total = 0.0
        for op in ops:
            between()
            self.attempted += 1
            try:
                seconds, result = op.run()
                problems = op.check(result)
            except Exception as exc:  # a crash is a failed operation, reported below
                seconds, result, problems = 0.0, None, [f"{type(exc).__name__}: {exc}"]
            total += seconds
            self.durations.setdefault(op.kind, []).append(seconds)
            self.group_of[op.kind] = op.group
            if first:
                self.per_round[op.kind] = self.per_round.get(op.kind, 0) + 1
            if problems:
                self.failed += 1
                if op.known_fault is not None and result is not None and op.known_fault(result):
                    self.known += 1
                else:
                    self.problems.append(f"{op.kind}: {'; '.join(problems)}")
        self.round_seconds.append(total)

    def round_seconds_of(self, groups) -> float:
        """Seconds of one round of the operations in ``groups``: each kind's
        median duration times the number of times it runs per round."""
        return sum(
            statistics.median(self.durations[kind]) * count
            for kind, count in self.per_round.items()
            if self.group_of[kind] in groups
        )

    def ops_per_s(self) -> float:
        """Operations of one round over the seconds of one round."""
        return sum(self.per_round.values()) / self.round_seconds_of(set(self.group_of.values()))


def warm_up(workload) -> None:
    """Run the first operations of a round, unmeasured and unchecked, for
    WARMUP_SECONDS: the first qubit search of a process took 1.4 s against
    0.75 s for later ones, until allocator and caches settle."""
    t0 = perf_counter()
    for op in workload.round():
        with contextlib.suppress(Exception):  # the measured rounds report failures
            op.run()
        if perf_counter() - t0 >= WARMUP_SECONDS:
            return


def run_rounds(workload, tally: Tally, seconds: float, between=lambda: None) -> None:
    """Whole rounds until ``seconds`` of wall time have passed (at least one),
    calling ``between`` before each operation."""
    t0 = perf_counter()
    while True:
        tally.run_round(workload.round(), between)
        if perf_counter() - t0 >= seconds:
            return


def print_summary(tally: Tally) -> None:
    for kind in tally.per_round:
        d = tally.durations[kind]
        print(f"# {kind}: median {statistics.median(d) * 1e3:.3f} ms over {len(d)}")
    print(f"# rounds {len(tally.round_seconds)}, attempted {tally.attempted}, failed {tally.failed}"
          f" (known fault {tally.known})")
    if tally.known:
        print("# known fault: `verify --circuit` checks an inversion document as the phase gate")
    for problem in tally.problems[:20]:
        print(f"# FAILED CHECK {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    oracles.self_check()
    src = Path.cwd() / "src"
    sys.dont_write_bytecode = False  # so that SetupClock times cached imports
    lib = import_library(src)
    rng = np.random.default_rng(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=Path(__file__).resolve().parent))
    try:
        workload = WORKLOADS[args.workload](lib, rng, workdir)
        warm_up(workload)
        tally = Tally()
        if not args.trace:
            setup = SetupClock()
            run_rounds(workload, tally, args.seconds, setup.tick)
            metrics = {
                "setup_s": (setup.median(), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "ops_per_s": (tally.ops_per_s(), "1/s"),
            }
            for group in GROUPS:
                metrics[f"{group}_s"] = (tally.round_seconds_of({group}), "s")
        else:
            run_rounds(workload, tally, args.seconds / 2)
            untraced = statistics.median(tally.round_seconds)
            tracer = tracing.Tracer()
            tracer.install()
            traced = Tally()
            try:
                run_rounds(workload, traced, args.seconds / 2)
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                print(f"# missing span: {name} no longer exists; its metrics read 0")
            metrics = tracer.metrics(len(traced.round_seconds))
            metrics.update(tracing.kernel_rows(lib, rng))
            metrics["trace.overhead"] = (statistics.median(traced.round_seconds) / untraced - 1, "ratio")
            tally.problems += traced.problems
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.known += traced.known
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_summary(tally)
    correct = not tally.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
