"""htaspec benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload spectra|grids|quadrature \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's CLI commands one after another,
each in a fresh interpreter (a closed loop, one child at a time), with
``HTA_THREADS`` and the BLAS/OpenMP thread counts pinned to 1.  Rounds of
commands (see workloads.py) run until ``--seconds`` have passed; every
output is checked (checks.py) outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each command
untraced and then under tracer.py and prints the per-layer metrics.  The
lines before the last one are a human-readable report and a JSON report with
the run's stamp and the metrics that do not fit the one-line result.  The last
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

THREAD_ENV = {
    "HTA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
WORKLOADS = ("spectra", "grids", "quadrature")
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
RUN_DEADLINE_S = 170.0
CLI_ENTRY = "import sys; from htaspec.cli import main; sys.exit(main())"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; counts and times are per round of the workload
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.numpy_s": "s",
    "cli.main.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.csv_bytes": "bytes",
    "dataio.load_dataset.calls": "count",
    "dataio.load_dataset.s": "s",
    "core.mass_spectrum_detailed.calls": "count",
    "core.mass_spectrum_detailed.self_s": "s",
    "core.parameter_scan.s": "s",
    "core.energy_real_via_nu.calls": "count",
    "core.energy_real_via_nu.self_s": "s",
    "nu.solve.calls": "count",
    "nu.solve.self_s": "s",
    "nu.rodrigues_y.calls": "count",
    "waves.rodrigues_cache.hit_ratio": "ratio",
    "fitting.fit.calls": "count",
    "fitting.fit.self_s": "s",
    "fitting.n_eval": "count",
    "fitting.residual.calls": "count",
    "fitting.converged_ratio": "ratio",
    "fitting.failed": "count",
    "waves.psi_n.calls": "count",
    "waves.psi_n.self_s": "s",
    "waves.density_grid.s": "s",
    "waves.cells": "count",
    "waves.cell_errors": "count",
    "waves.normalize_B.calls": "count",
    "waves.normalize_B.self_s": "s",
    "waves.total_probability.s": "s",
    "waves.leggauss.calls": "count",
    "confine1d.normalize_1d.s": "s",
    "confine1d.moment_identity_check.s": "s",
    "special.upper_incomplete_gamma.calls": "count",
    "special.upper_incomplete_gamma.elements": "count",
    "special.upper_incomplete_gamma.self_s": "s",
    "special.upper_incomplete_gamma.us_per_elem": "us",
    "special.upper_incomplete_gamma.errors": "count",
    "special.airy_ai.calls": "count",
    "special.airy_ai.elements": "count",
    "special.airy_ai.self_s": "s",
    "special.airy_ai.us_per_elem": "us",
    "special.gamma_complex.calls": "count",
    "trace.overhead_ratio": "ratio",
}
# metrics read off a traced function's results, absent with that function
DERIVED_FROM = {
    "cli.csv_bytes": "cli.write_csv",
    "waves.cells": "waves.density_grid",
    "waves.cell_errors": "waves.density_grid",
    "fitting.n_eval": "fitting.fit",
    "fitting.converged_ratio": "fitting.fit",
    "fitting.failed": "fitting.fit",
    "waves.rodrigues_cache.hit_ratio": "waves.rodrigues_cache",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs children one at a time and records wall time, exit code and RSS."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline

    def run(self, argv: list[str], stdout_path: Path | None = None, stderr_path: Path | None = None):
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # a hung child is killed so the run still ends in time
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            for fh in (out, err):
                if fh is not subprocess.DEVNULL:
                    fh.close()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def stamp() -> dict:
    """What produced a result: source, interpreter, libraries, machine."""
    import mpmath
    import numpy
    import scipy

    import htaspec

    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=git_env, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "htaspec").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "backend": getattr(htaspec, "BACKEND", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": THREAD_ENV,
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_breakdown(text: str) -> dict:
    """Seconds of ``import htaspec.cli`` by package, from ``-X importtime``.

    The output lists each module after the modules it imported, indented by
    nesting depth.  A package's figure is the cumulative time of its
    outermost entries; numpy's time under scipy counts as numpy's only.
    """
    stack: list[tuple[int, tuple]] = []  # (depth, (name, cumulative us, children))
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        node = (m.group(4), int(m.group(2)), [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    nodes = [n for _, n in stack]

    def total(node, pkg, exclude=None):
        name, cum, children = node
        if name == pkg or name.startswith(pkg + "."):
            return cum - sum(total(c, exclude) for c in children) if exclude else cum
        return sum(total(c, pkg, exclude) for c in children)

    return {
        "cli.import_s": sum(total(n, "htaspec") for n in nodes) / 1e6,
        "cli.import.scipy_s": sum(total(n, "scipy", exclude="numpy") for n in nodes) / 1e6,
        "cli.import.numpy_s": sum(total(n, "numpy") for n in nodes) / 1e6,
    }


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "count": n, "note": "fewer than 11 commands"}
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "count": n, "beyond": 10}


class Bench:
    def __init__(self, args):
        import checks
        import workloads

        self.checks, self.workloads = checks, workloads
        self.args = args
        self.t_start = time.monotonic()
        self.runner = Runner(self.t_start + RUN_DEADLINE_S)
        self.work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.records = []  # one dict per command run
        self.stats = []  # tracer stats of each traced command
        self.setup_times = []
        self.rounds = 0

    def setup_sample(self):
        """Time one fresh ``import htaspec.cli``."""
        wall, rc, _ = self.runner.run([sys.executable, "-c", "import htaspec.cli"])
        if rc != 0:
            raise RuntimeError(f"import htaspec.cli exited {rc}")
        self.setup_times.append(wall)

    def command(self, cmd, round_index: int, index: int, traced: bool):
        tag = f"r{round_index}c{index}{'t' if traced else ''}"
        stdout_path, stderr_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        if traced:
            stats_path = self.work / f"{tag}.stats.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(stats_path), *cmd.argv]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *cmd.argv]
        shutil.rmtree(cmd.out, ignore_errors=True)
        wall, rc, rss = self.runner.run(argv, stdout_path, stderr_path)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        rng = random.Random(f"check:{self.args.workload}:{self.args.seed}:{round_index}:{index}")
        ok, detail, counts = self.checks.check(cmd, rc, stdout, rng)
        if not ok:
            err = stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
            print(f"FAILED {cmd.kind} {' '.join(cmd.argv)}: {detail} {err}", file=sys.stderr)
        if traced and stats_path.exists():
            self.stats.append({"round": round_index, "command": cmd.kind,
                               **json.loads(stats_path.read_text(encoding="utf-8"))})
        self.records.append({"kind": cmd.kind, "round": round_index, "traced": traced, "wall": wall, "rc": rc,
                             "rss_mb": rss, "ok": ok, **counts})

    def loop(self):
        """Rounds until --seconds have passed; in trace mode each command runs
        untraced and traced, alternating which goes first.  Untraced, one
        set-up sample opens each round, so the samples span the run."""
        t0 = time.monotonic()
        while self.rounds == 0 or time.monotonic() - t0 < self.args.seconds:
            r = self.rounds
            if not self.args.trace:
                self.setup_sample()
            cmds = self.workloads.make_round(self.args.workload, self.args.seed, r, str(self.work / f"r{r}"))
            for i, cmd in enumerate(cmds):
                order = (False, True) if (r + i) % 2 == 0 else (True, False)
                for traced in order if self.args.trace else (False,):
                    self.command(cmd, r, i, traced)
            shutil.rmtree(self.work / f"r{r}", ignore_errors=True)
            self.rounds += 1

    def end_to_end(self) -> tuple[dict, dict]:
        while len(self.setup_times) < SETUP_IMPORTS:
            self.setup_sample()
        setup_times = self.setup_times
        recs = self.records
        walls = [r["wall"] for r in recs]
        per_round = [sum(r["wall"] for r in recs if r["round"] == k) for k in range(self.rounds)]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(per_round),
            "cmd_p50_s": statistics.median(walls),
            "peak_rss_mb": max(r["rss_mb"] for r in recs),
        }
        report = {
            "cmd_tail_s": tail(walls),
            "setup_s_samples": setup_times,
            "round_wall_s": per_round,
            "cmd_p50_s_by_kind": {k: statistics.median(r["wall"] for r in recs if r["kind"] == k)
                                  for k in sorted({r["kind"] for r in recs})},
        }
        grid_wall = sum(r["wall"] for r in recs if r["kind"] == "grid")
        if self.args.workload == "grids" and grid_wall:
            report["cells_per_s"] = sum(r.get("cells", 0) for r in recs if r["kind"] == "grid") / grid_wall
        mass_recs = [r for r in recs if r["kind"] in ("spectrum", "scan")]
        if self.args.workload == "spectra" and mass_recs:
            report["masses_per_s"] = sum(r.get("masses", 0) for r in mass_recs) / sum(r["wall"] for r in mass_recs)
        return metrics, report

    def per_layer(self) -> tuple[dict, dict]:
        runner = self.runner
        breakdowns = []
        for i in range(IMPORTTIME_RUNS):
            err = self.work / f"importtime{i}.err"
            runner.run([sys.executable, "-X", "importtime", "-c", "import htaspec.cli"], stderr_path=err)
            breakdowns.append(import_breakdown(err.read_text(encoding="utf-8")))
        metrics = {k: statistics.median(b[k] for b in breakdowns) for k in breakdowns[0]}

        kb_out = self.work / "kernels.json"
        _, rc, _ = runner.run([sys.executable, str(HERE / "kernel_bench.py")], stdout_path=kb_out)
        if rc == 0:
            metrics.update(json.loads(kb_out.read_text(encoding="utf-8")))

        absent = set()
        funcs: dict[str, dict] = {}
        extra: dict[str, float] = {}
        for st in self.stats:
            absent.update(st["absent"])
            for name, rec in st["functions"].items():
                acc = funcs.setdefault(name, dict.fromkeys(rec, 0))
                for key, value in rec.items():
                    acc[key] += value
            for key, value in st["extra"].items():
                extra[key] = extra.get(key, 0) + value
        rounds = self.rounds
        for name, rec in funcs.items():
            for key, value in rec.items():
                metrics[f"{name}.{key}"] = value / rounds
        for key, value in extra.items():
            metrics[key] = value / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        if "waves.rodrigues_cache.hits" in extra:
            hits, misses = extra["waves.rodrigues_cache.hits"], extra["waves.rodrigues_cache.misses"]
            metrics["waves.rodrigues_cache.hit_ratio"] = ratio(hits, hits + misses)
        if "fitting.fit" in funcs:
            fits = funcs["fitting.fit"]
            metrics["fitting.failed"] = fits["errors"] / rounds
            metrics["fitting.converged_ratio"] = ratio(extra["fitting.converged"], fits["calls"] - fits["errors"])
        traced = sum(r["wall"] for r in self.records if r["traced"])
        untraced = sum(r["wall"] for r in self.records if not r["traced"])
        metrics["trace.overhead_ratio"] = traced / untraced

        def present(key):
            source = DERIVED_FROM.get(key, key)
            return key in metrics and key not in absent and not any(source == a or source.startswith(a + ".") for a in absent)

        chosen = {k: metrics[k] for k in PER_LAYER if present(k)}
        report = {"absent": sorted(k for k in PER_LAYER if k not in chosen), "all": metrics}
        return chosen, report

    def write_spans(self):
        spans = [{k: st[k] for k in ("round", "command", "spans")} for st in self.stats]
        (WORK / f"spans-{self.args.workload}-s{self.args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")

    def run(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            info = stamp()
            # untimed warm-up import: leaves the bytecode cache written
            self.runner.run([sys.executable, "-c", "import htaspec.cli"])
            self.loop()
            if self.args.trace:
                metrics, report = self.per_layer()
                self.write_spans()
                units = PER_LAYER
            else:
                metrics, report = self.end_to_end()
                units = END_TO_END
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        failed = sum(1 for r in self.records if not r["ok"])
        attempted = len(self.records)
        report.update({
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "rounds": self.rounds,
            "fail_ratio": failed / attempted,
            "stamp": info,
        })
        for name, value in metrics.items():
            if name in units:
                print(f"{name:<48} {value:>16.6g} {units[name]}")
        print(json.dumps({"report": report}))
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "htaspec" / "cli.py").is_file():
        print(f"benchmark: no program to run: {SRC / 'htaspec'} is missing", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    result = Bench(args).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
