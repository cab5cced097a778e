#!/usr/bin/env python3
"""spreadq benchmark: timed CLI runs plus an outside-in layer trace.

Usage, from the root of a source checkout (no install needed)::

    python3 bench/run.py --workload frm-N1000 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one after another
    python3 bench/run.py --smoke         # seconds-long run at small sizes

``--trace 0`` runs the ``spreadq`` CLI as child processes, one at a time
(a closed loop), until ``--seconds`` would be exceeded, and reports the
end-to-end metrics of ``BENCHMARK.json``: wall time, CPU time and peak RSS
of each child, and ``setup_s``, the interpreter start plus
``import spreadq.cli`` in a child that does nothing else.  ``--trace 1``
alternates one untraced child with one ``layertrace`` child, which runs
``spreadq.cli.main`` in-process under the tracer, and reports the per-layer
metrics.

Every run is checked: the child must exit 0, leave every artifact and
write data files byte-identical to every other run of the same source
tree, CLI arguments, seed and numpy/scipy/BLAS build (digests are kept in
``.bench_build/``).  The first run of each invocation also passes the
reference checks of ``refcheck`` before its digests are trusted.  A run
that fails any check counts in ``failed``; ``failed / attempted`` is the
error rate.

This script imports only the standard library and leaves numpy and spreadq
to its children: a child's ``ru_maxrss`` starts at the peak RSS of the
process that spawned it, so a large parent would inflate ``peak_rss_mib``.
The children import ``src/`` by absolute path, so an installed copy of
spreadq is never measured.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with the samples, checks and run metadata goes to
``.bench_build/spreadq-bench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "spreadq-bench"

# Why each workload exists is recorded in BENCHMARK.json.  The CLI gets the
# benchmark's --seed and an --out directory appended.
WORKLOADS = {
    "model-interp-K40": ["model", "--variant", "interpolation",
                         "--sigma0", "1.2", "--gamma", "0.5", "--K", "40"],
    "frm-N1000": ["frm", "--dim", "1000", "--realizations", "10"],
    "spin-L14": ["spin", "--L", "14", "--h", "0.4", "--realizations", "3"],
    "frm-N1000-K200": ["frm", "--dim", "1000", "--realizations", "10",
                       "--K", "200"],
}
# same pipelines and checks at sizes that finish in well under a second
SMOKE_WORKLOADS = {
    "model-interp-K40": ["model", "--variant", "interpolation",
                         "--sigma0", "1.2", "--gamma", "0.5", "--K", "8"],
    "frm-N1000": ["frm", "--dim", "64", "--realizations", "2"],
    "spin-L14": ["spin", "--L", "8", "--h", "0.4", "--realizations", "2"],
    "frm-N1000-K200": ["frm", "--dim", "64", "--realizations", "2",
                       "--K", "16"],
}

# artifacts every run of a command must leave; frm and spin add
# coeffs_NNNN.csv and series_NNNN.csv per member
ARTIFACTS = {
    "model": ["coeffs.csv", "series.csv", "averages.json", "fits.json",
              "manifest.json"],
    "frm": ["coeffs_mean.csv", "ensemble.csv", "fits.json",
            "manifest.json"],
    "spin": ["coeffs_mean.csv", "ensemble.csv", "fits.json",
             "manifest.json", "hist_a.csv", "hist_b.csv", "variances.json"],
}
# the CLI promises byte identity for every data file but the manifest
EXEMPT_FROM_IDENTITY = {"manifest.json"}

SETUP_REPEATS = 9
# a run must end within 180 s; children are killed past this point
RUN_LIMIT_S = 170.0

METADATA_SCRIPT = """\
import json, platform, mpmath, numpy, scipy, spreadq.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "spreadq_imported_from": spreadq.cli.__file__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    "versions": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "mpmath": mpmath.__version__},
    "platform": platform.platform()}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken install)."""


def describe(samples: list[float]) -> dict:
    """Median, n and the tail: the sample with exactly ten above it, as a
    percentile.  Below 20 samples that is no tail, and it is None."""
    n = len(samples)
    tail = None
    if n >= 20:
        tail = {"p": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}
    return {"median": statistics.median(samples), "n": n, "tail": tail,
            "samples": samples}


@dataclass
class Child:
    """Outcome of one child process, with its own rusage from wait4."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    log: str

    def last_json(self):
        lines = self.log.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def spawn(cmd: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run ``cmd`` to completion, timing it from spawn to exit."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=WORK, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


def expected_artifacts(argv: list[str]) -> list[str]:
    names = list(ARTIFACTS[argv[0]])
    if argv[0] != "model":
        members = int(argv[argv.index("--realizations") + 1])
        for stream in range(members):
            names += [f"coeffs_{stream:04d}.csv", f"series_{stream:04d}.csv"]
    return names


def digests(out: Path) -> dict:
    """sha256 of every data file in a run directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name not in EXEMPT_FROM_IDENTITY}


def _source_fingerprint() -> tuple[str, int]:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "spreadq").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cli_argv(argv: list[str], seed: int, out: Path) -> list[str]:
    return [*argv, "--seed", str(seed), "--out", str(out)]


def _short_hash(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


class Bench:
    """Measures one workload: its children, checks and records."""

    def __init__(self, name: str, argv: list[str], seed: int,
                 seconds: float, setup_repeats: int):
        self.name = name
        self.argv = argv
        self.seed = seed
        self.seconds = seconds
        self.setup_repeats = setup_repeats
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.src_sha256, self.src_lines = _source_fingerprint()
        self.record = {"wall_s": [], "cpu_s": [], "peak_rss_mib": [],
                       "traces": [], "errors": [], "problems": []}
        # smoke and full runs of one workload differ in argv, not in name
        self.tag = f"{name}-{_short_hash(argv)}"
        self.meta = self.metadata()
        # data files of every run with the same bytes in (sources, argv,
        # seed, library build) must have the same bytes out
        key = _short_hash([self.src_sha256, argv, self.meta["blas"],
                           self.meta["versions"], self.meta["platform"]])
        self.store = WORK / "digests" / f"{name}-{key}-seed{seed}.json"
        # digests every data file must match, and whether a run of this
        # invocation passed the reference checks
        self.expected = None
        self.referenced = False

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def _spawn(self, cmd: list[str], log: str) -> Child:
        return spawn(cmd, self.env, WORK / log, self.remaining())

    def metadata(self) -> dict:
        """Run metadata; the child also warms bytecode and page cache."""
        child = self._spawn([sys.executable, "-c", METADATA_SCRIPT],
                            "metadata.log")
        if child.code != 0:
            raise BenchError(f"import spreadq.cli failed:\n{child.log}")
        meta = child.last_json()
        if not Path(meta["spreadq_imported_from"]).is_relative_to(SRC):
            raise BenchError(f"children import spreadq from "
                             f"{meta['spreadq_imported_from']}, not {SRC}")
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS")
        meta["blas"]["threads"] = {v: os.environ.get(v) for v in thread_vars}
        return {"git_sha": _git_sha(), "src_sha256": self.src_sha256,
                "src_spreadq_lines": self.src_lines,
                "nproc": len(os.sched_getaffinity(0)), **meta}

    def measure_setup(self) -> list[float]:
        """Interpreter start plus ``import spreadq.cli``."""
        cmd = [sys.executable, "-c", "import spreadq.cli"]
        samples = []
        for _ in range(self.setup_repeats):
            child = self._spawn(cmd, "setup.log")
            if child.code != 0:
                raise BenchError(f"import spreadq.cli failed:\n{child.log}")
            samples.append(child.wall_s)
        return samples

    def _check(self, out: Path) -> tuple[list[str], dict]:
        """Problems with one run directory, and its reference errors.

        The reference checks run until one run of this invocation passes
        them; every run must then match the digests of the stored runs.
        """
        missing = [f for f in expected_artifacts(self.argv)
                   if not (out / f).is_file()]
        if missing:
            return [f"missing artifacts: {', '.join(missing)}"], {}
        errors = {}
        if not self.referenced:
            child = self._spawn([sys.executable, str(BENCH / "refcheck.py"),
                                 *_cli_argv(self.argv, self.seed, out)],
                                "refcheck.log")
            if child.code != 0:
                return [f"reference check failed: {child.log[-400:]}"], {}
            report = child.last_json()
            if report["violations"]:
                return report["violations"], report["errors"]
            self.referenced = True
            errors = report["errors"]
        current = digests(out)
        if self.expected is None:
            if self.store.exists():
                self.expected = json.loads(self.store.read_text())
            else:
                self.expected = current
                self.store.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.store.with_suffix(".tmp")
                tmp.write_text(json.dumps(current, sort_keys=True))
                tmp.replace(self.store)
        if current != self.expected:
            differing = sorted(k for k in set(current) | set(self.expected)
                               if current.get(k) != self.expected.get(k))
            return ["data files differ from another run of this source "
                    f"tree: {', '.join(differing)}"], errors
        return [], errors

    def _checked(self, out: Path, problems: list[str]) -> None:
        errors = {}
        if not problems:
            problems, errors = self._check(out)
        self.record["errors"].append(errors)
        self.record["problems"].append(problems)
        shutil.rmtree(out, ignore_errors=True)

    def run_child(self) -> float:
        """One untraced CLI child, timed and checked; returns its wall."""
        out = WORK / "out" / self.name
        shutil.rmtree(out, ignore_errors=True)
        child = self._spawn([sys.executable, "-m", "spreadq.cli",
                             *_cli_argv(self.argv, self.seed, out)],
                            "cli.log")
        self.record["wall_s"].append(child.wall_s)
        self.record["cpu_s"].append(child.cpu_s)
        self.record["peak_rss_mib"].append(child.rss_mib)
        problems = [] if child.code == 0 else \
            [f"exit code {child.code}: {child.log.strip()[-400:]}"]
        self._checked(out, problems)
        return child.wall_s

    def run_traced(self) -> float:
        """One in-process traced ``main`` in a ``layertrace`` child."""
        out = WORK / "out" / f"{self.name}-traced"
        shutil.rmtree(out, ignore_errors=True)
        child = self._spawn([sys.executable, str(BENCH / "layertrace.py"),
                             *_cli_argv(self.argv, self.seed, out)],
                            "layertrace.log")
        report = child.last_json() if child.code == 0 else None
        if report is None or report["code"] != 0:
            problems = [f"traced main failed: {child.log.strip()[-400:]}"]
        else:
            problems = []
            written = sum(p.stat().st_size for p in out.iterdir())
            self.record["traces"].append(
                (report["spans"], report["main_s"], written))
        self._checked(out, problems)
        return child.wall_s


def layer_values(spans: dict, main_s: float, untraced_s: float,
                 written: int) -> dict:
    """Every per-layer value one traced run yields, by metric name."""
    values = {}
    for span, entry in spans.items():
        values[f"{span}.calls"] = entry["calls"]
        values[f"{span}.self_s"] = entry["self_s"]

    def rate(span):
        entry = spans.get(span)
        if entry is None or entry["self_s"] <= 0:
            return 0.0
        flops = sum(x["flops"] for x in entry["extra"])
        return flops / entry["self_s"] / 1e9

    h_bytes = [x["h_bytes"] for span in ("hamiltonians.sample_goe",
                                         "hamiltonians.build_spin_sector")
               for x in spans.get(span, {"extra": []})["extra"]]
    root = spans["cli.main"]
    values.update({
        "cli.write.bytes": written,
        "matrix_lanczos.dsytrd.gflops": rate("matrix_lanczos.dsytrd"),
        "evolution.evolve_amplitudes.gflops":
            rate("evolution.evolve_amplitudes"),
        "hamiltonians.h_mib": max(h_bytes, default=0) / 2 ** 20,
        "trace.main_s": main_s,
        "trace.coverage": 1.0 - root["self_s"] / root["total_s"],
        "trace.overhead_s": main_s - untraced_s,
    })
    return values


def run_workload(spec: dict, name: str, argv: list[str], seed: int,
                 seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Measure one workload for ``seconds``; returns the result."""
    bench = Bench(name, argv, seed, seconds, setup_repeats)
    setup = bench.measure_setup()
    # the measured time is the children's; checks run outside it
    rounds = []
    while True:
        spent = bench.run_child()
        if trace:
            spent += bench.run_traced()
        rounds.append(spent)
        if sum(rounds) + statistics.median(rounds) > seconds \
                or bench.remaining() < 2 * max(rounds):
            break

    record = bench.record
    timings = {"setup_s": setup, "wall_s": record["wall_s"],
               "cpu_s": record["cpu_s"],
               "peak_rss_mib": record["peak_rss_mib"]}
    values = {k: statistics.median(v) for k, v in timings.items()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if trace:
        untraced_s = values["wall_s"] - values["setup_s"]
        runs = [layer_values(s, m, untraced_s, w)
                for s, m, w in record["traces"]] or [{}]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # median_low keeps counts whole
        values = {k: statistics.median_low(r.get(k, 0) for r in runs)
                  for k in units}

    attempted = len(record["problems"])
    failed = sum(1 for p in record["problems"] if p)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    detail = {
        "workload": name, "argv": argv, "seed": seed, "trace": trace,
        "seconds": seconds, "metadata": bench.meta,
        "error_rate": failed / attempted,
        "timings": {k: describe(v) for k, v in timings.items()},
        "check_errors": record["errors"],
        "problems": [p for p in record["problems"] if p],
        "spans": [s for s, _, _ in record["traces"]],
        "result": summary,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{bench.tag}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    _report(detail, units, values, path)
    return summary


def _report(detail: dict, units: dict, values: dict, path: Path) -> None:
    print(f"== {detail['workload']} seed={detail['seed']} "
          f"trace={int(detail['trace'])}  result file: {path}")
    for key, value in values.items():
        line = f"  {key:44s} {value:>14.6g} {units[key]}"
        timing = detail["timings"].get(key)
        if timing is not None and not detail["trace"]:
            tail = timing["tail"]
            line += f"  (median of n={timing['n']}" + (
                f", p{tail['p']:g} {tail['value']:.6g})" if tail else ")")
        print(line)
    print(f"  {'error_rate':44s} {detail['error_rate']:>14.6g} 1  "
          f"({detail['result']['failed']} of "
          f"{detail['result']['attempted']} runs failed)")
    for problems in detail["problems"]:
        print(f"  FAILED: {'; '.join(problems)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one round, trace 0 and 1")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "spreadq" / "cli.py").is_file():
            raise BenchError(f"no spreadq sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(names)}")
            names = [args.workload]
        WORK.mkdir(parents=True, exist_ok=True)
        results = {}
        for name in names:
            if args.smoke:
                for trace in (False, True):
                    results[f"{name}/trace{int(trace)}"] = run_workload(
                        spec, name, SMOKE_WORKLOADS[name], args.seed, 0.0,
                        trace, 1)
            else:
                seconds = args.seconds if args.seconds is not None \
                    else spec["run_seconds"]
                results[name] = run_workload(
                    spec, name, WORKLOADS[name], args.seed, seconds,
                    bool(args.trace), SETUP_REPEATS)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
