"""Outside-in span tracer for one in-process ``spreadq.cli.main`` run.

Nothing under ``src/`` knows about this module.  For the length of one run
the tracer replaces, and afterwards restores:

- every function ``spreadq.cli`` imports from a library layer, as span
  ``<layer>.<name>`` (``hamiltonians.sample_goe``);
- the CLI's own ``_auto_tmax``, as ``cli._auto_tmax``;
- every artifact writer (the CLI's ``_write*`` helpers, ``write_sidecar`` and
  the ``to_csv`` methods of spreadq classes), as one span ``cli.write``;
- the two LAPACK-level kernels: ``scipy.linalg.eigh_tridiagonal``, found by
  identity in the globals of every ``spreadq.*`` module, and
  ``scipy.linalg.lapack.dsytrd``.  A kernel span is named after the module
  that called it (``evolution.eigh_tridiagonal``, ``cli.eigh_tridiagonal``,
  ``matrix_lanczos.dsytrd``), so it survives code moving between layers.

Spans stay in memory.  ``Tracer.summary`` turns them into calls, total and
self time per span name; self time is a span's duration minus the time its
direct child spans cover.

Run as ``python3 bench/layertrace.py <spreadq CLI argv>``: prints one JSON
line with the exit code and wall time of ``main`` and the span summary.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("hamiltonians", "matrix_lanczos", "moment_lanczos", "models",
          "evolution", "analysis")
CLI_SPANS = ("_auto_tmax",)
WRITE_SPAN = "cli.write"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    """Records spans of wrapped calls.

    One span stack serves the whole run: every workload runs the CLI with
    ``--threads 1``, so all spans open and close on the main thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, measure=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            # a writer calling another writer is one write
            return fn(*args, **kwargs)
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            self.spans.append(span)
        if measure is not None:
            span.extra = measure(args, result)
        return result

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)

        return traced

    def wrap_kernel(self, kernel: str, fn, measure=None):
        """Wrap ``fn`` as span ``<calling module>.<kernel>``."""
        tracer = self

        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            return tracer.call(f"{_short(caller)}.{kernel}", fn, args,
                               kwargs, measure)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """``{name: {"calls", "total_s", "self_s", "extra": [...]}}``."""
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": []})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - span.child_s
            if span.extra is not None:
                entry["extra"].append(span.extra)
        return out


def _dsytrd_work(args, result):
    n = args[0].shape[0]
    return {"flops": 4.0 / 3.0 * n ** 3}


def _evolve_work(args, result):
    # nominal size of the complex (T x K) @ (K x K) product: 8 flops per
    # complex multiply-add
    times, depth = result.phi.shape
    return {"flops": 8.0 * times * depth ** 2}


def _h_bytes(args, result):
    return {"h_bytes": result.H.nbytes}


MEASURES = {
    "hamiltonians.sample_goe": _h_bytes,
    "hamiltonians.build_spin_sector": _h_bytes,
    "evolution.evolve_amplitudes": _evolve_work,
}


def install(tracer: Tracer) -> None:
    """Patch spreadq (imported already) and scipy for one traced run."""
    from scipy import linalg
    from scipy.linalg import lapack

    cli = importlib.import_module("spreadq.cli")
    writers = set()
    for layer in LAYERS:
        module = importlib.import_module(f"spreadq.{layer}")
        for attr, value in list(vars(cli).items()):
            if not inspect.isfunction(value) \
                    or value.__module__ != module.__name__:
                continue
            if attr.startswith("write"):
                writers.add(attr)
                continue
            name = f"{layer}.{attr}"
            tracer.patch(cli, attr,
                         tracer.wrap(name, value, MEASURES.get(name)))
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module.__name__ \
                    and "to_csv" in vars(value):
                tracer.patch(value, "to_csv",
                             tracer.wrap(WRITE_SPAN, value.to_csv))
    for attr, value in list(vars(cli).items()):
        if inspect.isfunction(value) and value.__module__ == cli.__name__ \
                and attr.startswith("_write"):
            writers.add(attr)
    for attr in sorted(writers):
        tracer.patch(cli, attr, tracer.wrap(WRITE_SPAN, getattr(cli, attr)))
    for attr in CLI_SPANS:
        if hasattr(cli, attr):
            tracer.patch(cli, attr,
                         tracer.wrap(f"cli.{attr}", getattr(cli, attr)))

    kernel = linalg.eigh_tridiagonal
    wrapped = tracer.wrap_kernel("eigh_tridiagonal", kernel)
    for name, module in list(sys.modules.items()):
        if name == "spreadq" or name.startswith("spreadq."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    tracer.patch(module, attr, wrapped)
    tracer.patch(lapack, "dsytrd",
                 tracer.wrap_kernel("dsytrd", lapack.dsytrd, _dsytrd_work))


def traced_main(argv: list[str]) -> tuple[int, float, Tracer]:
    """Run ``spreadq.cli.main(argv)`` under a fresh tracer.

    Returns the exit code, the wall time of ``main`` and the tracer, whose
    root span is ``cli.main``.
    """
    cli = importlib.import_module("spreadq.cli")
    tracer = Tracer()
    install(tracer)
    try:
        started = time.perf_counter()
        code = tracer.call("cli.main", cli.main, (argv,), {})
        main_s = time.perf_counter() - started
    finally:
        tracer.restore()
    return code, main_s, tracer


if __name__ == "__main__":
    code, main_s, tracer = traced_main(sys.argv[1:])
    print(json.dumps({"code": code, "main_s": main_s,
                      "spans": tracer.summary()}))
