"""Batch command-line front end: run pipelines, emit CSV/JSON artifacts.

Subcommands
-----------
model     amplitude model -> moments -> coefficients -> evolution -> fits
frm       dense random-matrix ensemble -> per-seed and mean series, fits
spin      disordered-chain ensemble -> coefficients, histograms, series
fit       re-fit an existing coefficient or series CSV
b2-table  two-level form factor values on a time grid

Configuration precedence: command-line flags override the JSON file given
with ``--config``, which overrides the defaults each flag declares (shown by
``--help``).  A config-file value must have the type of its flag.  ``--out``
must be absent or empty.  Exit codes: 0 on success, 2 for configuration
errors, 3 for numerical failures and for a ``MemoryError``.

All randomness flows from the master ``--seed``; ensemble member r uses
counter stream r, so member sets are reproducible and order-independent.
Identical resolved config and seed give byte-identical data files on the
same numpy/OpenBLAS build run at the same BLAS thread width: a GEMM's last
bits follow how its rows are split over the threads, so ``frm`` files
differ between ``OPENBLAS_NUM_THREADS=1`` and two threads.
``manifest.json`` (config hash, seeds, package versions, the BLAS thread
width, wall time and, for ``frm`` and ``spin``, the tridiagonalization
kernel) is the only file exempt from byte identity.  Its versions name
python, spreadq and numpy, and mpmath where the run computed with it (the
interpolation model's moment recursion).  No command imports scipy.

``main`` retires OpenBLAS's worker threads (``_lapack.retire_threads``)
when it starts and ``_evolve`` at the end of each member's dense work, so
no idle worker busy-waits through the single-threaded stages; the width
of every call stays the same.

Every CSV table goes through ``_write_table`` and ``_read_table``: a
``*_HEADER`` line, then one row per index of ``.17g`` values (integers print
as integers), all lines ending in LF; the reader also takes CRLF.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._lapack import blas_threads, retire_threads
from .analysis import (
    coefficient_stats,
    detect_peak_plateau,
    ensemble_average,
    fit_bn_linear,
    fit_bn_power,
    fit_decay_exponent,
    fit_goe_profile,
)
from .errors import (
    DomainError,
    EnsembleMemberError,
    FloatRangeError,
    NumericalError,
    WindowError,
)
from .evolution import (
    eigendecompose,
    long_time_average,
    spread_series,
    time_grid,
)
from .hamiltonians import (
    SpinChainSpec,
    build_spin_sector,
    domain_wall_index,
    sample_goe,
)
from .matrix_lanczos import (
    householder_hessenberg,
    reduction_kernel,
)
from .models import eval_b2, model_from_dict, moments_of_model
from .moment_lanczos import (
    MAX_START_BITS,
    LanczosCoefficients,
    moments_to_lanczos,
    start_precision,
)

COEFFS_HEADER = "n,a_n,b_n"
SERIES_HEADER = "t,C,F"
ENSEMBLE_HEADER = "t,C,F,C_stderr,F_stderr"
HISTOGRAM_HEADER = "bin_lo,bin_hi,count"
B2_HEADER = "t,B2"
AMPLITUDE_VARIANTS = ("gaussian", "semicircle", "interpolation",
                      "truncated_quadratic")
FIT_KINDS = ("power", "linear", "goe", "decay")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """``--help`` shows the declared default of every flag that has one."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command-line parser and its command parsers, by name.  Each flag
    declares its default here, and nowhere else."""
    parser = argparse.ArgumentParser(
        prog="spreadq",
        description="Spread-complexity pipelines for quantum quenches")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, grid=True):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help=f"output directory (default: {name}-out)")
        if grid:
            p.add_argument("--seed", type=int, default=0,
                           help="master RNG seed (u64)")
            p.add_argument("--tmax", type=float, help="largest grid time "
                           "(default: set by the spectrum)")
            p.add_argument("--tpoints", type=int, default=600,
                           help="grid size")
            p.add_argument("--log-grid", dest="log_grid",
                           action=argparse.BooleanOptionalAction,
                           default=True,
                           help="logarithmic or linear time grid")
        return p

    p_model = command("model", "closed-form amplitude models")
    p_model.add_argument("--variant", choices=AMPLITUDE_VARIANTS)
    p_model.add_argument("--sigma0", type=float)
    p_model.add_argument("--alpha", type=float)
    p_model.add_argument("--gamma", type=float)
    p_model.add_argument("--K", dest="depth", type=int, default=40,
                         help="Krylov depth of the coefficient table")
    p_model.add_argument("--formal", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="continue through Hankel violations")
    p_model.add_argument("--precision-bits", dest="precision_bits", type=int,
                         help="working precision floor of the interpolation "
                         "variant's moment pipeline")

    p_frm = command("frm", "dense random-matrix ensemble")
    p_frm.add_argument("--dim", type=int, help="matrix dimension")
    p_frm.add_argument("--realizations", type=int, default=3,
                       help="number of ensemble members")
    p_frm.add_argument("--K", dest="depth", type=int,
                       help="Krylov depth (default: full dimension)")

    p_spin = command("spin", "disordered-chain ensemble")
    p_spin.add_argument("--L", type=int, help="even chain length")
    p_spin.add_argument("--h", type=float, help="disorder strength")
    p_spin.add_argument("--g", type=float, default=1.0,
                        help="coupling quenched on at t=0")
    p_spin.add_argument("--realizations", type=int, default=1,
                        help="number of disorder realizations")
    p_spin.add_argument("--K", dest="depth", type=int,
                        help="Krylov depth (default: full sector)")
    p_spin.add_argument("--compare-smaller", dest="compare_smaller",
                        action=argparse.BooleanOptionalAction, default=False,
                        help="also run the L-2 chain into a subdirectory")

    p_fit = command("fit", "re-fit existing CSV artifacts", grid=False)
    p_fit.add_argument("--coeffs", help="coefficient CSV (n,a_n,b_n)")
    p_fit.add_argument("--series", help="series CSV (t,C,F)")
    p_fit.add_argument("--kind", choices=FIT_KINDS)
    p_fit.add_argument("--window", type=float, nargs=2,
                       metavar=("LO", "HI"))
    p_fit.add_argument("--origin", action=argparse.BooleanOptionalAction,
                       default=False, help="force the linear fit through 0")
    p_fit.add_argument("--envelope", action=argparse.BooleanOptionalAction,
                       default=False, help="fit per-segment maxima")
    p_fit.add_argument("--dim", type=int,
                       help="matrix dimension for the goe profile fit")

    p_b2 = command("b2-table", "two-level form factor table", grid=False)
    p_b2.add_argument("--times", default="0,0.5,1,2,10",
                      help="comma-separated times")

    return parser, sub.choices


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    if not isinstance(data, dict):
        raise DomainError(f"{path}: config must be a JSON object")
    return data


# JSON types a config-file value may take, by the type of its flag
_FILE_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _file_value(path: str, key: str, value, action):
    """A config-file value, checked against the type, arity and choices of
    its flag; where the flag takes floats, numbers become floats.  JSON null
    leaves a value unset where the default is unset."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:
        types, count = (bool,), None
    elif key == "times" and isinstance(value, list):
        # b2-table also takes its times as a JSON list of numbers
        types, count = _FILE_TYPES[float], len(value)
    else:
        types, count = _FILE_TYPES[action.type], action.nargs
    # count None: a single value; otherwise a list of that many
    shaped = count is None or isinstance(value, list) and len(value) == count
    items = [value] if count is None else value
    # bool is a subtype of int, but only --flag/--no-flag takes true/false
    typed = shaped and all(isinstance(v, types) and (
        bool in types or not isinstance(v, bool)) for v in items)
    if not typed or action.choices is not None \
            and value not in action.choices:
        raise DomainError(f"{path}: config key {key!r} is not a valid "
                          f"{action.option_strings[0]} value: {value!r}")
    if float not in types:
        return value
    try:
        items = [float(v) for v in items]
    except OverflowError:
        raise DomainError(f"{path}: config key {key!r} is beyond the range "
                          f"of {action.option_strings[0]}")
    return items[0] if count is None else items


def _resolve_config(parser: argparse.ArgumentParser,
                    subparser: argparse.ArgumentParser, args, argv) -> dict:
    """Declared defaults, then the ``--config`` file, then flags: the file's
    values, typed by the flags of ``subparser`` (the command's own parser),
    become its defaults and ``argv`` is parsed again, so a given flag wins
    even where it repeats its default.  ``--out`` must be absent or empty."""
    flags = {action.dest: action for action in subparser._actions
             if action.dest not in ("help", "config")}
    if args.config:
        loaded = _load_config_file(args.config)
        for key, value in loaded.items():
            if key not in flags:
                raise DomainError(
                    f"{args.config}: unknown config key {key!r} for "
                    f"command {args.command!r}")
            loaded[key] = _file_value(args.config, key, value, flags[key])
        subparser.set_defaults(**loaded)
        args = parser.parse_args(argv)
    config = {key: getattr(args, key) for key in flags}
    if config["out"] is None:
        config["out"] = f"{args.command}-out"
    # a run never mixes its files with another's
    out = Path(config["out"])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise DomainError(f"--out {out} exists and is not empty")
    return config


def _require(config: dict, key: str, flag: str):
    if config.get(key) is None:
        raise DomainError(f"missing required flag {flag}")
    return config[key]


# values come typed from the parser or _file_value; only ranges are checked
def _check_positive_int(name: str, value: int, minimum=1) -> int:
    if value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, "
                          f"got {value}")
    return value


def _check_seed(value: int) -> int:
    if not 0 <= value < 2**64:
        raise DomainError(f"--seed must be a u64, got {value}")
    return value


def _check_window(kind: str, window):
    """``--window`` as a fit of ``kind`` takes it: finite with LO < HI, and
    LO > 0 for decay or whole coefficient indices otherwise."""
    lo, hi = window
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"--window needs finite LO < HI, got {lo} {hi}")
    if kind == "decay" and lo <= 0:
        raise DomainError(f"--window of a decay fit needs LO > 0, got {lo}")
    if kind != "decay" and not (lo.is_integer() and hi.is_integer()):
        raise DomainError(f"--window of a {kind} fit takes whole "
                          f"coefficient indices, got {lo} {hi}")
    return (lo, hi) if kind == "decay" else (int(lo), int(hi))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header: str, *columns) -> None:
    """``header``, then row i of ``columns`` per line, as ``.17g`` values."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _read_table(path: str, header: str) -> np.ndarray:
    """The rows of a ``header`` table; ``DomainError`` names a bad file."""
    try:
        with open(path) as fh:
            first, rows = fh.readline().strip(), fh.readlines()
        if first != header:
            raise DomainError(f"{path}: expected the header {header}")
        # loadtxt would only warn, and read no rows as one column
        if not any(row.strip() for row in rows):
            raise DomainError(f"{path}: no data rows")
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    except DomainError:
        raise
    except (OSError, ValueError) as exc:
        raise DomainError(f"{path}: not a readable {header} table ({exc})")
    if table.shape[1] != header.count(",") + 1:
        raise DomainError(f"{path}: {table.shape[1]} columns, not {header}")
    if not np.all(np.isfinite(table)):
        raise DomainError(f"{path}: a cell is not a finite number")
    return table


def _coeff_columns(lc: LanczosCoefficients) -> tuple:
    """The ``n,a_n,b_n`` columns of ``lc`` (b_0 written as 0)."""
    return np.arange(lc.K), lc.a, np.append(0.0, lc.b)


def _write_manifest(out: Path, command: str, config: dict, seeds: dict,
                    started: float, tridiagonalization: str | None = None
                    ) -> None:
    """``manifest.json``.  ``versions`` adds mpmath only if the run loaded
    it: the last member's freed H is still held here, so a library
    imported now would raise the run's peak memory."""
    import hashlib

    hashed = {k: v for k, v in sorted(config.items()) if k != "out"}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"),
                      default=str)
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seeds": seeds,
        "versions": {
            "python": platform.python_version(),
            "spreadq": __version__,
            "numpy": np.__version__,
        },
        "blas_threads": blas_threads(),
        "wall_time_s": time.perf_counter() - started,
    }
    if "mpmath" in sys.modules:
        manifest["versions"]["mpmath"] = sys.modules["mpmath"].__version__
    if tridiagonalization is not None:
        manifest["tridiagonalization"] = tridiagonalization
    _write_json(out / "manifest.json", manifest)


def _peak_plateau_entry(times, spread) -> dict:
    """Peak/plateau diagnostics; a too-short grid is reported, not fatal."""
    try:
        return detect_peak_plateau(times, spread)
    except WindowError as exc:
        return {"skipped": str(exc)}


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _evolve(lc: LanczosCoefficients, config: dict, times=None):
    """The ``(series, averages)`` of one coefficient set, from one
    eigensolve of T.  Without ``times`` the grid is set by this spectrum and
    the first coefficient (b_1, or max(|a_0|, 1) when K = 1).  The spectrum
    dies on return."""
    spectrum = eigendecompose(lc)
    if times is None:
        sigma = float(lc.b[0]) if lc.K > 1 else max(abs(lc.a[0]), 1.0)
        times = time_grid(spectrum.values, sigma, config["tpoints"],
                          config["tmax"], config["log_grid"])
    result = spread_series(spectrum, times), long_time_average(spectrum)
    # the member's dense work ends here; its idle BLAS workers would spin
    retire_threads()
    return result


def _cmd_model(config: dict) -> None:
    started = time.perf_counter()
    variant = _require(config, "variant", "--variant")
    depth = _check_positive_int("--K", config["depth"])
    seed = _check_seed(config["seed"])
    bits = config["precision_bits"]
    if bits is not None and variant != "interpolation":
        raise DomainError("--precision-bits applies to the interpolation "
                          "variant only")
    if bits is not None and not 1 <= bits <= MAX_START_BITS:
        raise DomainError(f"--precision-bits must be an integer in "
                          f"1..{MAX_START_BITS}, got {bits}")
    params = {"variant": variant}
    for key in ("sigma0", "alpha", "gamma"):
        if config[key] is not None:
            params[key] = config[key]
    model = model_from_dict(params)
    if variant == "interpolation":
        # the mpmath route, far faster than the exact one on these moments;
        # an out-of-reach depth is refused before its moments are built
        bits = start_precision(depth, bits)
    moments = moments_of_model(model, 2 * depth)
    try:
        lc = moments_to_lanczos(moments, depth, precision_bits=bits,
                                formal=config["formal"])
        if lc.physical:
            # the grid is checked, and the series evolved, before any file
            series, avg = _evolve(lc, config)
    except FloatRangeError as exc:
        # the model parameters set the energy scale
        flags = " ".join(f"--{key} {value}" for key, value in params.items()
                         if key != "variant")
        raise FloatRangeError(f"{flags}: {exc}") from exc

    out = _out_dir(config)
    _write_table(out / "coeffs.csv", COEFFS_HEADER, *_coeff_columns(lc))
    fits: dict = {"depth": lc.K, "physical": lc.physical}
    if lc.physical:
        _write_table(out / "series.csv", SERIES_HEADER, series.times,
                     series.C, series.F)
        _write_json(out / "averages.json",
                    {"C_bar": avg.c_bar, "F_bar": avg.f_bar, "K": lc.K})
        fits["b1"] = float(lc.b[0]) if lc.K > 1 else None
        # the default power-fit window (2, len(b)//2) needs 3 points
        if lc.K - 1 >= 8:
            fits["bn_power"] = fit_bn_power(lc.b).to_dict()
            if variant == "interpolation":
                fits["bn_linear_origin"] = fit_bn_linear(
                    lc.b, window=(1, lc.K - 1),
                    through_origin=True).to_dict()
        fits["long_time_average"] = {"C_bar": avg.c_bar, "F_bar": avg.f_bar}
        fits["peak_plateau"] = _peak_plateau_entry(series.times, series.C)
    else:
        fits["note"] = ("formal coefficient set: negative b_n^2 carries "
                        "its sign into b_n and defines no Hermitian "
                        "evolution, so series and fits are skipped")
        fits["violation_depth"] = lc.violation_depth
    _write_json(out / "fits.json", fits)
    _write_manifest(out, "model", config, {"master": seed, "streams": []},
                    started)


def _ensemble_pipeline(config: dict, command: str, seed: int, dim: int,
                       member, extra_fits) -> None:
    """The frm/spin run: member coefficients, series, mean profiles, fits.

    ``member(stream)`` returns one member's H, of dimension ``dim``, and
    the basis index it starts from; H is the member's own, so it is
    reduced in place (``overwrite_h``).  Members run one loop in stream
    order, each through ``_evolve``: H lives only while the coefficients
    are built, and the spectrum only inside ``_evolve``.  Member 0's
    spectrum sets the grid.
    A member's ``DomainError`` exits 2; any other failure of any member
    becomes an ``EnsembleMemberError`` naming its stream.  The run
    directory is created once every member has finished, so a failing
    member leaves nothing.  ``extra_fits(out, coefficient_sets, mean_lc)``
    writes the command's own artifacts and returns its own ``fits.json``
    entries.
    """
    started = time.perf_counter()
    realizations = _check_positive_int("--realizations",
                                       config["realizations"])
    streams = list(range(realizations))
    depth = config["depth"]
    if depth is not None:
        depth = _check_positive_int("--K", depth)
        if depth > dim:
            raise DomainError(f"--K {depth} exceeds the dimension {dim}")

    coefficient_sets, members, averages = [], [], []
    times = None
    for stream in streams:
        try:
            lc = householder_hessenberg(*member(stream), depth,
                                        overwrite_h=True)
            if lc.K < 2:
                raise DomainError(f"member {stream} has Krylov dimension 1; "
                                  "nothing to fit")
            series, avg = _evolve(lc, config, times)
        except DomainError:
            raise
        except Exception as exc:
            raise EnsembleMemberError(
                f"member {stream} failed [{type(exc).__name__}]: {exc}",
                stream=stream) from exc
        times = series.times
        coefficient_sets.append(lc)
        members.append(series)
        averages.append(avg)
    ens = ensemble_average(members)

    out = _out_dir(config)
    for stream, (lc, series) in enumerate(zip(coefficient_sets, members)):
        _write_table(out / f"coeffs_{stream:04d}.csv", COEFFS_HEADER,
                     *_coeff_columns(lc))
        _write_table(out / f"series_{stream:04d}.csv", SERIES_HEADER,
                     series.times, series.C, series.F)

    depth_min = min(lc.K for lc in coefficient_sets)
    mean_lc = LanczosCoefficients(
        np.mean([lc.a[:depth_min] for lc in coefficient_sets], axis=0),
        np.mean([lc.b[:depth_min - 1] for lc in coefficient_sets], axis=0))
    _write_table(out / "coeffs_mean.csv", COEFFS_HEADER,
                 *_coeff_columns(mean_lc))
    _write_table(out / "ensemble.csv", ENSEMBLE_HEADER, ens.times,
                 ens.mean_C, ens.mean_F, ens.stderr_C, ens.stderr_F)

    fits = {
        "b1_mean": float(mean_lc.b[0]),
        "peak_plateau": _peak_plateau_entry(ens.times, ens.mean_C),
        "long_time_average": {
            "C_bar": float(np.mean([avg.c_bar for avg in averages])),
            "F_bar": float(np.mean([avg.f_bar for avg in averages])),
        },
        "realizations": realizations,
        **extra_fits(out, coefficient_sets, mean_lc),
    }
    _write_json(out / "fits.json", fits)
    _write_manifest(out, command, config,
                    {"master": seed, "streams": streams}, started,
                    reduction_kernel(dim, depth))


def _cmd_frm(config: dict) -> None:
    dim = _check_positive_int("--dim", _require(config, "dim", "--dim"),
                              minimum=2)
    seed = _check_seed(config["seed"])

    def member(stream: int):
        return sample_goe(dim, seed, stream=stream).H, 0

    def goe_profile(out, coefficient_sets, mean_lc) -> dict:
        window = (1, min(mean_lc.K - 1, dim - 20))
        try:
            return {"goe_profile": fit_goe_profile(mean_lc.b, dim,
                                                   window=window).to_dict()}
        except WindowError as exc:
            # small dimensions leave too few points once the tail is dropped
            return {"goe_profile": {"skipped": str(exc)}}

    _ensemble_pipeline(config, "frm", seed, dim, member, goe_profile)


def _cmd_spin(config: dict) -> None:
    L = _require(config, "L", "--L")
    h = _require(config, "h", "--h")
    seed = _check_seed(config["seed"])
    spec = SpinChainSpec(L=L, h=h, g=config["g"], seed=seed)
    if config["compare_smaller"]:
        if spec.L - 2 < 2:
            raise DomainError(f"no smaller chain below L={spec.L}")
        # the smaller run's --K check, before the first member is built
        smaller = replace(spec, L=spec.L - 2).dimension
        if config["depth"] is not None and config["depth"] > smaller:
            raise DomainError(f"--K {config['depth']} exceeds the dimension "
                              f"{smaller} of the L={spec.L - 2} chain")

    def member(stream: int):
        # H is assembled, and checked, before the start is looked up
        return build_spin_sector(spec, stream=stream).H, \
            domain_wall_index(spec)

    def histograms(out, coefficient_sets, mean_lc) -> dict:
        stats = coefficient_stats(coefficient_sets)
        for x, (counts, edges) in (("a", stats.hist_a), ("b", stats.hist_b)):
            _write_table(out / f"hist_{x}.csv", HISTOGRAM_HEADER, edges[:-1],
                         edges[1:], counts)
        _write_json(out / "variances.json", {
            "var_a": stats.var_a,
            "var_b": stats.var_b,
            "realizations": stats.realizations,
            "L": spec.L,
            "h": spec.h,
            "g": spec.g,
        })
        return {}

    _ensemble_pipeline(config, "spin", seed, spec.dimension, member,
                       histograms)
    if config["compare_smaller"]:
        sub_out = Path(config["out"]) / f"compare-L{spec.L - 2}"
        _cmd_spin({**config, "L": spec.L - 2, "compare_smaller": False,
                   "out": str(sub_out)})


def _cmd_fit(config: dict) -> None:
    started = time.perf_counter()
    kind = _require(config, "kind", "--kind")
    if (config["coeffs"] is None) == (config["series"] is None):
        raise DomainError("give exactly one of --coeffs or --series")
    window = config["window"]
    if window is not None:
        window = _check_window(kind, window)

    if kind == "decay":
        if config["series"] is None:
            raise DomainError("--kind decay fits a --series file")
        if window is None:
            raise DomainError("--kind decay needs --window T_LO T_HI")
        t, _, f = _read_table(config["series"], SERIES_HEADER).T
        result = fit_decay_exponent((t, f), window=window,
                                    envelope=config["envelope"])
        source = config["series"]
    else:
        if config["coeffs"] is None:
            raise DomainError(f"--kind {kind} fits a --coeffs file")
        table = _read_table(config["coeffs"], COEFFS_HEADER)
        try:
            lc = LanczosCoefficients(table[:, 1], table[1:, 2])
        except DomainError as exc:
            raise DomainError(f"{config['coeffs']}: {exc}") from exc
        if kind == "power":
            result = fit_bn_power(lc.b, window=window)
        elif kind == "linear":
            result = fit_bn_linear(lc.b, window=window,
                                   through_origin=config["origin"])
        else:
            dim = _check_positive_int(
                "--dim", _require(config, "dim", "--dim"), minimum=2)
            result = fit_goe_profile(lc.b, dim, window=window)
        source = config["coeffs"]

    out = _out_dir(config)
    _write_json(out / "fits.json",
                {"kind": kind, "source": str(source),
                 "fit": result.to_dict()})
    _write_manifest(out, "fit", config, {"master": None, "streams": []},
                    started)


def _cmd_b2_table(config: dict) -> None:
    started = time.perf_counter()
    # a string from the flag or the file, or a file's list of numbers
    times = config["times"]
    if isinstance(times, str):
        try:
            times = [float(tok) for tok in times.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"--times must be comma-separated numbers, "
                              f"got {config['times']!r}")
    if not times:
        raise DomainError("--times is empty")
    values = eval_b2(np.asarray(times))

    out = _out_dir(config)
    _write_table(out / "b2.csv", B2_HEADER, times, values)
    _write_manifest(out, "b2-table", config,
                    {"master": None, "streams": []}, started)


_HANDLERS = {
    "model": _cmd_model,
    "frm": _cmd_frm,
    "spin": _cmd_spin,
    "fit": _cmd_fit,
    "b2-table": _cmd_b2_table,
}


def main(argv=None) -> int:
    # the pool numpy's import started would spin through the setup
    retire_threads()
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(parser, commands[args.command], args, argv)
        _HANDLERS[args.command](config)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:
        print(f"numerical error in {args.command!r} "
              f"[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
