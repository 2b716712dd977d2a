"""Command-line front end: spectra, verification suites, map evaluation.

Exit codes are a stable contract:
  0 pass, 1 verification failure, 2 config error, 3 numerical domain error.
Every error is reported as one line on stderr, never as a traceback.

Reports are written atomically (temp file + rename).  In exact-forward
mode the JSON report's wall_ms is zeroed by default so identical inputs
give byte-identical output; pass --timing to record the measured time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .confmap import ConformalMap, forward, inverse
from .core import ConfigError, DomainError, KgcError, NonFiniteError, PointSet, UnitSystem
from .diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from .harness import _PARAMS, SUITES, run_suite
from .shooting import EPS_RTOL, binding_parameter, shooting_eigenvalue
from .specfun import HYDRINO, SOMMERFELD
from . import coulomb as cb
from . import oscillator as ho

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

#: most levels one spectrum --n range may hold
MAX_RANGE = 100_000


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kgc-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str = None):
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _load_config_file(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _units(args) -> UnitSystem:
    return UnitSystem(hbar=args.hbar, c=args.c, m0=args.m0)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None


def _parse_range(text: str):
    """'0..3' or '4' -> list of ints, at most MAX_RANGE of them."""
    if ".." in text:
        lo, hi = (_parse_int(end) for end in text.split("..", 1))
        if hi < lo:
            raise ConfigError(f"empty range: {text!r}")
        if hi - lo + 1 > MAX_RANGE:
            raise ConfigError(f"range {text!r} holds {hi - lo + 1} levels, more than {MAX_RANGE}")
        return list(range(lo, hi + 1))
    return [_parse_int(text)]


def _parse_states(text: str):
    """'(0,0);(1,0);(0,1,1)' -> list of tuples."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = [_parse_int(v) for v in chunk.split(",")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad state spec: {chunk!r}")
        out.append(tuple(parts))
    if not out:
        raise ConfigError(f"no state in {text!r}")
    return out


# ---------------------------------------------------------------------------
# spectrum


def _oracle_fields(n, l, alpha, energy, units) -> dict:
    """The oracle's energy of (n, l), and how far its eps = (1 - Ebar^2) / alpha^2
    and the nonrelativistic eps = 1/N^2 are from the closed form's, relatively."""
    e_shoot = shooting_eigenvalue(n, l, alpha, units)
    eps = binding_parameter(energy / units.rest_energy, alpha)
    return {
        "shooting_energy": e_shoot,
        "eps_rel_diff": abs(binding_parameter(e_shoot / units.rest_energy, alpha) - eps) / eps,
        "nonrel_eps_rel_diff": abs(1.0 / (n + l + 1) ** 2 - eps) / eps,
    }


def _spectrum_rows(args):
    """Every row of the table, computed before any is written."""
    units = _units(args)
    if args.check_shooting and (args.system != "coulomb" or args.branch != SOMMERFELD):
        raise ConfigError("--check-shooting checks the coulomb system's sommerfeld branch only")
    if args.system == "oscillator":
        model = ho.OscillatorModel(omega=args.omega, units=units)
        return [{"n": n, "energy": ho.energy(model, n)} for n in _parse_range(args.n)]
    model = cb.CoulombModel(alpha=args.alpha, units=units)
    rows = []
    for spec in _parse_states(args.states):
        n, l = spec[0], spec[1]
        k = spec[2] if len(spec) > 2 else 0
        state = cb.make_state(model, n, l, k, args.branch)
        cmap = cb.coulomb_map(model, state)
        row = {
            "n": n,
            "l": l,
            "k": k,
            "branch": args.branch,
            "eta_l": state.eta,
            "energy": state.energy,
            "r_nl": state.r_scale,
            "a": cmap.a,
            "b": cmap.b,
        }
        if args.check_shooting:
            row.update(_oracle_fields(n, l, args.alpha, state.energy, units))
        rows.append(row)
    return rows


def _rows_to_csv(rows) -> str:
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _finite_rows(rows):
    """``rows``, or a NonFiniteError naming the first row with a value
    that is not finite, by its quantum numbers."""
    for row in rows:
        bad = [key for key, value in row.items() if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            label = ", ".join(f"{key}={row[key]}" for key in ("n", "l", "k") if key in row)
            raise NonFiniteError(f"spectrum row {label}: {', '.join(f'{key} = {row[key]!r}' for key in bad)}")
    return rows


def cmd_spectrum(args) -> int:
    rows = _finite_rows(_spectrum_rows(args))
    if args.format == "csv":
        text = _rows_to_csv(rows)
    else:
        text = json.dumps({"system": args.system, "rows": rows}, indent=2, allow_nan=False) + "\n"
    _emit(text, args.output)
    missed = [(row["n"], row["l"]) for row in rows if "eps_rel_diff" in row and not row["eps_rel_diff"] < EPS_RTOL]
    if missed:
        print(f"the oracle misses the relative eps gate {EPS_RTOL:.0e} on {missed}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = DiffConfig(mode=MODE_STENCIL if args.mode == "stencil" else MODE_EXACT)
    params = {}
    if args.config:
        params.update(_load_config_file(args.config))
    # a flag given overrides the same key of the config file
    for key in _PARAMS:
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    if args.state is not None:
        params["states"] = _parse_states(args.state)

    report = run_suite(args.suite, params, cfg)
    if cfg.mode == MODE_EXACT and not args.timing:
        report = report.with_wall_ms(0.0)
    _emit(report.to_json(), args.output)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# map


def _map_from_args(args) -> ConformalMap:
    units = _units(args)
    if args.system == "oscillator":
        model = ho.OscillatorModel(omega=args.omega, units=units)
        e_val = args.energy if args.energy is not None else ho.energy(model, 0)
        return ho.oscillator_map(model, e_val)
    if args.system == "coulomb":
        model = cb.CoulombModel(alpha=args.alpha, units=units)
        specs = _parse_states(args.state or "(0,0)")
        if len(specs) > 1:
            raise ConfigError(f"map takes one state, got {len(specs)}: {args.state!r}")
        state = cb.make_state(model, specs[0][0], specs[0][1], 0, args.branch)
        return cb.coulomb_map(model, state)
    # raw parameters
    if args.b is None or args.energy is None:
        raise ConfigError("raw map needs --a, --b, --lam and --energy")
    try:
        b = float(args.b)
    except ValueError:
        b = math.nan
    if math.isnan(b):
        raise ConfigError(f"--b must be a number or 'inf', not {args.b!r}")
    return ConformalMap(a=args.a, b=b, lam=args.lam, E=args.energy, units=units)


def _read_points(path) -> dict:
    """The points file's rows, as (x1, x2, x3, t) tuples of finite floats by line number."""
    rows = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read points file {path}: {exc}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 'x1 x2 x3 t'")
            try:
                row = tuple(float(v) for v in parts)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: expected 'x1 x2 x3 t' as numbers") from None
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"{path}:{lineno}: coordinates must be finite")
            if math.isinf(sum(v * v for v in row[:3])):
                raise ConfigError(f"{path}:{lineno}: x1^2 + x2^2 + x3^2 overflows")
            rows[lineno] = row
    return rows


def _map_grid(cmap: ConformalMap, rows):
    pts = PointSet(*zip(*rows))
    s = forward(cmap, pts)
    # z = x exactly, so only t can come back changed
    return s, np.abs(inverse(cmap, pts, s) - pts.coords[3])


def cmd_map(args) -> int:
    cmap = _map_from_args(args)
    rows = _read_points(args.points)
    lines = ["# z1 z2 z3 re_s im_s roundtrip_err"]
    if rows:  # a grid has at least one point
        try:
            s, roundtrip = _map_grid(cmap, rows.values())
        except DomainError:  # r = 0 with a != 0: name a point off the origin whose r^2 underflows
            for lineno, row in rows.items():
                if any(row[:3]) and sum(v * v for v in row[:3]) == 0.0:
                    raise DomainError(f"{args.points}:{lineno}: r^2 = x1^2 + x2^2 + x3^2 underflows to 0") from None
            raise
        except ArithmeticError:  # name the first point whose own map fails
            for lineno, row in rows.items():
                try:
                    _map_grid(cmap, [row])
                except ArithmeticError as exc:
                    raise DomainError(f"{args.points}:{lineno}: {type(exc).__name__}: {exc}") from None
            raise
        for (x1, x2, x3, _), si, rt in zip(rows.values(), s.tolist(), roundtrip.tolist()):
            lines.append(f"{x1!r} {x2!r} {x3!r} {si.real!r} {si.imag!r} {rt:.3e}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_PASS


# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a ConfigError (one line, exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgconformal",
        description="Numerically certify the conformal-map identities of the "
        "Klein-Gordon oscillator and Coulomb systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_units(p):
        p.add_argument("--hbar", type=_finite_float, default=1.0)
        p.add_argument("--c", type=_finite_float, default=1.0)
        p.add_argument("--m0", type=_finite_float, default=1.0)

    sp = sub.add_parser("spectrum", help="energy spectra as JSON or CSV tables")
    sp.add_argument("--system", choices=("oscillator", "coulomb"), required=True)
    sp.add_argument("--omega", type=_finite_float, default=1.0)
    sp.add_argument("--alpha", type=_finite_float, default=cb.FINE_STRUCTURE)
    sp.add_argument("--n", default="0..4", help="oscillator range, e.g. 0..6")
    sp.add_argument("--states", default="(0,0);(1,0);(0,1)")
    sp.add_argument("--branch", choices=(SOMMERFELD, HYDRINO), default=SOMMERFELD)
    sp.add_argument("--check-shooting", action="store_true",
                    help="add the independent oracle's energy to each coulomb row; exit 1 if its eps misses EPS_RTOL")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    add_units(sp)
    sp.set_defaults(func=cmd_spectrum)

    vp = sub.add_parser("verify", help="run a verification suite, write a JSON report")
    vp.add_argument("--suite", choices=SUITES, required=True)
    vp.add_argument("--mode", choices=("exact", "exact-forward", "stencil"))
    vp.add_argument("--nmax", type=int)
    vp.add_argument("--omega", type=_finite_float)
    vp.add_argument("--alpha", type=_finite_float)
    vp.add_argument("--branch", choices=(SOMMERFELD, HYDRINO))
    vp.add_argument("--state", help="coulomb states as 'n,l' or 'n,l,k', separated by ';'")
    vp.add_argument("--tolerance", type=_finite_float)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--n-fields", dest="n_fields", type=int)
    vp.add_argument("--config", help="JSON file of suite parameters")
    vp.add_argument("--timing", action="store_true", help="record wall time even in exact mode")
    vp.add_argument("--output")
    vp.set_defaults(func=cmd_verify)

    mp = sub.add_parser("map", help="apply the conformal map to a points file")
    mp.add_argument("--points", required=True, help="lines of 'x1 x2 x3 t', '#' comments")
    mp.add_argument("--system", choices=("oscillator", "coulomb", "raw"), default="raw")
    mp.add_argument("--omega", type=_finite_float, default=1.0)
    mp.add_argument("--alpha", type=_finite_float, default=cb.FINE_STRUCTURE)
    mp.add_argument("--state", help="one coulomb state as 'n,l' (default 0,0)")
    mp.add_argument("--branch", choices=(SOMMERFELD, HYDRINO), default=SOMMERFELD)
    mp.add_argument("--a", type=_finite_float, default=0.0)
    mp.add_argument("--b", help="scale length, or 'inf'")
    mp.add_argument("--lam", type=_finite_float, default=2.0)
    mp.add_argument("--energy", type=_finite_float)
    mp.add_argument("--output")
    add_units(mp)
    mp.set_defaults(func=cmd_map)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow and invalid arithmetic outside the differentiation engine
        # raise too, instead of leaking inf or nan into a report
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ArithmeticError) as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KgcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
