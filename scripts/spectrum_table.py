#!/usr/bin/env python3
"""Print the oscillator and Coulomb spectra, optionally cross-checked
against the independent oracle (about 3 ms per state: the 50 states
n <= 9, l <= 4 at alpha = 1/137 took 0.14-0.22 s on a two-core Intel
Xeon server, timed with python -m timeit as README.md shows).

With --check-shooting each Coulomb state also shows the relative
difference in eps = (1 - E^2)/alpha^2 between the oracle (an eigensolve
confirmed by one shot, see kgconformal.shooting) and the closed form,
next to that of the nonrelativistic eps = 1/N^2, and the script exits 1
if any state misses the oracle's gate.  --states picks the Coulomb
states as n,l pairs.  A bad input, such as an alpha at or above l + 1/2
or a state outside the oracle's validated range with --check-shooting,
exits 2 with one line on stderr and prints no table."""

import argparse
import sys

from kgconformal.core import KgcError, natural_units
from kgconformal import coulomb as cb
from kgconformal import oscillator as ho
from kgconformal.shooting import EPS_RTOL, binding_parameter, shooting_eigenvalue

DEFAULT_STATES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _state(text: str) -> tuple:
    try:
        n, l = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,l, not {text!r}") from None
    return n, l


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--alpha", type=float, default=0.0072973525693)
    ap.add_argument("--nmax", type=int, default=4)
    ap.add_argument("--states", nargs="+", type=_state, default=DEFAULT_STATES, metavar="N,L")
    ap.add_argument("--check-shooting", action="store_true")
    args = ap.parse_args(argv)
    try:
        return _tables(args)
    except KgcError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _tables(args) -> int:
    units = natural_units()
    osc = ho.OscillatorModel(omega=args.omega, units=units)
    model = cb.CoulombModel(alpha=args.alpha, units=units)
    states = [cb.make_state(model, n, l) for n, l in args.states]
    # the oracle runs before anything is printed, so a bad state leaves no table
    oracle = [shooting_eigenvalue(n, l, args.alpha) for n, l in args.states] if args.check_shooting else [None] * len(states)
    print(f"oscillator (Omega = {args.omega}):")
    print(f"  {'n':>2s}  {'degeneracy':>10s}  {'E_n':>18s}")
    for n in range(args.nmax + 1):
        deg = (n + 1) * (n + 2) // 2
        print(f"  {n:2d}  {deg:10d}  {ho.energy(osc, n):18.15f}")

    print(f"\ncoulomb (alpha = {args.alpha}):")
    header = f"  {'n':>2s} {'l':>2s}  {'E_nl':>20s}  {'binding':>13s}"
    if args.check_shooting:
        header += f"  {'shooting':>20s}  {'eps diff':>9s}  {'nonrel':>9s}"
    print(header)
    missed = []
    for (n, l), state, e_num in zip(args.states, states, oracle):
        line = f"  {n:2d} {l:2d}  {state.energy:20.15f}  {state.energy - 1.0:13.6e}"
        if args.check_shooting:
            eps = binding_parameter(state.energy, args.alpha)
            diff = abs(binding_parameter(e_num, args.alpha) - eps) / eps
            nonrel = abs(1.0 / (n + l + 1) ** 2 - eps) / eps
            line += f"  {e_num:20.15f}  {diff:9.2e}  {nonrel:9.2e}"
            if not diff < EPS_RTOL:
                missed.append((n, l))
        print(line)
    if missed:
        print(f"\nthe oracle misses the relative eps gate {EPS_RTOL:.0e} on {missed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
