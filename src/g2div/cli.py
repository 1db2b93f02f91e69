"""Command-line interface.

Verbs: curve transform, jac add/double/mul/verify, torsion find/check,
divpoly emit, oracle enumerate/torsion.  All I/O is JSON (newline-delimited
for lists); field elements travel as strings.  Exit codes: 0 success,
1 domain error (machine-readable error JSON on stdout), 2 usage error.

Each handler imports what only it runs: jac add/double/mul the group law,
torsion and divpoly the torsion module, oracle the Cantor oracle, and a
curve that is not canonical the general models.  F_{p^k} code
(g2div.extension) loads only with an F_{p^k} field (an extension curve,
--ext, --allow-extension), and fractions only over Q or in divpoly emit.
"""
from __future__ import annotations

import argparse
import json
import sys

from .curves import CanonicalCurve, curve_from_json, curve_to_json
from .divisors import divisor_from_json, divisor_to_json, is_on_jacobian, jacobian_residuals
from .errors import G2DivError, OffCurve, SerializationError
from .fields import GF

PROG = "g2div"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def _load_canonical(path: str) -> CanonicalCurve:
    curve = curve_from_json(_load_json(path))
    if not isinstance(curve, CanonicalCurve):
        from .models import to_canonical
        curve, _ = to_canonical(curve)
    return curve


def _load_divisor(path: str, curve: CanonicalCurve):
    """A divisor file that must lie on the Jacobian of the curve."""
    d = divisor_from_json(curve.field, _load_json(path))
    if not is_on_jacobian(d, curve):
        raise OffCurve(f"{path}: divisor is not on the Jacobian")
    return d


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(_render_text(obj))


def _render_text(obj, indent=""):
    if isinstance(obj, dict):  # a nested dict's keys go on indented lines below its key
        return "\n".join(f"{indent}{k}:\n{_render_text(v, indent + '  ')}" if isinstance(v, dict)
                         else f"{indent}{k}: {_render_text(v)}" for k, v in sorted(obj.items()))
    if isinstance(obj, list):
        return "[" + ", ".join(str(_render_text(v)) for v in obj) + "]"
    return str(obj)


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_curve_transform(args) -> int:
    curve = curve_from_json(_load_json(args.curve))
    if not isinstance(curve, CanonicalCurve):
        from .models import to_canonical, to_canonical_allow_extension
        reduce = to_canonical_allow_extension if args.allow_extension else to_canonical
        curve = reduce(curve)[0]
    _emit(curve_to_json(curve), args.format)
    return 0


def _cmd_jac(args) -> int:
    curve = _load_canonical(args.curve)
    F = curve.field
    if args.jac_verb != "verify":
        from .grouplaw import add, double, scalar_mul
        ds = [_load_divisor(path, curve) for path in args.divisors]
        if args.jac_verb == "add":
            result = add(ds[0], ds[1], curve)
        elif args.jac_verb == "double":
            result = double(ds[0], curve)
        else:
            result = scalar_mul(args.n, ds[0], curve)
        _emit(divisor_to_json(result), args.format)
        return 0
    # verify reports the residuals of any parsable divisor, on the Jacobian or not
    d = divisor_from_json(F, _load_json(args.divisors[0]))
    if d.is_nonspecial():
        j8, j10 = jacobian_residuals(d, curve)
        payload = {"J8": F.to_str(j8), "J10": F.to_str(j10)}
        ok = F.is_zero(j8) and F.is_zero(j10)
    else:
        on = d.is_neutral() or curve.on_curve(d.coords)
        payload = {"J8": "0" if on else "off-curve", "J10": "0" if on else "off-curve"}
        ok = on
    if not ok:
        payload["error"] = "divisor fails the Jacobian model equations"
        _emit(payload, args.format)
        return 1
    _emit(payload, args.format)
    return 0


def _cmd_torsion(args) -> int:
    from .torsion import (find_n_torsion, four_torsion_residuals, is_torsion,
                          three_torsion_mumford_residuals)
    curve = _load_canonical(args.curve)
    if args.torsion_verb == "find":
        if args.ext and args.ext > 1:
            F = curve.field
            if F.order() is None or F.order() != F.characteristic:
                raise SerializationError("--ext expects a prime-field curve")
            big = GF(F.characteristic, args.ext)
            curve = CanonicalCurve(big, tuple(big.element(c.value) for c in curve.lam))
        found = find_n_torsion(curve, args.n)
        for d in sorted(found, key=lambda d: d.sort_key()):
            _emit(divisor_to_json(d), args.format)
        return 0
    # check
    d = _load_divisor(args.divisor, curve)
    ok = is_torsion(d, args.n, curve)
    payload = {"n": args.n, "is_torsion": ok}
    F = curve.field
    if d.is_nonspecial() and args.n in (3, 4):
        try:
            if args.n == 3:
                payload["residuals"] = [F.to_str(r) for r in three_torsion_mumford_residuals(d, curve)]
            else:
                branch, res = four_torsion_residuals(d, curve)
                payload["branch"] = branch
                payload["residuals"] = [F.to_str(r) for r in res]
        except G2DivError as exc:
            payload["residuals"] = exc.code
    _emit(payload, args.format)
    return 0


def _cmd_divpoly(args) -> int:
    from .torsion import emit_division_polynomials
    curve = _load_canonical(args.curve) if args.curve else None
    ds = emit_division_polynomials(args.n, args.coords, curve)
    for name, poly in zip(ds.names, ds.polys):
        if args.format == "json":
            obj = poly.to_json()
            obj["name"] = name
            obj["n"] = ds.n
            obj["coords"] = ds.coords
            obj["weight"] = poly.weighted_degree()
            print(json.dumps(obj, sort_keys=True))
        else:
            print(f"# {name} (n={ds.n}, {ds.coords}, weight {poly.weighted_degree()})")
            print(poly.to_text())
    return 0


def _cmd_oracle(args) -> int:
    from . import cantor
    curve = _load_canonical(args.curve)
    if args.oracle_verb == "enumerate":
        els = cantor.enumerate_jacobian(curve)
        ms = sorted((cantor.to_mumford(d) for d in els), key=lambda d: d.sort_key())
        for d in ms:
            _emit(divisor_to_json(d), args.format)
        _emit({"order": len(els)}, args.format)
        return 0
    els = cantor.enumerate_jacobian(curve)
    found = cantor.brute_force_n_torsion(curve, args.n, els)
    ms = sorted((cantor.to_mumford(d) for d in found), key=lambda d: d.sort_key())
    for d in ms:
        _emit(divisor_to_json(d), args.format)
    _emit({"count": len(ms)}, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    ap = argparse.ArgumentParser(prog=PROG, description="genus-2 Jacobian arithmetic and torsion division polynomials")
    sub = ap.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("curve", help="curve model operations")
    pcs = pc.add_subparsers(dest="curve_verb", required=True)
    pt = pcs.add_parser("transform", parents=[common],
                        help="reduce a general model to the canonical quintic")
    pt.add_argument("--curve", required=True)
    pt.add_argument("--allow-extension", action="store_true",
                    help="retry over F_{p^k}, k <= 4, when the sextic has no rational root")
    pt.set_defaults(func=_cmd_curve_transform)

    pj = sub.add_parser("jac", help="Jacobian arithmetic")
    pjs = pj.add_subparsers(dest="jac_verb", required=True)
    for name, nargs in (("add", 2), ("double", 1), ("verify", 1)):
        pp = pjs.add_parser(name, parents=[common])
        pp.add_argument("divisors", nargs=nargs, metavar="divisor.json")
        pp.add_argument("--curve", required=True)
        pp.set_defaults(func=_cmd_jac)
    pm = pjs.add_parser("mul", parents=[common])
    pm.add_argument("n", type=int)
    pm.add_argument("divisors", nargs=1, metavar="divisor.json")
    pm.add_argument("--curve", required=True)
    pm.set_defaults(func=_cmd_jac)

    pt = sub.add_parser("torsion", help="torsion search and checks")
    pts = pt.add_subparsers(dest="torsion_verb", required=True)
    pf = pts.add_parser("find", parents=[common])
    pf.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    pf.add_argument("--curve", required=True)
    pf.add_argument("--ext", type=int, default=1, help="search over F_{p^ext}")
    pf.set_defaults(func=_cmd_torsion)
    pk = pts.add_parser("check", parents=[common])
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--divisor", required=True)
    pk.add_argument("--curve", required=True)
    pk.set_defaults(func=_cmd_torsion)

    pd = sub.add_parser("divpoly", help="division polynomial emission")
    pds = pd.add_subparsers(dest="divpoly_verb", required=True)
    pe = pds.add_parser("emit", parents=[common])
    pe.add_argument("--n", type=int, required=True, choices=(3, 4))
    pe.add_argument("--coords", required=True, choices=("mumford", "xy"))
    pe.add_argument("--curve", help="specialize the curve coefficients (formal if omitted)")
    pe.set_defaults(func=_cmd_divpoly)

    po = sub.add_parser("oracle", help="independent Cantor-arithmetic ground truth")
    pos = po.add_subparsers(dest="oracle_verb", required=True)
    pe2 = pos.add_parser("enumerate", parents=[common])
    pe2.add_argument("--curve", required=True)
    pe2.set_defaults(func=_cmd_oracle)
    pt2 = pos.add_parser("torsion", parents=[common])
    pt2.add_argument("--n", type=int, required=True)
    pt2.add_argument("--curve", required=True)
    pt2.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except G2DivError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
