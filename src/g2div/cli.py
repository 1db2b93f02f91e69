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
The arguments are read against the verb table VERBS, whose synopses are
also the usage text; no argparse is imported.
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
        ds = [divisor_from_json(F, _load_json(path)) for path in args.divisors]
        try:  # add, double and scalar_mul check each operand against the Jacobian
            if args.jac_verb == "add":
                result = add(ds[0], ds[1], curve)
            elif args.jac_verb == "double":
                result = double(ds[0], curve)
            else:
                result = scalar_mul(args.n, ds[0], curve)
        except OffCurve:  # name the first file that failed the check
            for path in args.divisors:
                _load_divisor(path, curve)
            raise
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
        if args.ext > 1:
            F = curve.field
            if F.order() is None or F.order() != F.characteristic:
                raise SerializationError("--ext expects a prime-field curve")
            big = GF(F.characteristic, args.ext)
            curve = CanonicalCurve(big, tuple(big.element(c.value) for c in curve.lam))
        for d in find_n_torsion(curve, args.n):  # sorted by every search
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
        found, total = cantor.enumerate_jacobian(curve), "order"
    else:
        found, total = cantor.brute_force_n_torsion(curve, args.n), "count"
    for d in sorted(map(cantor.to_mumford, found), key=lambda d: d.sort_key()):
        _emit(divisor_to_json(d), args.format)
    _emit({total: len(found)}, args.format)
    return 0


# ---------------------------------------------------------------------------
# the verb table and its parser

# (group, verb) -> (handler, synopsis, summary).  The synopsis is both the
# verb's argument table and its usage line.  Its leading bare words are the
# positionals: N fills the int n, each divisor.json one entry of the list
# divisors.  --name METAVAR is an option that fills the attribute name (with
# - read as _): an int when METAVAR is N or a set of numbers, one of the set
# when it is {a,b,...}, else a string.  An option in [...] is optional and
# defaults to the first of its set, else None; [--name] alone is a flag.
VERBS = {
    ("curve", "transform"): (_cmd_curve_transform, "--curve CURVE [--allow-extension]",
                             "a general model as the canonical quintic; over F_{p^k}, k <= 4,"
                             " with --allow-extension"),
    ("jac", "add"): (_cmd_jac, "divisor.json divisor.json --curve CURVE",
                     "the sum of two divisors"),
    ("jac", "double"): (_cmd_jac, "divisor.json --curve CURVE", "twice a divisor"),
    ("jac", "mul"): (_cmd_jac, "N divisor.json --curve CURVE", "N times a divisor"),
    ("jac", "verify"): (_cmd_jac, "divisor.json --curve CURVE",
                        "the model equations J8, J10 of a divisor"),
    ("torsion", "find"): (_cmd_torsion, "--n {2,3,4} --curve CURVE [--ext {1,2,3,4}]",
                          "the divisors of exact order n over F_{p^ext}"),
    ("torsion", "check"): (_cmd_torsion, "--n N --divisor DIVISOR --curve CURVE",
                           "whether a divisor has exact order n, with the n = 3/4 residuals"),
    ("divpoly", "emit"): (_cmd_divpoly, "--n {3,4} --coords {mumford,xy} [--curve CURVE]",
                          "the division polynomials, formal or of one curve"),
    ("oracle", "enumerate"): (_cmd_oracle, "--curve CURVE",
                              "every reduced divisor by Cantor arithmetic, then the order"),
    ("oracle", "torsion"): (_cmd_oracle, "--n N --curve CURVE",
                            "the divisors of exact order n by Cantor arithmetic, then the count"),
}
_FORMAT = " [--format {json,text}]"  # every verb takes it
_HELP = ("-h", "--help")


def _keys(level) -> list:
    return [key for key in VERBS if key[:len(level)] == level]


def _usage(level) -> str:
    return "usage: " + "\n       ".join(f"{PROG} {' '.join(key)} {VERBS[key][1]}{_FORMAT}"
                                        for key in _keys(level))


def _help(level):
    print(_usage(level) + "\n\ngenus-2 Jacobian arithmetic and torsion division polynomials\n")
    for key in _keys(level):
        print(f"  {' '.join(key):<18} {VERBS[key][2]}")
    raise SystemExit(0)


def _fail(level, message):
    print(f"{_usage(level)}\n{PROG}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_option(word: str) -> bool:
    return word.startswith("-") and not word[1:].isdigit()  # -3 is a value


def _value(level, name, metavar, word):
    try:
        value = int(word) if metavar == "N" or metavar[1:2].isdigit() else word
    except ValueError:
        _fail(level, f"{name}: invalid int value {word!r}")
    if metavar[0] == "{" and str(value) not in metavar[1:-1].split(","):
        _fail(level, f"{name}: invalid choice {word!r} (choose from {metavar})")
    return value


def parse_args(argv):
    """The namespace of argv (without the program name), read against VERBS.

    -h or --help prints the usage of the group or verb it follows to stdout
    and exits 0; any other malformed argv prints the usage and the error to
    stderr and exits 2."""
    words = [w for word in argv for w in (word.split("=", 1) if word[:2] == "--" else [word])]
    level = ()
    for kind in ("group", "verb"):
        if not words or words[0] in _HELP:
            _help(level) if words else _fail(level, f"missing {kind}")
        if not _keys((*level, words[0])):
            _fail(level, f"unknown {kind} {words[0]!r}")
        level += (words.pop(0),)
    handler, synopsis, _ = VERBS[level]
    table = (synopsis + _FORMAT).split()
    positionals = synopsis.partition("--")[0].split()
    # --name -> its metavar, "" for a flag
    options = {word.strip("[]"): "" if word[-1] == "]" else table[i + 1].rstrip("]")
               for i, word in enumerate(table) if word.lstrip("[")[:2] == "--"}
    given, values = [], {}
    while words:
        word = words.pop(0)
        metavar = options.get(word)
        if word in _HELP:
            _help(level)
        elif not _is_option(word):
            given.append(word)
        elif metavar is None:
            _fail(level, f"unrecognized option {word}")
        elif not metavar:
            values[word] = True
        elif not words or _is_option(words[0]):
            _fail(level, f"{word} expects a value")
        else:
            values[word] = _value(level, word, metavar, words.pop(0))
    if len(given) != len(positionals):
        _fail(level, f"expected {len(positionals)} positional arguments, got {len(given)}")
    args = SimpleNamespace(func=handler, divisors=given, **{f"{level[0]}_verb": level[1]})
    if positionals[:1] == ["N"]:
        args.n = _value(level, "N", "N", given.pop(0))
    for name, metavar in options.items():
        if name not in values:
            if name in table:  # not in [...]
                _fail(level, f"missing required option {name}")
            values[name] = (_value(level, name, metavar, metavar[1:-1].split(",")[0])
                            if metavar[:1] == "{" else None if metavar else False)
        setattr(args, name[2:].replace("-", "_"), values[name])
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except G2DivError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
