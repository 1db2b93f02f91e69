"""Package surface: lazy exports, verb-scoped imports and the record types."""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import g2div
from g2div import grouplaw
from g2div.cantor import CantorDivisor, from_mumford
from g2div.curves import CanonicalCurve, curve_from_json
from g2div.divisors import MumfordDivisor, divisor_from_json, divisor_to_json
from g2div.errors import DegenerateCurve, SerializationError, UnsupportedField
from g2div.fields import GF, FieldSpec
from g2div.models import GeneralCurve
from g2div.series import InfinityExpansion
from g2div.unipoly import UniPoly

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"
HEAVY = ("dataclasses", "g2div.torsion", "g2div.polyring", "g2div.cantor")
C7 = {"field": {"kind": "prime", "p": 7}, "form": "canonical",
      "lambda": ["0", "0", "0", "0", "1"]}
D1 = {"type": "nonspecial", "alpha": ["6", "0"], "beta": ["5", "6"]}


ARGPARSE = {"argparse", "gettext", "locale"}


def loaded_after(code):
    """The g2div, dataclasses, fractions, decimal, argparse, gettext and
    locale modules a fresh interpreter holds after code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return {m for m in json.loads(out.splitlines()[-1])
            if m in ("dataclasses", "fractions", "decimal", *ARGPARSE) or m.startswith("g2div")}


@pytest.fixture
def files(tmp_path):
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    c.write_text(json.dumps(C7))
    d.write_text(json.dumps(D1))
    return str(c), str(d)


def cli_calls(*argvs):
    return ("import contextlib, io\nfrom g2div import cli\n"
            f"for argv in {list(map(list, argvs))!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv")


def test_import_cli_loads_no_heavy_module():
    assert not loaded_after("import g2div.cli") & set(HEAVY)
    assert loaded_after("import g2div") == {"g2div"}


def test_jac_verbs_load_no_heavy_module(files):
    c, d = files
    loaded = loaded_after(cli_calls(
        ["jac", "add", d, d, "--curve", c], ["jac", "double", d, "--curve", c],
        ["jac", "mul", "5", d, "--curve", c], ["jac", "verify", d, "--curve", c]))
    assert "g2div.grouplaw" in loaded
    assert not loaded & set(HEAVY)


def test_torsion_verbs_load_no_polyring(files):
    c, d = files
    loaded = loaded_after(cli_calls(*(["torsion", "check", "--n", str(n), "--divisor", d,
                                       "--curve", c] for n in (2, 3, 4)),
                                    *(["torsion", "find", "--n", str(n), "--curve", c]
                                      for n in (3, 4))))
    assert "g2div.torsion" in loaded
    assert not loaded & {"g2div.polyring", "g2div.cantor"}


def test_oracle_enumerate_loads_neither_torsion_nor_polyring(files):
    c, _ = files
    loaded = loaded_after(cli_calls(["oracle", "enumerate", "--curve", c]))
    assert "g2div.cantor" in loaded
    assert not loaded & {"g2div.torsion", "g2div.polyring"}


def test_group_law_verbs_load_exactly_their_modules(files):
    c, d = files
    for argv in (["jac", "add", d, d, "--curve", c], ["jac", "double", d, "--curve", c],
                 ["jac", "mul", "5", d, "--curve", c]):
        assert loaded_after(cli_calls(argv)) == {
            "g2div", "g2div.errors", "g2div.fields", "g2div.unipoly", "g2div.curves",
            "g2div.divisors", "g2div.grouplaw", "g2div.cli"}, argv


def test_prime_field_verbs_load_neither_extension_nor_fractions():
    c, d1, d2 = (str(DATA / name) for name in ("c7.json", "c7_d1.json", "c7_d2.json"))
    loaded = loaded_after(cli_calls(
        ["jac", "verify", d1, "--curve", c], ["jac", "add", d1, d2, "--curve", c],
        ["jac", "double", d1, "--curve", c], ["jac", "mul", "5", d2, "--curve", c],
        ["oracle", "enumerate", "--curve", c],
        ["torsion", "check", "--n", "2", "--divisor", d1, "--curve", c]))
    assert {"g2div.grouplaw", "g2div.cantor", "g2div.torsion"} <= loaded
    assert not loaded & {"g2div.extension", "fractions", "decimal"}


def test_no_verb_loads_argparse(files):
    c, d = files
    g = str(DATA / "form_II.json")
    loaded = loaded_after(cli_calls(
        ["curve", "transform", "--curve", g], ["curve", "transform", "--curve", c],
        ["jac", "add", d, d, "--curve", c], ["jac", "double", d, "--curve", c],
        ["jac", "mul", "-5", d, "--curve", c], ["jac", "verify", d, "--curve", c],
        ["torsion", "check", "--n", "3", "--divisor", d, "--curve", c],
        ["torsion", "find", "--n", "2", "--ext", "2", "--curve", c],
        ["divpoly", "emit", "--n", "3", "--coords", "mumford", "--curve", c],
        ["oracle", "enumerate", "--curve", c], ["oracle", "torsion", "--n", "2", "--curve", c]))
    assert {"g2div.grouplaw", "g2div.torsion", "g2div.cantor", "g2div.models"} <= loaded
    assert not loaded & ARGPARSE


def test_jac_oracle_enumerate_and_torsion_check_load_neither_roots_nor_rational():
    c, d1, d2 = (str(DATA / name) for name in ("c7.json", "c7_d1.json", "c7_d2.json"))
    loaded = loaded_after(cli_calls(
        ["jac", "verify", d1, "--curve", c], ["jac", "add", d1, d2, "--curve", c],
        ["jac", "double", d1, "--curve", c], ["jac", "mul", "5", d2, "--curve", c],
        ["oracle", "enumerate", "--curve", c],
        *(["torsion", "check", "--n", str(n), "--divisor", d1, "--curve", c] for n in (2, 3, 4))))
    assert {"g2div.grouplaw", "g2div.cantor", "g2div.torsion"} <= loaded
    assert not loaded & {"g2div.roots", "g2div.rational"}
    # the verbs that find roots, and Q, load them on first use
    loaded = loaded_after(cli_calls(["torsion", "find", "--n", "2", "--curve", c],
                                    ["divpoly", "emit", "--n", "3", "--coords", "mumford"]))
    assert {"g2div.roots", "g2div.rational"} <= loaded


def test_extension_field_jac_add_loads_extension_and_matches_library():
    c, d1, d2 = (DATA / name for name in ("c49.json", "c49_d1.json", "c49_d2.json"))
    argv = ["jac", "add", str(d1), str(d2), "--curve", str(c)]
    assert "g2div.extension" in loaded_after(cli_calls(argv))
    out = subprocess.run([sys.executable, "-m", "g2div.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    curve = curve_from_json(json.loads(c.read_text()))
    ds = [divisor_from_json(curve.field, json.loads(d.read_text())) for d in (d1, d2)]
    assert json.loads(out) == divisor_to_json(grouplaw.add(*ds, curve))


def test_verify_and_oracle_verbs_load_no_grouplaw(files):
    c, d = files
    for argv in (["jac", "verify", d, "--curve", c], ["oracle", "enumerate", "--curve", c],
                 ["oracle", "torsion", "--n", "2", "--curve", c]):
        assert "g2div.grouplaw" not in loaded_after(cli_calls(argv)), argv


def test_canonical_curve_verbs_load_neither_models_nor_series(files):
    c, d = files
    loaded = loaded_after(cli_calls(
        ["curve", "transform", "--curve", c],
        ["jac", "add", d, d, "--curve", c], ["jac", "double", d, "--curve", c],
        ["jac", "mul", "5", d, "--curve", c], ["jac", "verify", d, "--curve", c],
        *(["torsion", "check", "--n", str(n), "--divisor", d, "--curve", c] for n in (2, 3, 4)),
        *(["torsion", "find", "--n", str(n), "--curve", c] for n in (2, 3, 4)),
        ["divpoly", "emit", "--n", "3", "--coords", "mumford", "--curve", c],
        ["oracle", "enumerate", "--curve", c], ["oracle", "torsion", "--n", "2", "--curve", c]))
    assert {"g2div.grouplaw", "g2div.torsion", "g2div.polyring", "g2div.cantor"} <= loaded
    assert not loaded & {"g2div.models", "g2div.series"}


@pytest.mark.parametrize("form", ("I", "II", "III"))
def test_curve_transform_of_a_general_model_loads_models(form):
    f = str(DATA / f"form_{form}.json")
    loaded = loaded_after(cli_calls(["curve", "transform", "--curve", f]))
    assert "g2div.models" in loaded
    assert not loaded & {"g2div.grouplaw", "g2div.series"}


def test_lazy_exports_resolve():
    for name in g2div.__all__:
        assert getattr(g2div, name) is not None
        assert name in dir(g2div)
    namespace = {}
    exec("from g2div import *", namespace)
    assert set(g2div.__all__) <= set(namespace)
    assert namespace["scalar_mul"] is grouplaw.scalar_mul
    with pytest.raises(AttributeError):
        g2div.no_such_name
    from g2div import extension, fields, rational, roots, unipoly
    for name in ("ExtensionField", "FieldEmbedding", "embedding", "find_irreducible",
                 "is_irreducible_mod_p"):
        assert getattr(fields, name) is getattr(extension, name)
    assert fields.RationalField is rational.RationalField
    from g2div.fields import RationalField
    assert RationalField is rational.RationalField
    for name in ("powmod", "roots_in_field", "factors_of_degree"):
        assert getattr(unipoly, name) is getattr(roots, name)
    from g2div.unipoly import roots_in_field
    assert roots_in_field is roots.roots_in_field
    for module in (fields, unipoly):
        with pytest.raises(AttributeError):
            module.no_such_name


# ---------------------------------------------------------------------------
# records

def records():
    F = GF(7)
    return [
        MumfordDivisor.nonspecial(F, 6, 0, 5, 6),
        CanonicalCurve(F, (0, 0, 0, 0, 1)),
        GeneralCurve(F, "II", a=(1, 0, 0, 0, 0, 0, 6)),
        FieldSpec("extension", p=7, k=2, modulus=(1, 0, 1)),
        from_mumford(MumfordDivisor.special(F, 6, 0)),
    ]


def test_records_are_immutable():
    for r in records():
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], r[0])
        with pytest.raises(AttributeError):
            r.extra = 1


def test_equal_records_hash_equal():
    for a, b in zip(records(), records()):
        assert a == b and a is not b
        assert hash(a) == hash(b)
    F = GF(7)
    assert MumfordDivisor(F, "neutral", ()) == (F, "neutral", ())
    assert len({MumfordDivisor.neutral(F), MumfordDivisor(F, "neutral", [])}) == 1


def test_records_pickle_on_interned_field():
    for r in records()[:2]:
        back = pickle.loads(pickle.dumps(r))
        assert back == r and type(back) is type(r)
        assert back.field is r.field


def test_constructors_validate_and_coerce():
    F = GF(7)
    d = MumfordDivisor(F, "special", (13, 0))
    assert d.coords == (F.element(6), F.zero) and d.coords[0].field is F
    with pytest.raises(SerializationError):
        MumfordDivisor(F, "special", (1,))
    with pytest.raises(SerializationError):
        MumfordDivisor(F, "double", ())
    with pytest.raises(DegenerateCurve):
        CanonicalCurve(F, (0, 0, 0, 0, 0))
    with pytest.raises(DegenerateCurve):
        GeneralCurve(F, "II", a=(0, 0, 1, 0, 0, 0, 1))
    with pytest.raises(SerializationError):
        CantorDivisor(UniPoly(F, [1, 2]), UniPoly.zero(F))
    assert FieldSpec("extension", p=7, k=2, modulus=(8, 7, 1)).modulus == (1, 0, 1)
    with pytest.raises(UnsupportedField):
        FieldSpec("extension", p=7, k=2, modulus=(6, 0, 1))  # x^2 - 1 is reducible
    assert FieldSpec("prime", 7) == FieldSpec(kind="prime", p=7, k=None, modulus=None)
    assert InfinityExpansion(3, (1, 0, 0)).X_POLE == 2
