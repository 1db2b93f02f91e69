import hashlib
import json
from pathlib import Path

import pytest

from g2div.cli import main

C7 = {"field": {"kind": "prime", "p": 7}, "form": "canonical",
      "lambda": ["0", "0", "0", "0", "1"]}
D1 = {"type": "nonspecial", "alpha": ["6", "0"], "beta": ["5", "6"]}


@pytest.fixture
def files(tmp_path):
    c = tmp_path / "c.json"
    c.write_text(json.dumps(C7))
    d = tmp_path / "d.json"
    d.write_text(json.dumps(D1))
    return str(c), str(d)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines() if line]


def test_jac_verify_valid(files, capsys):
    c, d = files
    code, out = run(capsys, "jac", "verify", d, "--curve", c)
    assert code == 0
    assert out[-1] == {"J8": "0", "J10": "0"}


def test_jac_verify_off_model(files, tmp_path, capsys):
    c, _ = files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "nonspecial", "alpha": ["0", "0"], "beta": ["0", "0"]}))
    code, out = run(capsys, "jac", "verify", str(bad), "--curve", c)
    assert code == 1
    assert out[-1]["J10"] == "6"  # -lambda10 mod 7


# each breaks the JSON shape rule once: p, k and the modulus entries are
# JSON integers, the element lists are lists of strings (two in a divisor
# list), and a file holds an object
MALFORMED_CURVES = {
    "float-p": {**C7, "field": {"kind": "prime", "p": 7.9}},
    "string-lambda": {**C7, "lambda": "00001"},
    "float-k": {**C7, "field": {"kind": "extension", "p": 7, "k": 2.9, "modulus": [1, 0, 1]}},
    "float-modulus": {**C7, "field": {"kind": "extension", "p": 7, "k": 2, "modulus": [3.7, 6, 1]}},
    "bool-p": {**C7, "field": {"kind": "prime", "p": True}},
    "list": [C7],
}
MALFORMED_DIVISORS = {
    "string-alpha-beta": {"type": "nonspecial", "alpha": "60", "beta": "31"},
    "three-alphas": {**D1, "alpha": ["6", "0", "1"]},
    "int-point": {"type": "special", "point": [6, 0]},
    "list": [D1],
}
# an element string is "n" or "n/d" (optional sign, ASCII digits); one
# case per form that Fraction would read but the grammar rejects
for form, e in {"exponent": "1e3", "decimal": "1.5", "space": " 1", "underscore": "1_0",
                "hex": "0x1", "arabic-indic-digit": "\u0661", "slash-sign": "1/-2"}.items():
    MALFORMED_CURVES[f"{form}-lambda"] = {**C7, "lambda": [e, "0", "0", "0", "1"]}
MALFORMED_DIVISORS["decimal-alpha"] = {**D1, "alpha": ["0.1", "0"]}
MALFORMED_DIVISORS["exponent-beta"] = {**D1, "beta": ["5e0", "6"]}


@pytest.mark.parametrize("which,bad", [("curve", k) for k in MALFORMED_CURVES]
                         + [("divisor", k) for k in MALFORMED_DIVISORS])
def test_malformed_json_is_bad_input(which, bad, files, tmp_path, capsys):
    c, d = files
    f = tmp_path / "bad.json"
    f.write_text(json.dumps((MALFORMED_CURVES if which == "curve" else MALFORMED_DIVISORS)[bad]))
    c, d = (str(f), d) if which == "curve" else (c, str(f))
    calls = [["jac", "verify", d, "--curve", c], ["jac", "double", d, "--curve", c],
             ["torsion", "check", "--n", "2", "--divisor", d, "--curve", c]]
    if which == "curve":
        calls += [["torsion", "find", "--n", "2", "--curve", c], ["curve", "transform", "--curve", c]]
    for argv in calls:
        code, out = run(capsys, *argv)
        assert code == 1 and len(out) == 1 and out[0]["error"] == "bad-input", (argv, out)


@pytest.mark.parametrize("which,e", [("curve", "1e3"), ("curve", "0.1"), ("divisor", "0.1"),
                                     ("divisor", "1/2 ")])
def test_malformed_rational_element_is_bad_input(which, e, tmp_path, capsys):
    data = Path(__file__).parent / "data"
    c, d = (json.loads((data / f"q_three_torsion{s}.json").read_text()) for s in ("", "_d"))
    if which == "curve":
        c["lambda"][0] = e
    else:
        d["alpha"][0] = e
    (tmp_path / "c.json").write_text(json.dumps(c))
    (tmp_path / "d.json").write_text(json.dumps(d))
    code, out = run(capsys, "jac", "verify", str(tmp_path / "d.json"), "--curve", str(tmp_path / "c.json"))
    assert code == 1 and out == [{"error": "bad-input", "detail": f"bad element {e!r} for Q"}]


@pytest.mark.parametrize("e", ["1_0,3", " 1,3", "1,2,3", "\u0663,1"])
def test_malformed_extension_element_is_bad_input(e, tmp_path, capsys):
    # an F_{7^2} curve file whose lambda holds a coefficient outside the
    # grammar "optional sign, ASCII digits", or more than k = 2 of them
    data = Path(__file__).parent / "data"
    c = json.loads((data / "c49.json").read_text())
    c["lambda"][0] = e
    (tmp_path / "c.json").write_text(json.dumps(c))
    code, out = run(capsys, "jac", "verify", str(data / "c49_d1.json"), "--curve", str(tmp_path / "c.json"))
    assert code == 1 and out == [{"error": "bad-input", "detail": f"bad element {e!r} for F7^2"}]


def test_jac_add_double_mul_round(files, tmp_path, capsys):
    c, d = files
    code, out = run(capsys, "jac", "add", d, d, "--curve", c)
    assert code == 0
    doubled = out[-1]
    code, out2 = run(capsys, "jac", "double", d, "--curve", c)
    assert out2[-1] == doubled
    code, out3 = run(capsys, "jac", "mul", "2", d, "--curve", c)
    assert out3[-1] == doubled


def test_mul_zero_neutral(files, capsys):
    c, d = files
    code, out = run(capsys, "jac", "mul", "0", d, "--curve", c)
    assert out[-1] == {"type": "neutral"}


def test_torsion_find_matches_oracle_run(files, capsys):
    c, _ = files
    code, mine = run(capsys, "torsion", "find", "--n", "2", "--curve", c)
    assert code == 0
    code, oracle = run(capsys, "oracle", "torsion", "--n", "2", "--curve", c)
    assert code == 0
    assert oracle[-1] == {"count": 1}
    assert mine == oracle[:-1]


def test_torsion_check(files, tmp_path, capsys):
    c, _ = files
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"type": "special", "point": ["6", "0"]}))
    code, out = run(capsys, "torsion", "check", "--n", "2", "--divisor", str(s), "--curve", c)
    assert code == 0 and out[-1]["is_torsion"] is True


def test_oracle_enumerate_order(files, capsys):
    c, _ = files
    code, out = run(capsys, "oracle", "enumerate", "--curve", c)
    assert code == 0
    assert out[-1] == {"order": 50}
    assert len(out) == 51  # 50 divisors + the order line


def test_divpoly_emit_weight_metadata(files, capsys):
    c, _ = files
    code, out = run(capsys, "divpoly", "emit", "--n", "3", "--coords", "xy",
                    "--curve", c, "--format", "json")
    assert code == 0
    assert out[0]["name"] == "x_support" and out[0]["weight"] == 40
    assert out[1]["name"] == "y_support" and out[1]["weight"] == 28


def test_divpoly_emit_formal_round_trip(capsys):
    code, out = run(capsys, "divpoly", "emit", "--n", "3", "--coords", "mumford")
    assert code == 0
    assert [o["weight"] for o in out] == [28, 30]
    from polyring_helpers import from_json, mumford_ring
    ring = mumford_ring()
    for o in out:
        p = from_json(ring, o)
        assert p.to_json()["terms"] == o["terms"]


def test_divpoly_emit_four_xy(files, capsys):
    c, _ = files
    code, out = run(capsys, "divpoly", "emit", "--n", "4", "--coords", "xy",
                    "--curve", c, "--format", "json")
    assert code == 0
    assert [(o["name"], o["weight"]) for o in out] == [
        ("x_support", 92), ("y_support", 60), ("y2d_support", 65)]
    assert out[0]["vars"] == ["x1", "x2"] and out[0]["weights"] == [2, 2]
    for o in out[1:]:
        assert o["vars"] == ["x1", "y1", "x2", "y2"] and o["weights"] == [2, 5, 2, 5]


def test_curve_transform(tmp_path, capsys):
    g = {"field": {"kind": "prime", "p": 101}, "form": "II",
         "a": ["1", "0", "0", "0", "0", "0", "-1"]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(g))
    code, out = run(capsys, "curve", "transform", "--curve", str(f))
    assert code == 0
    assert out[-1]["form"] == "canonical"
    assert out[-1]["lambda"][0] == "0"


def test_curve_transform_allow_extension(tmp_path, capsys):
    g = {"field": {"kind": "prime", "p": 7}, "form": "II",
         "a": ["1", "0", "0", "0", "0", "0", "1"]}  # x^6 + 1: rootless mod 7
    f = tmp_path / "g.json"
    f.write_text(json.dumps(g))
    code, out = run(capsys, "curve", "transform", "--curve", str(f))
    assert code == 1 and out[-1]["error"] == "no-rational-root"
    code, out = run(capsys, "curve", "transform", "--curve", str(f), "--allow-extension")
    assert code == 0
    assert out[-1]["field"]["kind"] == "extension"


# SHA-256 of the stdout of `torsion find --ext 2` on two F_7 curves, recorded
# while the search still scanned support pairs over F_{q^2} (no oracle covers
# F_{p^2}: enumerate_jacobian runs over prime fields only)
EXT_FIND_SHA256 = {
    ("0 0 0 1 2", 3): ("3edf090eabfd5fb0e2981463a62349cdb843d4b99e629afc8eba2ca6046da1e5", 2),
    ("0 0 0 1 2", 4): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("0 1 0 1 3", 3): ("8e354c38f48173b27c34c1b49166ea894b37c784614616c02956e8ec109a2d2b", 8),
    ("0 1 0 1 3", 4): ("6bacd852b2c395ad7274aad05c2ac1201e8dea5b7d58c3aed5c5c4a730b9dbe2", 12),
}


def test_torsion_find_ext_flag(tmp_path, capsys):
    from g2div.divisors import divisor_from_json, divisor_to_json
    from g2div.fields import GF
    f = tmp_path / "c.json"
    for (lam, n), want in EXT_FIND_SHA256.items():
        f.write_text(json.dumps({"field": {"kind": "prime", "p": 7}, "form": "canonical",
                                 "lambda": lam.split()}))
        code, base = run(capsys, "torsion", "find", "--n", str(n), "--curve", str(f))
        assert code == 0
        assert main(["torsion", "find", "--n", str(n), "--curve", str(f), "--ext", "2"]) == 0
        out = capsys.readouterr().out
        ext = [json.loads(line) for line in out.splitlines()]
        assert (hashlib.sha256(out.encode()).hexdigest(), len(ext)) == want
        for d in base:  # every base-field class, embedded, is found over F_49
            assert divisor_to_json(divisor_from_json(GF(7, 2), d)) in ext


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jac", "add"])  # missing operands
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["jac", "add", "d.json", "d.json", "--curve", "c.json", "--bogus"],
     "unrecognized option --bogus"),
    (["jac", "add", "d.json", "d.json"], "missing required option --curve"),
    (["jac", "mul", "three", "d.json", "--curve", "c.json"], "N: invalid int value 'three'"),
    (["torsion", "check", "--n", "x", "--divisor", "d.json", "--curve", "c.json"],
     "--n: invalid int value 'x'"),
    (["divpoly", "emit", "--n", "3", "--coords", "polar"], "--coords: invalid choice 'polar'"),
    (["oracle", "enumerate", "--curve", "c.json", "--format", "yaml"], "invalid choice 'yaml'"),
    (["jac", "double", "d.json", "d.json", "--curve", "c.json"], "expected 1 positional"),
    (["jac", "add", "d.json", "--curve", "c.json"], "expected 2 positional"),
    (["oracle", "enumerate", "extra", "--curve", "c.json"], "expected 0 positional"),
    (["jac", "verify", "d.json", "--curve"], "--curve expects a value"),
    (["curve", "transform", "--curve", "c.json", "--allow-extension=yes"], "positional"),
    (["jac", "divide", "d.json"], "unknown verb 'divide'"),
    (["field"], "unknown group 'field'"),
    ([], "missing group"),
    (["torsion"], "missing verb"),
    (["jac", "mul", "2", "d.json", "--curve", "c.json", "--cur", "c.json"],
     "unrecognized option --cur"),  # no prefix abbreviations
])
def test_usage_errors_exit_2_with_usage_on_stderr(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: g2div")
    assert "g2div: error: " in captured.err and message in captured.err


@pytest.mark.parametrize("ext", ["0", "-1", "5"])
def test_torsion_find_ext_outside_1_to_4_is_a_usage_error(ext, files, capsys):
    c, _ = files
    for argv in (["--ext", ext], [f"--ext={ext}"]):
        with pytest.raises(SystemExit) as exc:
            main(["torsion", "find", "--n", "2", "--curve", c, *argv])
        assert exc.value.code == 2
        assert "--ext: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_nonpositive_torsion_order_is_bad_input(n, files, capsys):
    c, d = files
    for argv in (["oracle", "torsion", "--n", n, "--curve", c],
                 ["torsion", "check", "--n", n, "--divisor", d, "--curve", c]):
        code, out = run(capsys, *argv)
        assert code == 1, argv
        assert out == [{"error": "bad-input", "detail": "torsion order must be positive"}], argv


def test_option_equals_value_matches_separate_value(files, capsys):
    c, d = files
    code, spaced = run(capsys, "torsion", "check", "--n", "2", "--divisor", d, "--curve", c)
    assert code == 0
    code, joined = run(capsys, "torsion", "check", "--n=2", f"--divisor={d}", f"--curve={c}",
                       "--format=json")
    assert code == 0 and joined == spaced
    assert main(["jac", "verify", d, f"--curve={c}", "--format=text"]) == 0
    assert capsys.readouterr().out == "J10: 0\nJ8: 0\n"


def test_jac_mul_negative_scalar(files, capsys):
    from g2div.curves import curve_from_json
    from g2div.divisors import divisor_from_json, divisor_to_json
    from g2div.grouplaw import scalar_mul
    c, d = files
    curve = curve_from_json(C7)
    want = divisor_to_json(scalar_mul(-3, divisor_from_json(curve.field, D1), curve))
    code, out = run(capsys, "jac", "mul", "-3", d, "--curve", c)
    assert code == 0 and out == [want]
    code, out = run(capsys, "jac", "mul", "--curve", c, "-3", d)  # options before positionals
    assert code == 0 and out == [want]


@pytest.mark.parametrize("argv,names", [
    ([], ["curve transform", "jac add", "jac mul N divisor.json", "torsion find",
          "divpoly emit", "oracle torsion", "--format {json,text}"]),
    (["jac"], ["jac add", "jac double", "jac mul", "jac verify", "--curve CURVE"]),
    (["torsion", "find"], ["torsion find --n {2,3,4} --curve CURVE [--ext {1,2,3,4}]"]),
    (["curve", "transform"], ["[--allow-extension]"]),
    (["divpoly", "emit"], ["--coords {mumford,xy} [--curve CURVE]"]),
])
def test_help_at_every_level_exits_0(argv, names, capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: g2div") and captured.err == ""
        for name in names:
            assert name in captured.out, (argv, name)
    if argv:  # a group's help leaves out the other groups
        assert "oracle enumerate" not in captured.out


def test_seed_reproducibility(files, capsys):
    c, _ = files
    code, a = run(capsys, "torsion", "find", "--n", "2", "--curve", c)
    code, b = run(capsys, "torsion", "find", "--n", "2", "--curve", c)
    assert a == b  # deterministic pipelines


def test_off_jacobian_divisor_rejected(files, tmp_path, capsys):
    # (a2, a4, b3, b5) = (1, 2, 3, 4) fails J8/J10 on y^2 = x^5 + 1 over F_7;
    # the group law alone would print the off-curve point (3, 6) with exit 0
    c, d = files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "nonspecial", "alpha": ["1", "2"], "beta": ["3", "4"]}))
    b = str(bad)
    for argv in (("jac", "add", b, b), ("jac", "add", d, b), ("jac", "double", b),
                 ("jac", "mul", "3", b), ("torsion", "check", "--n", "3", "--divisor", b)):
        code, out = run(capsys, *argv, "--curve", c)
        assert code == 1, argv
        assert out[-1]["error"] == "off-curve", argv
    off_point = tmp_path / "pt.json"
    off_point.write_text(json.dumps({"type": "special", "point": ["3", "6"]}))
    code, out = run(capsys, "jac", "double", str(off_point), "--curve", c)
    assert code == 1 and out[-1]["error"] == "off-curve"
    code, out = run(capsys, "jac", "verify", b, "--curve", c)
    assert code == 1 and "J8" in out[-1]  # verify still reports the residuals


def test_jac_verbs_check_each_operand_once_and_name_the_file(files, tmp_path, capsys, monkeypatch):
    # add, double and mul check each operand once, in the group law; an
    # operand off the Jacobian fails with its own file's name, first or second
    from g2div import cli, divisors, grouplaw
    c, d = files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "nonspecial", "alpha": ["1", "2"], "beta": ["3", "4"]}))
    b = str(bad)
    checked = []

    def counted(D, curve):
        checked.append(D)
        return divisors.is_on_jacobian(D, curve)

    for module in (cli, grouplaw):
        monkeypatch.setattr(module, "is_on_jacobian", counted)
    for argv, operands in ((("jac", "add", d, d), 2), (("jac", "double", d), 1),
                           (("jac", "mul", "5", d), 1)):
        checked.clear()
        code, _ = run(capsys, *argv, "--curve", c)
        assert code == 0 and len(checked) == operands, argv
    for argv in (("jac", "add", b, d), ("jac", "add", d, b), ("jac", "double", b),
                 ("jac", "mul", "3", b)):
        code, out = run(capsys, *argv, "--curve", c)
        assert code == 1, argv
        assert out[-1] == {"error": "off-curve", "detail": f"{b}: divisor is not on the Jacobian"}, argv


def test_json_round_trip_parse_emit(files, capsys):
    c, d = files
    code, out = run(capsys, "jac", "mul", "1", d, "--curve", c)
    assert out[-1] == D1


def _torsion_divisor_file(tmp_path, lam, n):
    from g2div.curves import CanonicalCurve, curve_to_json
    from g2div.divisors import divisor_to_json
    from g2div.fields import GF
    from g2div.torsion import find_n_torsion
    curve = CanonicalCurve(GF(7), lam)
    d = next(d for d in find_n_torsion(curve, n) if d.is_nonspecial())
    c, f = tmp_path / f"c{n}.json", tmp_path / f"t{n}.json"
    c.write_text(json.dumps(curve_to_json(curve)))
    f.write_text(json.dumps(divisor_to_json(d)))
    return str(c), str(f)


def test_torsion_check_three_residuals(tmp_path, files, capsys):
    c, f = _torsion_divisor_file(tmp_path, (0, 0, 0, 1, 2), 3)
    code, out = run(capsys, "torsion", "check", "--n", "3", "--divisor", f, "--curve", c)
    assert code == 0
    assert out == [{"n": 3, "is_torsion": True, "residuals": ["0", "0"]}]
    c, d = files  # D1 is not 3-torsion: the residuals say so too
    code, out = run(capsys, "torsion", "check", "--n", "3", "--divisor", d, "--curve", c)
    assert out == [{"n": 3, "is_torsion": False, "residuals": ["3", "5"]}]


def test_torsion_check_four_residuals(tmp_path, files, capsys):
    c, f = _torsion_divisor_file(tmp_path, (0, 0, 0, 3, 3), 4)
    code, out = run(capsys, "torsion", "check", "--n", "4", "--divisor", f, "--curve", c)
    assert code == 0
    assert out[0]["is_torsion"] is True and out[0]["branch"] in ("special", "nonspecial")
    assert set(out[0]["residuals"]) == {"0"}
    c, d = files
    code, out = run(capsys, "torsion", "check", "--n", "4", "--divisor", d, "--curve", c)
    assert out == [{"n": 4, "is_torsion": False, "branch": "nonspecial",
                    "residuals": ["1", "1"]}]


def test_every_handler_renders_text(files, tmp_path, capsys):
    c, d = files
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"field": {"kind": "prime", "p": 101}, "form": "II",
                             "a": ["1", "0", "0", "0", "0", "0", "-1"]}))
    expected = {
        ("curve", "transform", "--curve", str(g)): "lambda: [0, 30, 0, 81, 0]",
        ("jac", "verify", d, "--curve", c): "J10: 0\nJ8: 0",
        ("jac", "mul", "3", d, "--curve", c): "alpha: [0, 1]\nbeta: [1, 4]\ntype: nonspecial",
        ("torsion", "check", "--n", "2", "--divisor", d, "--curve", c): "is_torsion: False\nn: 2",
        ("torsion", "find", "--n", "2", "--curve", c): "point: [6, 0]\ntype: special",
        ("divpoly", "emit", "--n", "3", "--coords", "mumford"):
            "# a2_relation (n=3, mumford, weight 28)\n25*a2^9*b5^2 - ",
        ("oracle", "enumerate", "--curve", c): "type: neutral",
        ("oracle", "torsion", "--n", "2", "--curve", c): "point: [6, 0]\ntype: special\ncount: 1",
    }
    for argv, text in expected.items():
        assert main([*argv, "--format", "text"]) == 0, argv
        out = capsys.readouterr().out
        assert text in out, argv
    assert out.rstrip().endswith("count: 1")


def test_nested_dict_renders_indented(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"field": {"kind": "prime", "p": 101}, "form": "II",
                             "a": ["1", "0", "0", "0", "0", "0", "-1"]}))
    assert main(["curve", "transform", "--curve", str(g), "--format", "text"]) == 0
    assert capsys.readouterr().out == ("field:\n  kind: prime\n  p: 101\n"
                                       "form: canonical\nlambda: [0, 30, 0, 81, 0]\n")


# SHA-256 of the stdout of `divpoly emit --format json` for the formal systems,
# recorded before WeightedPoly packed its exponents
FORMAL_EMISSION_SHA256 = {
    (3, "mumford"): "d5f3c460e6cc22c801d7048d5f9b9756b0981a531179e527f2ff5be9b54504c3",
    (4, "mumford"): "c7adefd4035213e95f0214e5e5d66b6f9df7263141fd8a8a152b8ed9ae1b01f9",
    (3, "xy"): "ff5900cc006de69e36342b6e92523ba5ba50581422ccf5244d76b3106430f6cb",
    # derived from the n = 4 Mumford system by putting the support into it
    (4, "xy"): "0575859aa8705dc91e6e8092db95a94d2cfe6174440bf750bbe86299e706eb49",
}


@pytest.mark.parametrize("n,coords", sorted(FORMAL_EMISSION_SHA256))
def test_formal_emission_digest(n, coords, capsys):
    assert main(["divpoly", "emit", "--n", str(n), "--coords", coords, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAL_EMISSION_SHA256[n, coords]


# SHA-256 of the stdout of `divpoly emit --format json --curve tests/data/F.json`
# for the concrete systems, recorded before they were built in the curve's ring
CONCRETE_EMISSION_SHA256 = {
    ("c7", 3, "mumford"): "0acbe7aee7608d43a737c110b04df82d3cd0cdbe31e45d1b42cb14f2416da2cd",
    ("c7", 4, "mumford"): "f80cb6a34a173bbc4b707ee234eb9534ec3ad95c90e1fa5b2ec1641740bace8f",
    ("c7", 3, "xy"): "258195312419c57025cc2f90f6654e812f9765c6231e3a0b0510faadbe067499",
    ("c7", 4, "xy"): "0fc92e26736678abf9c99431b1ecfacb235df76018e9472c2cddf0045f4d71c7",
    ("c49", 3, "mumford"): "f8885e52591b18c492f5f9c93be4d37dd716bef65b938692f31e54bc91983e9e",
    ("c49", 4, "mumford"): "36069f16495ad05208cd94dde4e254fa714b8eaaeba6cf5b2d3e7efa0448255d",
    ("c49", 3, "xy"): "b473a16bc6efc24d0d57710115711548c70139c300671996807aaf4beb86b246",
    ("p127_three_branch_points", 3, "mumford"):
        "bb1a61202dc6eafe052c59f45fd8cb761d124c42ed9ea42c15084cd8cee6af85",
    ("p127_three_branch_points", 4, "mumford"):
        "a4d1614b3ddd4138737f73fbfd39bf842a69954bf132a72dae48538c1b14b262",
    ("p127_three_branch_points", 3, "xy"):
        "6345b30446f7b6faf12cf0e664290152a7a894d6f981ce6702ff018cebbb6b95",
    ("p127_four_torsion", 4, "xy"):
        "519b15f37b5618acd25ee5f01ed816696b3b0e4802a3427dedbcf7ccae772ee7",
}


@pytest.mark.parametrize("name,n,coords", sorted(CONCRETE_EMISSION_SHA256))
def test_concrete_emission_digest(name, n, coords, capsys):
    curve = Path(__file__).parent / "data" / f"{name}.json"
    assert main(["divpoly", "emit", "--n", str(n), "--coords", coords, "--format", "json",
                 "--curve", str(curve)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONCRETE_EMISSION_SHA256[name, n, coords]
