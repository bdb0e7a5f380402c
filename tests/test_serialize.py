"""JSON round trips for every wire format."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specpoly import (LPFunction, build_witness, check_majorization,
                      decompose_majorization, from_roots)
from specpoly.errors import ConfigError, NotMajorized
from specpoly.scalars import MAX_EXPONENT, parse_scalar
from specpoly.serialize import (certificate_to_json, chain_from_json,
                                chain_to_json, lp_from_json, lp_to_json,
                                poly_from_json, poly_to_json,
                                witness_from_json, witness_to_json)


def test_poly_round_trip_rational():
    p = from_roots([Fraction(1, 3), 2, -5])
    obj = poly_to_json(p)
    assert obj == {"mode": "rational", "roots": ["-5", "1/3", "2"]}
    assert poly_from_json(json.loads(json.dumps(obj))).roots == p.roots


def test_poly_round_trip_float():
    p = from_roots([0.5, -1.25])
    obj = poly_to_json(p)
    assert obj["mode"] == "float"
    assert poly_from_json(obj).roots == p.roots


def test_poly_from_bare_list():
    p = poly_from_json([3, "1/2"])
    assert p.roots == (Fraction(1, 2), 3)


def test_poly_from_coefficients():
    p = poly_from_json({"coeffs": [-6, 11, -6, 1]})
    assert p.mode == "float"
    assert max(abs(r - e) for r, e in zip(p.roots, (1, 2, 3))) < 1e-8


def test_poly_bad_payloads():
    with pytest.raises(ConfigError):
        poly_from_json({"nothing": 1})
    with pytest.raises(ConfigError):
        poly_from_json({"mode": "decimal", "roots": [1]})
    with pytest.raises(ConfigError):
        poly_from_json("x^2-1")
    with pytest.raises(ConfigError):
        poly_from_json({"roots": 5})
    with pytest.raises(ConfigError):
        poly_from_json({"coeffs": "1 2 1"})


def test_certificate_json_shape():
    # integer scalars stay JSON numbers (exact), fractions go to "p/q"
    cert = check_majorization((1, 1, 2), (0, 2, 2))
    obj = certificate_to_json(cert)
    assert obj == {"verdict": "Less", "sum_residual": 0,
                   "slacks": [0, 1], "tol": "0"}
    cert2 = check_majorization((Fraction(1, 2), Fraction(1, 2)), (0, 1))
    assert certificate_to_json(cert2)["slacks"] == ["1/2"]


def test_witness_round_trip():
    w = build_witness((1, 3), (0, 4))
    rows = witness_to_json(w)
    assert rows == [["3/4", "1/4"], ["1/4", "3/4"]]
    back = witness_from_json(json.loads(json.dumps(rows)))
    assert back.matrix == w.matrix
    back.validate((1, 3), (0, 4))


def test_witness_from_ragged_rows_fails_validation():
    back = witness_from_json([["3/4", "1/4"], ["1"]])
    with pytest.raises(NotMajorized):
        back.validate((1, 3), (0, 4))
    back = witness_from_json([["1", "0"], ["0", "1"]])
    with pytest.raises(NotMajorized):
        back.validate((1, 2, 99), (1, 2, 5))


def test_chain_round_trip():
    chain = decompose_majorization(from_roots([0, 2, 4]), from_roots([1, 2, 3]))
    obj = json.loads(json.dumps(chain_to_json(chain)))
    assert obj["steps"][0] == {"k": 1, "l": 2, "t": "1/4"}
    back = chain_from_json(obj)
    back.verify()
    assert back.target.roots == chain.target.roots


@pytest.mark.parametrize("edit", [
    lambda obj: obj.pop("target"),
    lambda obj: obj.update(steps={"k": 1}),
    lambda obj: obj["steps"][0].pop("l"),
    lambda obj: obj["steps"][0].update(k="1"),
    lambda obj: obj["steps"].append(3),
], ids=["no-target", "steps-not-a-list", "step-without-l", "k-a-string",
        "step-not-an-object"])
def test_chain_bad_payloads(edit):
    obj = chain_to_json(decompose_majorization(from_roots([0, 2, 4]),
                                               from_roots([1, 2, 3])))
    edit(obj)
    with pytest.raises(ConfigError):
        chain_from_json(obj)


def test_lp_round_trip():
    phi = LPFunction(c=Fraction(1, 2), m=1, a=Fraction(2, 3), b=-2,
                     alphas=(Fraction(1, 4), 1))
    obj = json.loads(json.dumps(lp_to_json(phi)))
    assert lp_from_json(obj) == phi


def test_lp_float_parameters_are_written_exactly():
    # a float is read as the rational it stores and written as "p/q";
    # ints and Fractions keep their bytes
    obj = json.loads(json.dumps({"c": 2, "a": "1/3", "b": 0.1,
                                 "alphas": [0.25, -1]}))
    phi = lp_from_json(obj)
    out = lp_to_json(phi)
    assert out == {"c": 2, "m": 0, "a": "1/3", "b": str(Fraction(0.1)),
                   "alphas": ["1/4", -1]}
    assert lp_from_json(json.loads(json.dumps(out))) == phi


def test_lp_defaults():
    assert lp_from_json({}) == LPFunction()


@pytest.mark.parametrize("obj", [[1, 0, 1], "phi", 3, None])
def test_lp_from_non_object_is_config_error(obj):
    with pytest.raises(ConfigError):
        lp_from_json(obj)


@pytest.mark.parametrize("coeffs", [[float("nan"), 1], ["1e999", 1],
                                    [float("inf"), 0, 1]],
                         ids=["nan", "beyond-double-range", "inf"])
def test_coefficients_must_be_finite_doubles(coeffs):
    # through JSON text, as the CLI reads them
    obj = json.loads(json.dumps({"coeffs": coeffs}))
    with pytest.raises(ConfigError):
        poly_from_json(obj)


@pytest.mark.parametrize("m", [1.7, 1.0, True, "2", -1, None])
def test_lp_m_must_be_an_integer_at_least_zero(m):
    with pytest.raises(ConfigError, match="'m'"):
        lp_from_json({"m": m})


@pytest.mark.parametrize("obj", [{"c": float("nan")}, {"a": float("inf")},
                                 {"b": float("-inf")},
                                 {"alphas": [float("nan")]}],
                         ids=["c-nan", "a-inf", "b-minus-inf", "alpha-nan"])
def test_lp_scalars_must_be_finite(obj):
    with pytest.raises(ConfigError, match="finite"):
        lp_from_json(json.loads(json.dumps(obj)))


_SCALAR_TEXT = st.one_of(
    st.integers().map(str),
    st.fractions().map(str),
    st.from_regex(r"\A\s?[-+]?[0-9_]{0,5}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,2})?"
                  r"(/[-0-9_]{0,4})?\s?\Z"),
    st.text(alphabet="0123456789-+/._eE \u0661\u0662\u00b3\uff11", max_size=8),
    st.sampled_from(["1/0", "-0", "-0/7", "0/5", "-", "", "/2", "1/", "1/-2",
                     "\u0661/\u0662", "\u00b2", "\uff11", "1_000/3", "1e3",
                     " 3/4 ", "+5", "--1", "-7/0", "1.5/2", "12/0003"]),
)


@given(_SCALAR_TEXT)
def test_parse_scalar_agrees_with_fraction(text):
    # the split fast path and Fraction(text) give the same value, or both
    # refuse the text; a decimal exponent beyond MAX_EXPONENT is refused
    # before Fraction builds its power of ten
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exp and abs(int(exp[1])) > MAX_EXPONENT:
        with pytest.raises(ConfigError):
            parse_scalar(text)
        return
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ConfigError):
            parse_scalar(text)
        return
    got = parse_scalar(text)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize("text", ["1E999999", "0e700000", "-2.5e-99999999",
                                  f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}"])
def test_parse_scalar_refuses_huge_exponent_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="exponent"):
        parse_scalar(text)
    assert time.perf_counter() - start < 0.05


def test_parse_scalar_reads_exponent_at_the_bound():
    assert parse_scalar(f"3e{MAX_EXPONENT}") == 3 * 10 ** MAX_EXPONENT
    assert parse_scalar(f" 1_0E-{MAX_EXPONENT} ") == Fraction(10, 10 ** MAX_EXPONENT)
