import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import symbols as S


def test_quadratic_at_two():
    sym = S.schrodinger(1)
    val, grad = S.phase(sym, [2.0])
    assert val == pytest.approx(4.0)
    assert grad[0] == pytest.approx(4.0)


def test_scaling_ratio_is_lambda_to_m():
    sym = S.schrodinger(1)
    v1, _ = S.phase(sym, [1.0])
    v2, _ = S.phase(sym, [2.0])
    assert v2 / v1 == pytest.approx(4.0, rel=1e-14)


def test_cubic_power_rule():
    sym = S.SymbolSpec("power", 3.0, 1)
    val, grad = S.phase(sym, [1.0])
    assert val == pytest.approx(1.0)
    assert grad[0] == pytest.approx(3.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for sym in (S.schrodinger(1), S.SymbolSpec("power", 3.0, 1), S.schrodinger(2),
                S.SymbolSpec(kind="poly", m=2, n=2, terms=((1.0, (2, 0)), (4.0, (0, 2))))):
        worst = 0.0
        for _ in range(100):
            d = rng.standard_normal(sym.n)
            d /= np.linalg.norm(d)
            xi = d * rng.uniform(0.25, 4.0)
            _, grad = S.phase(sym, xi)
            h = 1e-6
            for ax in range(sym.n):
                e = np.zeros(sym.n)
                e[ax] = h
                fd = (S.phase(sym, xi + e)[0] - S.phase(sym, xi - e)[0]) / (2 * h)
                denom = max(abs(fd), 1e-9)
                worst = max(worst, abs(grad[ax] - fd) / denom)
        assert worst <= 1e-6


@settings(max_examples=30, deadline=None)
@given(m=st.floats(min_value=1.1, max_value=4.0),
       lam=st.floats(min_value=0.1, max_value=10.0),
       xi=st.floats(min_value=0.1, max_value=5.0))
def test_power_law_homogeneity_property(m, lam, xi):
    sym = S.SymbolSpec("power", m, 1)
    v1, _ = S.phase(sym, [xi])
    v2, _ = S.phase(sym, [lam * xi])
    assert v2 == pytest.approx(lam**m * v1, rel=1e-10)


def test_from_config():
    sym = S.from_config("power:m=2,n=1")
    assert sym.kind == "power" and sym.m == 2 and sym.n == 1
    poly = S.from_config("poly:n=2,terms=1*2.0;4*0.2")
    assert poly.m == 2 and len(poly.terms) == 2
    assert S.from_config("poly:n=2,terms=1*1.2").m == 3  # the docstring's example


def test_duplicate_spec_key_rejected():
    with pytest.raises(ValueError, match="duplicate key 'm'"):
        S.split_spec("power:m=2,m=3,n=1", {"power": ("m", "n")})
    with pytest.raises(ValueError, match="duplicate key 'n'"):
        S.from_config("power:n=1,m=2, n =2")


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        S.SymbolSpec(kind="power", m=1.0, n=1)  # m must exceed 1
    with pytest.raises(ValueError):
        S.SymbolSpec(kind="poly", m=3, n=2, terms=((1.0, (1, 1)),))  # degree 2 != 3
    with pytest.raises(ValueError):
        S.SymbolSpec(kind="mystery", m=2, n=1)
    # Phi = 0 has no speed, so no p-grid and no dispersion
    with pytest.raises(ValueError, match="nonzero scale"):
        S.SymbolSpec(kind="power", m=2, n=1, scale=0.0)
    with pytest.raises(ValueError, match="cancel"):
        S.SymbolSpec(kind="poly", m=2, n=2, terms=((1.0, (2, 0)), (-1.0, (2, 0))))
    S.SymbolSpec(kind="poly", m=2, n=2, terms=((1.0, (2, 0)), (-1.0, (0, 2))))


def test_blank_or_non_numeric_values_name_their_key():
    for text, key in (("power:m=,n=1", "m"), ("power:m=2,n=", "n"), ("power:scale=x", "scale"),
                      ("power:n=1.5", "n"), ("poly:n=2,terms=1*2.x", "terms"),
                      # a key the kind does not read, or a missing one
                      ("power:m=3,foo=1", "foo"), ("poly:n=2,m=5,terms=1*1.1", "m"),
                      ("power:terms=1*2", "terms"), ("poly:n=2", "terms")):
        with pytest.raises(ValueError, match=f"^key '{key}': "):
            S.from_config(text)
    with pytest.raises(ValueError, match="unknown kind 'mystery'"):
        S.from_config("mystery:m=2")


# symbol kind -> a valid value of each of its keys
SYMBOL_KEYS = {"power": {"m": "2", "n": "1", "scale": "1"},
               "poly": {"n": "2", "terms": "1*2.0;4*0.2"}}
SYMBOL_WRONG = {"m": ["nan", "inf", "2;3", "1e400"], "scale": ["nan", "-inf", "1*2"],
                "n": ["1.5", "inf", "1e3", "nan"],
                "terms": ["1*2.x", "x*2.0", "nan*2.0", "1*2.0;", "1*inf.0"]}


@st.composite
def bad_symbol(draw):
    kind = draw(st.sampled_from(sorted(SYMBOL_KEYS)))
    key = draw(st.sampled_from(sorted(SYMBOL_KEYS[kind])))
    value = draw(st.one_of(st.just(""), st.text(alphabet=" \t", min_size=1, max_size=3),
                           st.text(alphabet="abcxyz", min_size=1, max_size=6),
                           st.sampled_from(SYMBOL_WRONG[key])))
    kv = dict(SYMBOL_KEYS[kind], **{key: value})
    return kind + ":" + ",".join(f"{k}={v}" for k, v in kv.items()), key


@settings(max_examples=200, deadline=None)
@given(bad_symbol())
def test_blank_or_mistyped_symbol_values_name_their_key(case):
    text, key = case
    with pytest.raises(ValueError, match=f"^key '{key}': "):
        S.from_config(text)
