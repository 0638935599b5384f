"""Homogeneous dispersion symbols and their config specs.

A symbol is a real function Phi on R^n \\ {0}, positively homogeneous of
degree m > 1 with nonvanishing gradient away from the origin. Two families
are shipped: radial power laws |xi|^m (any real m > 1) and homogeneous
polynomials with user-supplied coefficients (integer degree). Both are
defined at the origin by continuity, Phi(0) = 0. Values and gradients are
closed-form; the operator norms' speed bound on the sector is `gradient` at
its inner radius (`opnorm.mode_grid`, `opnorm._transit_times`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SymbolSpec:
    """kind 'power': Phi = scale * |xi|^m.

    kind 'poly': Phi = sum of coeff * prod_i xi_i^e_i, every term of the
    same total degree m (checked), given as terms=((coeff, (e_1..e_n)), ...).
    """

    kind: str
    m: float
    n: int
    scale: float = 1.0
    terms: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not self.m > 1:
            raise ValueError(f"degree m={self.m} must exceed 1")
        if self.kind == "power":
            if self.scale == 0:
                raise ValueError("power symbol needs a nonzero scale")
            return
        if self.kind == "poly":
            merged = {}
            for coeff, exps in self.terms:
                merged[exps] = merged.get(exps, 0.0) + coeff
            if not any(merged.values()):
                raise ValueError("poly symbol needs terms that do not cancel to zero")
            for coeff, exps in self.terms:
                if len(exps) != self.n:
                    raise ValueError("term exponent tuple length != n")
                if any(e < 0 or e != int(e) for e in exps):
                    raise ValueError("poly exponents must be nonnegative integers")
                if sum(exps) != self.m:
                    raise ValueError(
                        f"term {exps} has degree {sum(exps)}, expected {self.m}"
                    )
            return
        raise ValueError(f"unknown symbol kind {self.kind!r}")


def schrodinger(n: int = 1) -> SymbolSpec:
    return SymbolSpec(kind="power", m=2.0, n=n)


def value(sym: SymbolSpec, mesh) -> np.ndarray:
    """Vectorized Phi over a broadcastable list of coordinate arrays."""
    if sym.kind == "power":
        r2 = sum(np.asarray(m) ** 2 for m in mesh)
        return sym.scale * np.power(r2, sym.m / 2.0)
    out = 0.0
    for coeff, exps in sym.terms:
        term = coeff * np.ones_like(np.asarray(mesh[0], dtype=float))
        for mi, e in zip(mesh, exps):
            if e:
                term = term * np.asarray(mi, dtype=float) ** e
        out = out + term
    return out


def gradient(sym: SymbolSpec, mesh) -> list:
    """Vectorized grad Phi; zero at the origin by continuity (m > 1)."""
    if sym.kind == "power":
        r2 = sum(np.asarray(m) ** 2 for m in mesh)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.where(r2 > 0, sym.scale * sym.m * np.power(r2, sym.m / 2.0 - 1.0), 0.0)
        return [fac * np.asarray(m) for m in mesh]
    grads = []
    for axis in range(sym.n):
        acc = np.zeros(np.broadcast(*[np.asarray(m) for m in mesh]).shape)
        for coeff, exps in sym.terms:
            e_ax = exps[axis]
            if e_ax == 0:
                continue
            term = coeff * e_ax * np.ones_like(acc)
            for i, (mi, e) in enumerate(zip(mesh, exps)):
                p = e - 1 if i == axis else e
                if p:
                    term = term * np.asarray(mi, dtype=float) ** p
            acc = acc + term
        grads.append(acc)
    return grads


def phase(sym: SymbolSpec, xi) -> tuple:
    """Phi and grad Phi at a single point, as (float, ndarray)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (sym.n,):
        raise ValueError(f"point has shape {xi.shape}, expected ({sym.n},)")
    mesh = [xi[i] for i in range(sym.n)]
    val = float(value(sym, mesh))
    grad = np.array([float(g) for g in gradient(sym, mesh)])
    return val, grad


def split_spec(text: str, keys: dict) -> tuple:
    """Split 'kind:k=v,k=v,...' into (kind, {k: v}); values stay strings.

    keys maps each kind to the keys it reads. An unknown kind, a repeated
    key and a key its kind does not read raise ValueError.
    """
    kind, _, rest = text.partition(":")
    if kind not in keys:
        raise ValueError(f"unknown kind {kind!r} in {text!r}: expected {' or '.join(keys)}")
    kv = {}
    for part in filter(None, rest.split(",")):
        k, _, v = part.partition("=")
        k = k.strip()
        if k not in keys[kind]:
            raise ValueError(f"key {k!r}: {kind} reads only {', '.join(keys[kind])}")
        if k in kv:
            raise ValueError(f"duplicate key {k!r} in {text!r}")
        kv[k] = v.strip()
    return kind, kv


def spec_number(text: str, key: str, kind: type = float):
    """A spec value as a finite float or an int; ValueError naming key."""
    try:
        val = kind(text)
        ok = kind is int or math.isfinite(val)
    except ValueError:
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"key {key!r}: expected {what}, got {text!r}")
    return val


def from_config(text: str) -> SymbolSpec:
    """Parse a symbol key like 'power:m=2,n=1' or 'poly:n=2,terms=1*1.2'.

    Poly terms are semicolon-separated 'coeff*e1.e2...eN' entries; their
    exponents give the degree. A blank or non-numeric value, or a key the
    kind does not read, raises ValueError naming the key.
    """
    kind, kv = split_spec(text, {"power": ("m", "n", "scale"), "poly": ("n", "terms")})
    n = spec_number(kv.get("n", "1"), "n", int)
    if kind == "power":
        return SymbolSpec(kind="power", m=spec_number(kv.get("m", "2"), "m"), n=n,
                          scale=spec_number(kv.get("scale", "1"), "scale"))
    if "terms" not in kv:
        raise ValueError("key 'terms': required by the poly symbol, as coeff*e1.e2...;...")
    terms = []
    for chunk in kv["terms"].split(";"):
        coeff_s, _, exps_s = chunk.partition("*")
        exps = tuple(spec_number(e, "terms", int) for e in exps_s.split("."))
        terms.append((spec_number(coeff_s, "terms"), exps))
    m = float(sum(terms[0][1]))
    return SymbolSpec(kind="poly", m=m, n=n, terms=tuple(terms))
