"""Truncated bosonic Fock space and the coherent displacement kernel.

The space is built over a finite mode set with a *total*-occupation cap:
basis vectors are multi-indices n with sum_k n_k <= cap, so the
dimension is C(cap + m, m) for m modes.  Truncating by total occupation
(rather than per mode) matches the structure of the operator-norm
bounds checked below, which control e^{a(f)*} against e^{-t N_ph}.
The basis is enumerated directly: each multiset of cap symbols drawn
from m + 1 (symbol m marks an unused quantum) is one multi-index, so
the work is proportional to the dimension, not to (cap + 1)^m.
Operators are plain arrays over that basis: `annihilator` gives the
sparse a_k, the other builders dense complex matrices.  `annihilator`
finds the row of every lowered state in one search (`rows_of`) over the
occupation rows, sorted once per space as byte keys: a key is the whole
row, so none overflows at any mode count.

Smearing is antilinear in the annihilator,

    a(f) = sum_k conj(f_k) a_k,      a(f)* = sum_k f_k a_k*,

the convention of the standard second-quantization references.  Both
a(f) and a(f)* are nilpotent on the truncated space (they move total
occupation by one), so the displacement exponentials are exact
terminating polynomials; no scaling-and-squaring is involved.  For
e^{a(f)} the truncation is also *consistent*: annihilators map the
capped space into itself, so the truncated matrix is the compression of
the full operator.  For e^{a(f)*} amplitude escapes through the top
shell; displacement() refuses ||f||^2 > cap/4, where that loss stops
being negligible.

The kernel assembled here is

    Xi = e^{s_eff} e^{a(theta)*} e^{-beta N_ph} e^{a(theta_tilde)},

whose vacuum expectation is e^{s_eff} for any displacement vectors, and
whose coherent matrix elements have the closed form

    <e^{a(u)*} O | Xi e^{a(v)*} O> =
        e^{s_eff} exp( <u, theta> + <theta_tilde, v> + e^{-beta} <u, v> )

(inner products antilinear in the first slot); tests hold the matrices
against that and against a literal occupation-basis sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
import scipy.sparse


@dataclass(frozen=True)
class FockSpace:
    """Finite mode set with a total-occupation cap."""

    modes: tuple
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(float(k) for k in self.modes))
        if len(self.modes) == 0:
            raise ValueError("need at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must be distinct")
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")

    @cached_property
    def occupations(self) -> tuple:
        """All multi-indices with total occupation <= cap, vacuum first."""
        m = len(self.modes)
        quanta = np.array(list(itertools.combinations_with_replacement(
            range(m + 1), self.cap)), dtype=int)
        counts = (quanta[:, :, None] == np.arange(m)).sum(axis=1)
        occs = sorted(map(tuple, counts.tolist()),
                      key=lambda occ: (sum(occ), occ))
        return tuple(occs)

    @cached_property
    def _rows_by_key(self) -> tuple:
        """(occupation array, its rows as sorted keys, the row of each
        sorted key): one sort per space serves every `rows_of` search."""
        occ = np.array(self.occupations)
        keys = self._keys(occ)
        order = np.argsort(keys)
        return occ, keys[order], order

    def _keys(self, occ: np.ndarray) -> np.ndarray:
        """Each row of occ as one opaque byte string, in the narrowest
        integer that holds cap, so rows sort and search as scalars at any
        mode count."""
        occ = np.ascontiguousarray(occ, dtype=np.min_scalar_type(self.cap))
        return occ.view(np.dtype((np.void, occ.shape[1] * occ.itemsize))).ravel()

    def rows_of(self, occ: np.ndarray) -> np.ndarray:
        """Row of each occupation row of occ; every row must be in the space."""
        _, sorted_keys, order = self._rows_by_key
        return order[np.searchsorted(sorted_keys, self._keys(occ))]

    @property
    def dim(self) -> int:
        return comb(self.cap + len(self.modes), len(self.modes))

    @cached_property
    def total_occupation(self) -> np.ndarray:
        return np.array([sum(occ) for occ in self.occupations], dtype=float)


def annihilator(space: FockSpace, mode_pos: int) -> scipy.sparse.csr_matrix:
    """Sparse real matrix of a_k for the mode at mode_pos: sqrt(n_k) entries."""
    occ = space._rows_by_key[0]
    cols = np.flatnonzero(occ[:, mode_pos])
    lowered = occ[cols]
    lowered[:, mode_pos] -= 1
    return scipy.sparse.csr_matrix(
        (np.sqrt(occ[cols, mode_pos]), (space.rows_of(lowered), cols)),
        shape=(space.dim, space.dim))


def smeared_annihilator(space: FockSpace, f) -> np.ndarray:
    """Matrix of a(f) = sum_k conj(f_k) a_k."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (len(space.modes),):
        raise ValueError(f"f must have one entry per mode, got shape {f.shape}")
    a = np.zeros((space.dim, space.dim), dtype=complex)
    for pos in range(len(space.modes)):
        if f[pos] != 0:
            a += np.conj(f[pos]) * annihilator(space, pos).toarray()
    return a


def displacement(space: FockSpace, f, which: str) -> np.ndarray:
    """e^{a(f)} or e^{a(f)*} as the exact terminating exponential series.

    Raises when ||f||^2 > cap/4: beyond that the creator series pushes
    weight through the occupation cap and the truncated matrix no longer
    represents the operator (reported rather than silently truncated).
    """
    f = np.asarray(f, dtype=complex)
    norm_sq = float(np.sum(np.abs(f) ** 2))
    if norm_sq > space.cap / 4:
        raise ValueError(
            f"||f||^2 = {norm_sq:.4g} exceeds cap/4 = {space.cap / 4}; "
            "the displacement series diverges at this truncation")
    gen = smeared_annihilator(space, f)
    if which == "a*":
        gen = gen.conj().T
    elif which != "a":
        raise ValueError(f"which must be 'a' or 'a*', got {which!r}")
    out = np.eye(space.dim, dtype=complex)
    term = np.eye(space.dim, dtype=complex)
    for j in range(1, space.cap + 1):
        term = term @ gen / j
        out += term
    return out


def vacuum(space: FockSpace) -> np.ndarray:
    v = np.zeros(space.dim, dtype=complex)
    v[0] = 1.0  # the enumeration puts the vacuum first
    return v


def xi_kernel(space: FockSpace, theta, theta_tilde, beta: float,
              s_eff: float) -> np.ndarray:
    """e^{s_eff} e^{a(theta)*} e^{-beta N_ph} e^{a(theta_tilde)}."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    left = displacement(space, theta, "a*")
    right = displacement(space, theta_tilde, "a")
    decay = np.exp(-beta * space.total_occupation)
    return np.exp(s_eff) * (left * decay[None, :]) @ right


def norm_bound_check(space: FockSpace, f, t: float) -> dict:
    """Spectral norm of e^{a(f)*} e^{-(t/2) N_ph} against its bound.

    Bound: sqrt(2) e^{8 ||f||^2} for t >= 1, else sqrt(2) e^{(8/s)||f||^2}
    with the interior choice s = t/2 (any s < t is valid; smaller s only
    loosens the bound).
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    f = np.asarray(f, dtype=complex)
    norm_sq = float(np.sum(np.abs(f) ** 2))
    op = displacement(space, f, "a*") * np.exp(
        -(t / 2) * space.total_occupation)[None, :]
    norm = float(np.linalg.norm(op, 2))
    if t >= 1:
        bound = np.sqrt(2) * np.exp(8 * norm_sq)
        s_used = None
    else:
        s_used = t / 2
        bound = np.sqrt(2) * np.exp((8 / s_used) * norm_sq)
    return {"norm": norm, "bound": float(bound), "margin": float(bound - norm),
            "t": t, "s_used": s_used}


def difference_bound_check(space: FockSpace, f, g, t: float) -> dict:
    """||(e^{a(f)*} - e^{a(g)*}) e^{-(t/2) N_ph}|| against its bound.

    Bound: 2 sqrt(2) ||f-g|| e^{c (2||f|| + 2||g|| + 1)^2} with c = 2 for
    t >= 1 and c = 2/s, s = t/2, below.
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    decay = np.exp(-(t / 2) * space.total_occupation)[None, :]
    diff = (displacement(space, f, "a*")
            - displacement(space, g, "a*")) * decay
    norm = float(np.linalg.norm(diff, 2))
    nf = np.sqrt(float(np.sum(np.abs(f) ** 2)))
    ng = np.sqrt(float(np.sum(np.abs(g) ** 2)))
    dfg = np.sqrt(float(np.sum(np.abs(f - g) ** 2)))
    c = 2.0 if t >= 1 else 2.0 / (t / 2)
    bound = 2 * np.sqrt(2) * dfg * np.exp(c * (2 * nf + 2 * ng + 1) ** 2)
    return {"norm": norm, "bound": float(bound), "margin": float(bound - norm),
            "t": t}
