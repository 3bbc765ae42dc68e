"""Reachability analysis of quantum Markov chains.

Three interchangeable routes compute the subspace reachable from a state
under iterated channel application:

* the closed form: support of the sum S of the first d channel powers,
* the vectorized route: the left Schmidt vectors of vec(S), which is
  sum_{i<d} M^i vec(rho) for the matrix representation M; they are S's
  left singular vectors, so M is never formed,
* a fixed-point iteration joining in frontier images: the image of only
  the directions the previous round added, until a round adds none.

They must agree as subspaces; the test suite cross-checks all three.

`image` needs no d x d matrix: the image of a subspace with basis B is
read off the left singular vectors of the Kraus stack [E_1 B, ..., E_K B]
(`channel.kraus_images`), cut where the squared singular value falls to
`rtol` of the largest.  The fixpoint route takes that cut on each
frontier's image, so relative to the frontier image's largest weight
rather than the whole image's.  The closed form's sum steps with
`channel.apply`, which gathers and scales a Kraus set with one
nonzero entry per row instead of multiplying matrices.

The closed form and the vectorized route read the same sum, and each
chain keeps the last one it made (`_power_sum`), so asking both routes
about one chain and state makes the d - 1 channel applications once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from . import linalg as la
from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class QuantumMarkovChain:
    """A state space of dimension d evolving under one trace-preserving
    channel per step."""

    dim: int
    channel: ch.SuperOperator
    # `_power_sum`'s computed table: the bytes of the last state and the
    # read-only sum made from it
    _memo: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.channel.dim != self.dim:
            raise DimensionMismatch(
                f"channel dim {self.channel.dim} vs chain dim {self.dim}")
        if self.channel.trace_class is not ch.TraceClass.PRESERVING:
            raise DimensionMismatch(
                "a Markov chain channel must be trace-preserving")


def image(e: ch.SuperOperator, x: la.Subspace,
          rtol: float = la.TOL_EIG) -> la.Subspace:
    """Image of a subspace under a channel: the join over its pure states
    of the supports of their outputs.  With B the basis of `x`, the
    channel maps the projector B B^dagger to S S^dagger for the stack
    S = [E_1 B, ..., E_K B], so the image is the span of S's left
    singular vectors whose squared singular value exceeds `rtol` times
    the largest: the support `la.support` would find, with no d x d
    matrix."""
    if x.ambient_dim != e.dim:
        raise DimensionMismatch(
            f"subspace ambient {x.ambient_dim} vs channel dim {e.dim}")
    if x.dim == 0:
        return x
    u, s, _ = np.linalg.svd(ch.kraus_images(e, x.basis),
                            full_matrices=False)
    return la.spectral_support(u, s * s, rtol)


def _check_state(c: QuantumMarkovChain, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (c.dim, c.dim):
        raise DimensionMismatch(f"state shape {rho.shape} vs dim {c.dim}")
    if float(np.trace(rho).real) <= 0.0:
        raise DimensionMismatch("state must have positive trace")
    return rho


def _power_sum(c: QuantumMarkovChain, rho: np.ndarray) -> np.ndarray:
    """sum_{i<d} E^i(rho) scaled to unit trace, which leaves its support
    alone.  The chain's channel preserves trace, so every term has unit
    trace and the sum is divided once, after the loop; the division stays
    because `la.support` checks Hermiticity to an absolute tolerance.

    The closed form and the vectorized route both read this sum, so the
    chain keeps the last one, read-only, with a copy of the bytes of the
    state it came from: one d x d copy of the state plus the sum, held for
    the chain's lifetime.  A state whose bytes equal the held copy gets
    the held sum back; the bytes are compared, not the values, so -0.0
    against 0.0, or a NaN payload, is a different state.  Any other state,
    including the caller's array edited in place since, is summed again
    and replaces the entry."""
    rho = _check_state(c, rho)
    key = rho.tobytes()
    if c._memo is not None and c._memo[0] == key:
        return c._memo[1]
    acc = rho / float(np.trace(rho).real)
    cur = acc
    for _ in range(c.dim - 1):
        cur = ch.apply(c.channel, cur)
        acc += cur
    acc /= float(np.trace(acc).real)
    acc.setflags(write=False)
    object.__setattr__(c, "_memo", (key, acc))
    return acc


def reachable_subspace(c: QuantumMarkovChain, rho: np.ndarray,
                       rtol: float = la.TOL_EIG) -> la.Subspace:
    """Closed form: the support of sum_{i<d} E^i(rho)."""
    return la.support(_power_sum(c, rho), rtol)


def reachable_subspace_vectorized(c: QuantumMarkovChain, rho: np.ndarray,
                                  rtol: float = la.TOL_EIG) -> la.Subspace:
    """Vectorized route: the left Schmidt vectors of
    Phi = sum_{i<d} M^i vec(rho), cut at `rtol` times the largest
    coefficient.  M vec(X) = vec(E(X)) for M = sum_k E_k (x) conj(E_k), so
    Phi is vec(S) for the closed form's sum S, whose left singular vectors
    they are."""
    return la.Subspace(la.orth_columns(_power_sum(c, rho), rtol))


def reachable_fixpoint_oracle(c: QuantumMarkovChain, rho: np.ndarray,
                              rtol: float = la.TOL_EIG) -> la.Subspace:
    """Fixed-point route: start from supp(rho) and join in images until a
    round adds nothing (at most d rounds).  Each round takes the image of
    only the directions the previous one added, its frontier: with X_i
    the held space and N_i the directions added to it,
    image(X_i) = image(X_{i-1}) + image(N_i) and image(X_{i-1}) lies in
    X_i, so X_i + image(N_i) is the join X_i + image(X_i).  The frontier's
    image is projected off the held basis twice (classical Gram-Schmidt
    with one reorthogonalization), and a residual direction joins it when
    its singular value exceeds `la.TOL_EIG`, the rank cut `la.join`
    makes.

    The one difference from joining whole images is that the `rtol` cut
    of `image` is taken relative to the frontier image's largest weight,
    not the whole image's."""
    rho = _check_state(c, rho)
    new = la.support(rho, rtol)
    held = new.basis
    while new.dim and held.shape[1] < c.dim:
        img = image(c.channel, new, rtol).basis
        resid = img - held @ (held.conj().T @ img)
        resid -= held @ (held.conj().T @ resid)
        u, s, _ = np.linalg.svd(resid, full_matrices=False)
        cols = u[:, s > la.TOL_EIG]
        cols.setflags(write=False)
        # singular vectors, orthonormal; the whole basis is checked below
        new = la.Subspace._held(cols)
        held = np.hstack([held, cols])
    return la.Subspace(held)
