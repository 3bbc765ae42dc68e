"""Dense complex linear algebra and the lattice of closed subspaces.

Conventions used by every module in this package:

* Basis labels are little-endian: the n-bit label x_1...x_n addresses the
  vector entry x = sum_i x_i * 2**(i-1), so qubit 1 is the least
  significant bit.
* A subspace of a d-dimensional space is stored as a d x k matrix with
  orthonormal columns; k = 0 encodes the zero subspace.  An
  orthocomplement (and so the full space, the complement of the zero
  subspace) is stored as a co-basis: the basis of the subspace it
  complements, its own basis being computed only when it is read.
* Rank decisions are relative: singular values or eigenvalues below
  TOL_EIG times the largest one count as zero, and an all-zero matrix has
  the zero subspace as its support.

Every function is pure; the one value that changes after construction is
a co-basis's basis, filled in on first read.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix

# The package's tolerances, all in one table.
TOL_EIG = 1e-8      # relative rank cut for eigen/singular values
TOL_ORTHO = 1e-9    # orthonormality defect allowed in a stored basis
TOL_MEMBER = 1e-7   # relative residual for membership tests
TOL_HERM = 1e-9     # Hermiticity defect allowed in density matrices
# Hermiticity (and, for an initial-state file, trace) defect a hand-built
# state may carry, and the most negative eigenvalue it may have.  A
# Configuration built from a dense state refuses a Hermiticity defect above
# it as malformed (DimensionMismatch), and one above TOL_HERM as an invalid
# density matrix, both before it decomposes the state.
TOL_HERM_STATE = 1e3 * TOL_HERM
TOL_NORM = 1e-9     # normalisation defect (unit vectors, Kraus sums)
TOL_PROB = 1e-12    # branches below this probability are dropped
TOL_PROB_EXCESS = 1e-12  # rounding a branch probability may carry above 1
TOL_FP = 1e-7       # states closer than this share a graph node

BLOCK = 1 << 16     # entries per block of rows in a streamed matrix pass
# entries per chunk of stacked columns in `contains_each`: a chunk and its
# residual (64 KiB each) stay under the allocator's mmap threshold, where
# chunks of BLOCK entries raised a labeling run's peak RSS by about 1 MB
CHUNK = BLOCK // 16


def row_blocks(n_rows: int, row_len: int):
    """Slices of consecutive rows, about BLOCK entries (and at least one
    row) each, that cover range(n_rows).  Every pass that reads or builds
    a d x d matrix a block of rows at a time uses this rule, so none of
    them allocates a d x d temporary."""
    rows = max(1, BLOCK // max(1, row_len))
    for i in range(0, n_rows, rows):
        yield slice(i, i + rows)


def _gram_defect(vecs: np.ndarray) -> float:
    """The largest entry of |vecs^dagger vecs - I|: 0 for orthonormal
    columns, NaN or inf for a non-finite entry, without a warning.  1 is
    subtracted from the diagonal in place, which rounds as subtracting
    the identity matrix does."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = vecs.conj().T @ vecs
        gram.flat[::len(gram) + 1] -= 1.0
    return float(np.abs(gram).max(initial=0.0))


def _abs2(m: np.ndarray) -> np.ndarray:
    """|m_ij|^2 for each entry of a complex array."""
    return m.real ** 2 + m.imag ** 2


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    """Whether `a` is square with no entry of a - a^dagger above `tol` in
    magnitude, measured a block of rows at a time.  A non-finite entry
    makes its defect inf or NaN, which is refused."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    for rows in row_blocks(len(a), len(a)):
        diff = np.conjugate(a[:, rows].T)
        diff -= a[rows]
        if not np.abs(diff).max(initial=0.0) <= tol:
            return False
    return True


def hermitian_part(a: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Replace the square array `a` by (a + a^dagger)/(2 scale) in place
    and return it: each block of rows averages its tile left of and on
    the diagonal with the transposed columns above it, then mirrors it
    there, so no second d x d array is built."""
    div = 2.0 * scale
    for rows in row_blocks(len(a), len(a)):
        tile = np.conjugate(a[:rows.stop, rows].T)
        tile += a[rows, :rows.stop]
        tile /= div
        a[rows, :rows.stop] = tile
        np.conjugate(tile[:, :rows.start].T, out=a[:rows.start, rows])
    return a


def orth_columns(mat: np.ndarray, rtol: float = TOL_EIG) -> np.ndarray:
    """Orthonormal basis of the column space of `mat` (d x k, k = rank)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


class Subspace:
    """A closed subspace, held as an orthonormal column basis, or as a
    co-basis: the orthocomplement of a held subspace X, whose own basis is
    only computed the first time `basis` is read.  A co-basis answers
    `ambient_dim`, `dim` and membership (`contains`) from X alone, so `~X`
    and `true` cost O(d k) instead of a d x d basis.

    Equality of subspaces is mutual containment (`same_space`), never
    equality of the stored bases.
    """

    __slots__ = ("_basis", "_perp")

    def __init__(self, basis):
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2:
            raise DimensionMismatch("subspace basis must be a 2-d array")
        d, k = b.shape
        if d < 1 or k > d:
            raise DimensionMismatch(f"invalid basis shape {b.shape}")
        # `not x <= tol` also refuses a NaN
        if not _gram_defect(b) <= TOL_ORTHO:
            raise DimensionMismatch("subspace basis columns are not orthonormal")
        self._basis = _frozen(b)
        self._perp = None  # for a co-basis: the subspace it complements

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = _complement_basis(self._perp.basis)
        return self._basis

    @property
    def ambient_dim(self) -> int:
        if self._perp is not None:
            return self._perp.ambient_dim
        return self._basis.shape[0]

    @property
    def dim(self) -> int:
        if self._perp is not None:
            return self.ambient_dim - self._perp.dim
        return self._basis.shape[1]

    @classmethod
    def _held(cls, basis: np.ndarray) -> "Subspace":
        """The subspace of `basis`, a read-only array of orthonormal columns
        whose maker has checked them, held as it is: no Gram check and no
        copy."""
        out = object.__new__(cls)
        out._basis, out._perp = basis, None
        return out

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return orthocomplement(cls.zero(ambient_dim))

    @classmethod
    def span(cls, vectors) -> "Subspace":
        """Subspace spanned by the given vectors (columns need not be
        independent or normalised)."""
        cols = np.column_stack([np.asarray(v, dtype=complex).reshape(-1)
                                for v in vectors])
        return cls(orth_columns(cols))

    def same_space(self, other: "Subspace", tol: float = TOL_MEMBER) -> bool:
        return self.dim == other.dim and contains(self, other, tol) \
            and contains(other, self, tol)

    def __repr__(self):
        return f"<Subspace dim {self.dim} of C^{self.ambient_dim}>"


def support(rho: np.ndarray, rtol: float = TOL_EIG) -> Subspace:
    """Span of the eigenvectors of a Hermitian PSD matrix with eigenvalue
    above `rtol` times the largest one.  The zero matrix has zero support."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrix(f"expected a square matrix, got {rho.shape}")
    if not is_hermitian(rho):
        raise InvalidDensityMatrix("matrix is not Hermitian")
    w, v = np.linalg.eigh(rho)
    return spectral_support(v, w, rtol)


def spectral_support(vecs: np.ndarray, vals: np.ndarray,
                     rtol: float = TOL_EIG) -> Subspace:
    """Support of the Hermitian PSD matrix vecs diag(vals) vecs^dagger
    (orthonormal columns, any order): the columns whose value exceeds
    `rtol` times the largest.  A matrix with no positive value has zero
    support.

    The columns are held as they are, with no second Gram check: they
    come from `eigh`, from an SVD's left singular vectors (with the
    squared singular values as `vals`) or from a configuration's factor,
    which was checked when it was made.  When they are one block, as they are for values in
    either order, the basis is a read-only view of `vecs`, not a copy."""
    top = vals.max(initial=0.0)
    if top <= 0.0:
        return Subspace.zero(vecs.shape[0])
    idx = np.flatnonzero(vals > rtol * top)
    if idx[-1] - idx[0] + 1 == len(idx):
        cols = vecs[:, idx[0]:idx[-1] + 1]
    else:
        cols = vecs[:, idx]
    cols.setflags(write=False)  # this array only, never `vecs`
    return Subspace._held(cols)


def join(subspaces) -> Subspace:
    """Smallest subspace containing every given one (span of the union)."""
    subspaces = list(subspaces)
    if not subspaces:
        raise DimensionMismatch("join of an empty family is undefined")
    d = subspaces[0].ambient_dim
    for x in subspaces:
        if x.ambient_dim != d:
            raise DimensionMismatch(
                f"ambient dims differ: {x.ambient_dim} vs {d}")
    stacked = np.hstack([x.basis for x in subspaces])
    return Subspace(orth_columns(stacked))


def orthocomplement(x: Subspace) -> Subspace:
    """All vectors orthogonal to `x`; dim(x) + dim(x^perp) = ambient dim.
    The result is a co-basis of `x` (its basis is computed on first read),
    and the complement of a co-basis is the subspace it complements."""
    if x._perp is not None:
        return x._perp
    out = object.__new__(Subspace)
    out._basis, out._perp = None, x
    return out


def _complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of an orthonormal basis."""
    d, k = basis.shape
    if k == 0:
        return _frozen(np.eye(d))
    # null space of basis^dagger: right singular vectors past the rank
    _, s, vh = np.linalg.svd(basis.conj().T, full_matrices=True)
    rank = int(np.sum(s > TOL_EIG * s[0])) if s.size else 0
    return Subspace(vh[rank:].conj().T).basis


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Lattice meet, computed as the complement of the join of complements.
    A meet of co-bases is thus the co-basis of the join of the subspaces
    they complement, and computes no complement basis."""
    if x.ambient_dim != y.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {x.ambient_dim} vs {y.ambient_dim}")
    return orthocomplement(join([orthocomplement(x), orthocomplement(y)]))


def contains(x: Subspace, v, tol: float = TOL_MEMBER) -> bool:
    """Membership test: the residual (I - P_x) v is at most `tol`*|v| for a
    vector, and columnwise for a subspace argument (see `_contained`)."""
    if isinstance(v, Subspace):
        if v.ambient_dim != x.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims differ: {v.ambient_dim} vs {x.ambient_dim}")
        cols = v.basis
    else:
        cols = np.asarray(v, dtype=complex).reshape(-1, 1)
        if cols.shape[0] != x.ambient_dim:
            raise DimensionMismatch(
                f"vector dim {cols.shape[0]} vs ambient {x.ambient_dim}")
    return bool(_contained(x, cols, tol).all())


def contains_each(x: Subspace, subspaces,
                  tol: float = TOL_MEMBER) -> np.ndarray:
    """`contains(x, s, tol)` for every subspace s of the list, as a boolean
    array.  Their bases are stacked column-wise into chunks of at most
    CHUNK entries (one column if d exceeds that), which may split one
    basis, and each chunk is tested at once; a subspace is contained when
    none of its columns fails, so the zero subspace is.  No stack of every
    basis is built, and the whole space (`true`, the co-basis of the zero
    subspace) contains every subspace without a column being tested."""
    d = x.ambient_dim
    subspaces = list(subspaces)
    for s in subspaces:
        if s.ambient_dim != d:
            raise DimensionMismatch(
                f"ambient dims differ: {s.ambient_dim} vs {d}")
    if x._perp is not None and x._perp.dim == 0:
        return np.ones(len(subspaces), dtype=bool)
    bases = [s.basis for s in subspaces]
    # owner[c] is the subspace that stacked column c comes from
    owner = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
    chunk = np.empty((d, min(max(1, CHUNK // d), len(owner))), dtype=complex)
    failed = [np.zeros(0, dtype=int)]
    done = fill = 0  # columns tested, and columns waiting in the chunk
    for b in bases:
        j = 0
        while j < b.shape[1]:
            take = min(chunk.shape[1] - fill, b.shape[1] - j)
            chunk[:, fill:fill + take] = b[:, j:j + take]
            fill, j = fill + take, j + take
            if fill == chunk.shape[1] or done + fill == len(owner):
                ok = _contained(x, chunk[:, :fill], tol)
                failed.append(done + np.flatnonzero(~ok))
                done, fill = done + fill, 0
    bad = np.bincount(owner[np.concatenate(failed)], minlength=len(bases))
    return bad == 0


def _contained(x: Subspace, cols: np.ndarray, tol: float) -> np.ndarray:
    """For each column v of the d x m array `cols`: whether the residual
    (I - P_x) v is at most `tol`*|v| (at most `tol` for v = 0).  For a
    co-basis x of X the residual is X X^dagger v, measured as
    |X^dagger v|.  Every membership decision is made here, with one
    temporary the size of `cols`."""
    if x._perp is not None:
        resid = x._perp.basis.conj().T @ cols
    else:
        # P_x v - v, which has the norm of (I - P_x) v
        resid = x.basis @ (x.basis.conj().T @ cols)
        resid -= cols
    scale = _column_norms(cols)
    scale[scale == 0.0] = 1.0
    return _column_norms(resid) <= tol * scale


def _column_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a complex array, summed in place
    from its real and imaginary parts, so no array of its size is built."""
    return np.sqrt(np.einsum("ij,ij->j", m.real, m.real)
                   + np.einsum("ij,ij->j", m.imag, m.imag))
