"""The design kernel and scoring of rate-splitting transmission under imperfect
CSIT: MMSE bundles, weights, the design objective and the achieved rates.

Conventions: optimization objectives are in nats, reported rates in bits.
Hermitian products are explicitly symmetrized when they are formed (Z below,
which only a Cholesky reads, is the exception), and every real-part extraction
asserts that the imaginary residue is negligible.

Per-user quantities are stacked on a leading user axis: the channel estimates
and the private precoders are (K, M, N) arrays, the MSE and weight matrices
(K, N, N) arrays, so a factorization or solve is one batched call over users.
The matrix helpers accept a single matrix or a stack.

Every MSE quantity of a bundle comes from one factorization. For a stream
with covariance F and signal term S, the augmented matrix Z = [[F, S], [S^H, I]]
has the Cholesky factor L = [[L11, 0], [L21, L22]] with L11 L11^H = F,
L21 = S^H L11^-H and L22 L22^H = I - S^H F^-1 S = M, the MMSE error matrix.
With Lam = L^-1, whose diagonal blocks are L11^-1 and L22^-1, the MMSE filter
is D = S^H F^-1 = L21 Lam11, log det M = 2 sum log diag L22, and
M^-1 = Lam22^H Lam22. Z is positive definite exactly when F and M are, so a
non-definite system still raises LinAlgError. A bundle stores D, the log-dets
and M^-1, which the solver reads, and L22, from which M is derived when read.

A bundle factors only the streams its reader uses and holds None for every
field of a stream it skipped: the common fields at all-private precoders (Pc
exactly zero, where the common stream carries nothing), the private fields of
a common-only bundle (all_bundles(..., private=False), which feeds the common
block alone). One read-only cache per (N, K) holds the constant rows of the
kernel's stacked system, shared by every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

LN2 = np.log(2.0)


def side_by_side(X):
    """The side-by-side M x NK matrix [X_1, ..., X_K] of a (K, M, N) stack."""
    K, M, N = X.shape
    return X.transpose(1, 0, 2).reshape(M, K * N)


@dataclass(frozen=True, eq=False)
class PrecoderSet:
    """Common precoder Pc (M x N), private precoders Pp (K, M, N), power budget rho.

    Pp may be given as any sequence of M x N blocks; it is stored as one
    array, so iterating over it still yields the per-user blocks. Compares by identity.
    """

    Pc: np.ndarray
    Pp: np.ndarray
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "Pp", np.asarray(self.Pp))

    def full(self):
        """Concatenation [Pc, P_1, ..., P_K], shape M x N(K+1)."""
        return np.concatenate([self.Pc, self.private()], axis=1)

    def private(self):
        """Concatenation [P_1, ..., P_K], shape M x NK."""
        return side_by_side(self.Pp)

    def power(self) -> float:
        return float(np.vdot(self.Pc, self.Pc).real + np.vdot(self.Pp, self.Pp).real)


class _PerUser:
    """Fields share a leading user axis; indexing (and so iterating) gives one user's bundle."""

    def __getitem__(self, k):
        values = (getattr(self, f.name) for f in fields(self))
        return type(self)(*(None if v is None else v[k] for v in values))


@dataclass(frozen=True, eq=False)
class MseBundle(_PerUser):
    """MMSE filters, error-matrix log-dets and inverses; all_bundles stacks them
    over users. All come from one Cholesky factor per stream (module docstring).

    Stored: what the solver reads and the factor blocks L22c, L22p. Derived
    when read: the common- and private-stream MMSE error matrices Mc_mmse and
    Mp_mmse. Every field of a stream the bundle did not factor is None, the
    common ones in an all-private bundle and the private ones in a
    common-only bundle, and indexing passes them through as None.
    """

    Dc: np.ndarray
    Dp: np.ndarray
    logdet_c: np.ndarray
    logdet_p: np.ndarray
    Mc_inv: np.ndarray
    Mp_inv: np.ndarray
    L22c: np.ndarray
    L22p: np.ndarray

    Mc_mmse = property(lambda self: None if self.L22c is None else herm(self.L22c @ _h(self.L22c)))
    Mp_mmse = property(lambda self: None if self.L22p is None else herm(self.L22p @ _h(self.L22p)))


@dataclass(frozen=True, eq=False)
class WeightBundle(_PerUser):
    """Weight matrices and softmax weights; weights() stacks them over users.
    With no common stream, Wc and mu are None."""

    Wc: np.ndarray
    Wp: np.ndarray
    mu: np.ndarray


def _h(A):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return A.conj().swapaxes(-1, -2)


def herm(A):
    """Explicit Hermitian symmetrization (A + A^H)/2."""
    return 0.5 * (A + _h(A))


def checked_real(z):
    """Real part of a scalar or array, rejecting non-negligible imaginary residue."""
    z = np.asarray(z)
    residue = abs(z.imag)
    if np.count_nonzero(residue > 1e-10 * (1.0 + abs(z.real))):
        raise ValueError(f"imaginary residue {residue.max():.3e} too large for real extraction")
    return float(z.real) if z.ndim == 0 else z.real


def frobenius(x) -> float:
    """np.linalg.norm(x) of a complex array, bit for bit, without numpy.linalg's dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _not_positive_definite(err, flag):
    raise LinAlgError("Matrix is not positive definite")


@np.errstate(call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore")
def _cholesky(A, inverse=True):
    """Lower Cholesky factor L of complex Hermitian positive definite matrices
    (one or a stack) and, if asked, L^-1; (L, None) otherwise.

    Only the lower triangle of A is read. L and L^-1 come from the gufuncs
    that numpy.linalg's cholesky and inv call, with the same signature, so
    their bits are the same; the wrapper's per-call conversions and checks are
    skipped. Both run under one error state with numpy.linalg's settings: a
    factorization that fails flags its output invalid, which raises
    LinAlgError, and no RuntimeWarning escapes. As through numpy.linalg, a NaN
    in A is not flagged by OpenBLAS's Cholesky; it comes out as NaN in L.
    """
    L = _umath_linalg.cholesky_lo(A, signature="D->D")
    return L, (_umath_linalg.inv(L, signature="D->D") if inverse else None)


def cholesky_logdet(A):
    """log det of Hermitian positive definite matrices via their Cholesky factors.

    A must be Hermitian by construction: only its lower triangle is read.
    """
    L, _ = _cholesky(A, inverse=False)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(L, axis1=-2, axis2=-1))), axis=-1)


def cholesky_solve(A, B):
    """Solve A X = B for Hermitian positive definite A through its Cholesky factor.

    A must be Hermitian by construction: only its lower triangle is read. The
    factor L is inverted once and X = L^-H (L^-1 B).
    """
    _, Li = _cholesky(A)
    return _h(Li) @ (Li @ B)


def logsumexp(x) -> float:
    x = np.asarray(x, dtype=float)
    m = max(x.ravel().tolist())  # x.max() without a ufunc reduction; a NaN gives NaN either way
    return m + float(np.log(np.exp(x - m).sum()))


def instantaneous_rates(H, P: PrecoderSet, sigma_n2):
    """Per-user common/private rates and the sum rate on the true channels.

    The common stream sees every private stream as interference; after its
    removal each private stream sees only the other users' private streams.
    Returns (Rc, Rp, sum_rate) in bits/s/Hz with sum_rate = min_k Rc + sum Rp.
    """
    if sigma_n2 <= 0:
        raise ValueError("sigma_n2 must be positive")
    Hh = _h(np.asarray(H))                                   # (K, N, M)
    K, N, _ = Hh.shape
    if len(P.Pp) != K:
        raise ValueError("precoder count does not match user count")
    priv = Hh[:, None] @ P.Pp[None]                          # (K, K, N, N): user k sees stream j
    cov = herm(priv @ _h(priv))
    others = (cov * ~np.eye(K, dtype=bool)[:, :, None, None]).sum(axis=1)
    Q_other = others + sigma_n2 * np.eye(N)
    Q_all = Q_other + cov[np.arange(K), np.arange(K)]
    Ac = Hh @ P.Pc
    ld = cholesky_logdet(np.concatenate([Q_all + herm(Ac @ _h(Ac)), Q_all, Q_other]))
    ld_c, ld_all, ld_other = ld.reshape(3, K)
    Rc = np.maximum((ld_c - ld_all) / LN2, 0.0)
    Rp = np.maximum((ld_all - ld_other) / LN2, 0.0)
    return Rc.tolist(), Rp.tolist(), float(np.min(Rc) + np.sum(Rp))


@lru_cache(maxsize=64)
def _constants(N, K):
    """all_bundles' stacked Y for N x N streams and K users with only its
    constant rows E^H filled in, shared and read-only."""
    pick = np.eye(N * (K + 1)).reshape(K + 1, N, N * (K + 1))
    Y = np.zeros((2 * K, 2 * N, N * (K + 1)), dtype=complex)
    Y[:K, N:] = pick[0]
    Y[K:, N:] = pick[1:]
    Y.flags.writeable = False
    return Y


def all_bundles(H_hat, sigma_e2, P: PrecoderSet, sigma_n2, private=True) -> MseBundle:
    """MMSE bundles of every user, stacked over users; user k decodes private stream k.

    F folds the full transmit power times the CSIT error variance into the
    common-stream noise floor; G is the private-only counterpart valid after
    common-stream removal.

    Only the streams a caller reads are factored, and the fields of the
    others are None. An all-private P (Pc exactly zero) factors the K private
    systems; private=False factors the K common systems.
    """
    Hh = _h(np.asarray(H_hat))                               # (K, N, M)
    K, N, _ = Hh.shape
    s2 = np.asarray(sigma_e2, dtype=float)
    if len(P.Pp) != K or s2.shape != (K,):
        raise ValueError(f"{K} channels, {len(P.Pp)} private precoders and {s2.size} error variances disagree")
    common = not private or np.count_nonzero(P.Pc) > 0
    c = K if common else 0                                   # common systems in the stack
    Pfull = P.full()
    Sfull = Hh @ Pfull                                       # (K, N, N(K+1))
    # Z = [[F, S], [S^H, I]] of the common (F, Sc) and the private (G, Sp)
    # stream of every user, stacked (2K, 2N, 2N), is the Gram matrix of
    # Y = [[R], [E^H]] plus the noise floor on F and G. R holds the columns
    # the stream receives (all of Sfull for F, its private ones for G) and E
    # picks the stream's own columns, so R E = S and E^H E = I exactly. Y
    # keeps its full width for either half alone, which keeps the bits.
    Y = _constants(N, K)[K - c:K + K * private].copy()
    floors = []  # error-variance floors of F, then of G
    if common:
        Y[:K, :N] = Sfull
        floors.append(s2 * float(np.vdot(Pfull, Pfull).real))
    if private:
        Y[c:, :N, N:] = Sfull[:, :, N:]
        floors.append(s2 * float(np.vdot(Pfull[:, N:], Pfull[:, N:]).real))
    floor = (np.concatenate(floors) if len(floors) == 2 else floors[0]) + sigma_n2
    # not symmetrized: the Cholesky reads the lower triangle and real diagonal,
    # where numpy's product already equals its Hermitian part
    Z = Y @ _h(Y)
    np.einsum("kii->ki", Z[:, :N, :N])[...] += floor[:, None]
    L, Li = _cholesky(Z)
    L22, Li22 = L[:, N:, N:], Li[:, N:, N:]
    D = L[:, N:, :N] @ Li[:, :N, :N]
    Mi = herm(_h(Li22) @ Li22)
    ld = 2.0 * np.log(L22.diagonal(axis1=1, axis2=2).real).sum(axis=1)
    Dc, ldc, Mic, L22c = (D[:c], ld[:c], Mi[:c], L22[:c]) if common else (None,) * 4
    Dp, ldp, Mip, L22p = (D[c:], ld[c:], Mi[c:], L22[c:]) if private else (None,) * 4
    return MseBundle(Dc, Dp, logdet_c=ldc, logdet_p=ldp, Mc_inv=Mic, Mp_inv=Mip, L22c=L22c, L22p=L22p)


def f1_from_bundles(bundles: MseBundle) -> float:
    """Smoothed max of common log-det MSEs plus the private log-det sum, in nats.

    With no common stream every common log-det is 0 and the smoothed max is
    log K, the logsumexp of K zeros bit for bit.
    """
    lc, lp = bundles.logdet_c, bundles.logdet_p
    return (float(np.log(len(lp))) if lc is None else logsumexp(lc)) + float(lp.sum())


def objective_f1(H_hat, sigma_e2, P: PrecoderSet, sigma_n2) -> float:
    """Design objective in nats; lower is better."""
    return f1_from_bundles(all_bundles(H_hat, sigma_e2, P, sigma_n2))


def weights(bundles: MseBundle) -> WeightBundle:
    """Stacked weight matrices and the softmax split over common log-det MSEs.

    The weights are the MSE inverses the bundle already holds, the common ones
    scaled by the softmax weights mu; no linear algebra happens here. With no
    common stream, Wc and mu are None.
    """
    lc = bundles.logdet_c
    if lc is None:
        return WeightBundle(Wc=None, Wp=bundles.Mp_inv, mu=None)
    mu = np.exp(lc - logsumexp(lc))
    return WeightBundle(Wc=mu[:, None, None] * bundles.Mc_inv, Wp=bundles.Mp_inv, mu=mu)
