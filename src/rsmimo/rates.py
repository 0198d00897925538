"""Rate and MSE algebra for rate-splitting transmission under imperfect CSIT.

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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

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

    def __len__(self):
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, k):
        return type(self)(*(getattr(self, f.name)[k] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class MseBundle(_PerUser):
    """MMSE filters, error-matrix log-dets and inverses; all_bundles stacks them
    over users. All come from one Cholesky factor per stream (module docstring).

    Stored: what the solver reads and the factor blocks L22c, L22p. Derived
    when read: the common- and private-stream MMSE error matrices Mc_mmse and
    Mp_mmse.
    """

    Dc: np.ndarray
    Dp: np.ndarray
    logdet_c: np.ndarray
    logdet_p: np.ndarray
    Mc_inv: np.ndarray
    Mp_inv: np.ndarray
    L22c: np.ndarray
    L22p: np.ndarray

    Mc_mmse = property(lambda self: herm(self.L22c @ _h(self.L22c)))
    Mp_mmse = property(lambda self: herm(self.L22p @ _h(self.L22p)))


@dataclass(frozen=True, eq=False)
class WeightBundle(_PerUser):
    """Weight matrices and softmax weights; weights() stacks them over users."""

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
    if (residue > 1e-10 * (1.0 + abs(z.real))).any():
        raise ValueError(f"imaginary residue {residue.max():.3e} too large for real extraction")
    return float(z.real) if z.ndim == 0 else z.real


def cholesky_logdet(A):
    """log det of Hermitian positive definite matrices via their Cholesky factors.

    A must be Hermitian by construction: only its lower triangle is read.
    """
    L = np.linalg.cholesky(A)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(L, axis1=-2, axis2=-1))), axis=-1)


def cholesky_solve(A, B):
    """Solve A X = B for Hermitian positive definite A through its Cholesky factor.

    A must be Hermitian by construction: only its lower triangle is read. The
    factor L is inverted once and X = L^-H (L^-1 B).
    """
    Li = np.linalg.inv(np.linalg.cholesky(A))
    return _h(Li) @ (Li @ B)


def logsumexp(x) -> float:
    x = np.asarray(x, dtype=float)
    m = float(x.max())
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


def expectation_quadratic(variances, X):
    """E[Y^H X Y] for Y with independent zero-mean entries of given variances.

    variances holds the per-entry variance of Y (shape M x N); the result is
    the N x N diagonal matrix diag(variances^T diag(X)). A uniform variance
    collapses to sigma^2 tr(X) I.
    """
    variances = np.asarray(variances, dtype=float)
    if np.any(variances < 0):
        raise ValueError("variances must be non-negative")
    if X.shape[0] != X.shape[1] or X.shape[0] != variances.shape[0]:
        raise ValueError("shape mismatch between variances and X")
    return np.diag(variances.T @ np.diagonal(X))


@lru_cache(maxsize=64)
def _selector_rows(N, K):
    """all_bundles' Y with only its constant rows E^H filled in; read-only."""
    pick = np.eye(N * (K + 1)).reshape(K + 1, N, N * (K + 1))
    Y = np.zeros((2 * K, 2 * N, N * (K + 1)), dtype=complex)
    Y[:K, N:] = pick[0]
    Y[K:, N:] = pick[1:]
    Y.flags.writeable = False
    return Y


def all_bundles(H_hat, sigma_e2, P: PrecoderSet, sigma_n2) -> MseBundle:
    """MMSE bundles of every user, stacked over users; user k decodes private stream k.

    F folds the full transmit power times the CSIT error variance into the
    common-stream noise floor; G is the private-only counterpart valid after
    common-stream removal.
    """
    Hh = _h(np.asarray(H_hat))                               # (K, N, M)
    K, N, _ = Hh.shape
    s2 = np.asarray(sigma_e2, dtype=float)
    if len(P.Pp) != K or s2.shape != (K,):
        raise ValueError(f"{K} channels, {len(P.Pp)} private precoders and {s2.size} error variances disagree")
    Pfull = P.full()
    Sfull = Hh @ Pfull                                       # (K, N, N(K+1))
    # Z = [[F, S], [S^H, I]] of the common (F, Sc) and the private (G, Sp)
    # stream of every user, stacked (2K, 2N, 2N), is the Gram matrix of
    # Y = [[R], [E^H]] plus the noise floor on F and G. R holds the columns
    # the stream receives (all of Sfull for F, its private ones for G) and E
    # picks the stream's own columns, so R E = S and E^H E = I exactly.
    Y = _selector_rows(N, K).copy()
    Y[:K, :N] = Sfull
    Y[K:, :N, N:] = Sfull[:, :, N:]
    # not symmetrized: the Cholesky reads the lower triangle and real diagonal,
    # where numpy's product already equals its Hermitian part
    Z = Y @ _h(Y)
    tr_full = float(np.vdot(Pfull, Pfull).real)
    tr_priv = float(np.vdot(Pfull[:, N:], Pfull[:, N:]).real)
    floor = np.concatenate([s2 * tr_full, s2 * tr_priv]) + sigma_n2
    np.einsum("kii->ki", Z[:, :N, :N])[...] += floor[:, None]
    L = np.linalg.cholesky(Z)
    Li = np.linalg.inv(L)
    L22, Li22 = L[:, N:, N:], Li[:, N:, N:]
    D = L[:, N:, :N] @ Li[:, :N, :N]
    Mi = herm(_h(Li22) @ Li22)
    ld = 2.0 * np.log(L22.diagonal(axis1=1, axis2=2).real).sum(axis=1)
    return MseBundle(D[:K], D[K:], logdet_c=ld[:K], logdet_p=ld[K:], Mc_inv=Mi[:K], Mp_inv=Mi[K:],
                     L22c=L22[:K], L22p=L22[K:])


def mse_bundle(H_hat_k, sigma_e2_k, P: PrecoderSet, sigma_n2, k) -> MseBundle:
    """MMSE filters and error matrices for user k at the given precoders."""
    K = len(P.Pp)
    return all_bundles(np.broadcast_to(H_hat_k, (K, *np.shape(H_hat_k))), [sigma_e2_k] * K, P, sigma_n2)[k]


def f1_from_bundles(bundles: MseBundle) -> float:
    """Smoothed max of common log-det MSEs plus the private log-det sum, in nats."""
    return logsumexp(bundles.logdet_c) + float(np.sum(bundles.logdet_p))


def objective_f1(H_hat, sigma_e2, P: PrecoderSet, sigma_n2) -> float:
    """Design objective in nats; lower is better."""
    return f1_from_bundles(all_bundles(H_hat, sigma_e2, P, sigma_n2))


def weights(bundles: MseBundle) -> WeightBundle:
    """Stacked weight matrices and the softmax split over common log-det MSEs.

    The weights are the MSE inverses the bundle already holds, the common ones
    scaled by the softmax weights mu; no linear algebra happens here.
    """
    lc = bundles.logdet_c
    mu = np.exp(lc - logsumexp(lc))
    return WeightBundle(Wc=mu[:, None, None] * bundles.Mc_inv, Wp=bundles.Mp_inv, mu=mu)


def mse_at_filters(H_hat_k, sigma_e2_k, P: PrecoderSet, sigma_n2, k, Dc, Dp):
    """Conditional-expected MSE matrices for user k at arbitrary receive filters.

    The CSIT-error expectation is resolved through expectation_quadratic, so
    the quadratic filter terms reuse exactly the F/G noise-floor structure.
    """
    M, N = H_hat_k.shape
    eye = np.eye(N)
    var = np.full((M, N), float(sigma_e2_k))
    Pfull = P.full()
    Ppriv = P.private()
    Tf = Pfull @ Pfull.conj().T
    Tp = Ppriv @ Ppriv.conj().T
    F = herm(H_hat_k.conj().T @ Tf @ H_hat_k) + expectation_quadratic(var, Tf) + sigma_n2 * eye
    G = herm(H_hat_k.conj().T @ Tp @ H_hat_k) + expectation_quadratic(var, Tp) + sigma_n2 * eye
    Sc = H_hat_k.conj().T @ P.Pc
    Sp = H_hat_k.conj().T @ P.Pp[k]
    Mc = herm(eye - Dc @ Sc - Sc.conj().T @ Dc.conj().T + Dc @ F @ Dc.conj().T)
    Mp = herm(eye - Dp @ Sp - Sp.conj().T @ Dp.conj().T + Dp @ G @ Dp.conj().T)
    return Mc, Mp


def objective_f2(Mc_list, Mp_list, weight_bundles) -> float:
    """Weighted MSE sum over users with the weights treated as constants."""
    if not (len(Mc_list) == len(Mp_list) == len(weight_bundles)):
        raise ValueError("per-user list lengths disagree")
    total = 0.0 + 0.0j
    for Mc, Mp, w in zip(Mc_list, Mp_list, weight_bundles):
        total += np.trace(w.Wc @ Mc) + np.trace(w.Wp @ Mp)
    return checked_real(total)
