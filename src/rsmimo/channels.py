"""Channel generation under estimation-error and limited-feedback CSIT models."""

from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

CODEBOOK_MAGIC = b"RSMACB1"
CODEBOOK_HEADER = struct.Struct("<IIIQ")  # M, N, bits, seed
MAX_CODEBOOK_BITS = 14


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One channel realization: true channels, transmitter-side estimates, errors.

    H[k] = H_hat[k] + E[k]; exact in estimation mode where H is formed as the
    sum, to rounding in quantized mode where E is the residual. sigma_e2[k] is
    the per-entry error variance consumed by the robust solver. Compares by identity.
    """

    H: list
    H_hat: list
    E: list
    sigma_e2: list


@dataclass(frozen=True, eq=False)
class Codebook:
    """Codewords as one read-only (count, M, N) complex array of semi-unitary matrices.

    entries may be given as any array-like stack (a list of M x N matrices, say);
    it is copied once, checked and stored read-only, so quantize_channel can
    trust it. Codebooks compare by identity.
    """

    entries: np.ndarray
    bits: int

    def __post_init__(self):
        # C order, so that quantize_channel's (count, M*N) reshape is a view
        C = np.array(self.entries, dtype=complex, order="C")
        if not (C.ndim == 3 and len(C) and C.shape[1] > C.shape[2] >= 1):
            raise ValueError(f"codebook entries must be a non-empty stack of M x N codewords "
                             f"with M > N >= 1, got shape {C.shape}")
        _check_semi_unitary(C, "codeword")
        C.flags.writeable = False
        object.__setattr__(self, "entries", C)


def complex_gaussian(rng: np.random.Generator, shape, var=1.0):
    """Circularly symmetric complex Gaussian entries with total variance var."""
    std = np.sqrt(var / 2.0)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def as_int(name, value) -> int:
    """value as an int, numpy integers included; a bool or a non-integer raises
    a ValueError naming the field."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_dims(M, N, K=1):
    """The dimension rule of every channel and design: N, K >= 1 and M > N."""
    M, N, K = as_int("M", M), as_int("N", N), as_int("K", K)
    if N < 1 or K < 1:
        raise ValueError(f"N and K must be at least 1, got N={N} and K={K}")
    if M <= N:
        raise ValueError(f"M must exceed N, got M={M} and N={N}")


def sample_estimation_channel(M, N, K, sigma_e2, rng) -> ChannelSet:
    """Draw true channels as estimate plus independent error per user.

    Estimate entries have variance 1 - sigma_e2[k], error entries sigma_e2[k],
    so the true channel keeps unit entry variance.
    """
    check_dims(M, N, K)
    sigma_e2 = [float(s) for s in sigma_e2]
    if len(sigma_e2) != K:
        raise ValueError(f"expected {K} error variances, got {len(sigma_e2)}")
    for s in sigma_e2:
        if not (0.0 <= s < 1.0):
            raise ValueError(f"sigma_e2 must lie in [0, 1), got {s}")
    H_hat, E, H = [], [], []
    for k in range(K):
        Hh = complex_gaussian(rng, (M, N), 1.0 - sigma_e2[k])
        Ek = complex_gaussian(rng, (M, N), sigma_e2[k]) if sigma_e2[k] > 0 else np.zeros((M, N), dtype=complex)
        H_hat.append(Hh)
        E.append(Ek)
        H.append(Hh + Ek)
    return ChannelSet(H=H, H_hat=H_hat, E=E, sigma_e2=sigma_e2)


def _check_semi_unitary(X, name="matrix", tol=1e-8):
    """Reject a matrix, or a stack of them, unless every one has orthonormal columns.

    The error names the first bad matrix by its index in the stack and gives
    its max |X^H X - I|; non-finite entries count as bad.
    """
    # one vectorised inner product per column pair: far cheaper than a stack
    # of tiny Gram matmuls when X holds thousands of codewords
    Xc = X.conj()
    err = np.zeros(X.shape[:-2])
    for a in range(X.shape[-1]):
        for b in range(a, X.shape[-1]):
            g = np.einsum("...m,...m->...", Xc[..., a], X[..., b])
            err = np.maximum(err, np.abs(g - (a == b)))
    bad = np.argwhere(~(err <= tol))
    if len(bad):
        at = "".join(f" {i}" for i in bad[0])
        raise ValueError(f"{name}{at} is not semi-unitary: max |X^H X - I| = {err[tuple(bad[0])]:.3g}")


def _distances(Htilde, C):
    """N - ||Htilde^H C||_F^2, clamped at 0, for one matrix C or each of a stack."""
    proj = Htilde.conj().T @ C
    return np.maximum(Htilde.shape[1] - np.sum(proj.real**2 + proj.imag**2, axis=(-2, -1)), 0.0)


def chordal_distance(Htilde, C):
    """Subspace distance N - ||Htilde^H C||_F^2 between semi-unitary matrices.

    C may be one M x N matrix (a float is returned) or a stack (..., M, N) of
    them (an array of distances is returned).
    """
    _check_semi_unitary(Htilde)
    _check_semi_unitary(C, "codeword")
    return _distances(Htilde, C)


def random_codebook(M, N, bits, rng) -> Codebook:
    """Random codebook of 2**bits semi-unitary matrices: Gram-Schmidt of Gaussians.

    Codeword s is the Q factor, with positive real R diagonal, of the s-th
    complex_gaussian(rng, (M, N)) draw, so it is Haar distributed and the
    random stream is that of one draw per codeword. Q comes from two-pass
    classical Gram-Schmidt (CGS2) run over the whole stack at once, one column
    at a time. A column numerically in the span of the ones before it is set
    to zero, so the semi-unitary check names its codeword.
    """
    check_dims(M, N)
    bits = as_int("bits", bits)
    if not (1 <= bits <= MAX_CODEBOOK_BITS):
        raise ValueError(f"bits must be in [1, {MAX_CODEBOOK_BITS}], got {bits}")
    # the stream of one complex_gaussian(rng, (M, N)) per codeword: real parts,
    # then imaginary parts. V[j, :, s] is column j of codeword s, so every step
    # below runs over the whole stack; Gram-Schmidt is scale-free, so the
    # draw's 1/sqrt(2) is skipped.
    z = rng.standard_normal((2**bits, 2, M, N))
    V = np.ascontiguousarray(z.transpose(3, 2, 0, 1)).view(complex)[..., 0]
    for j in range(N):
        v = V[j]
        r = norm = np.sqrt((v.real**2 + v.imag**2).sum(0))
        for _ in range(2 if j else 0):
            vc = v.conj()
            c = [(vc * q).sum(0).conj() for q in V[:j]]
            for ci, q in zip(c, V[:j]):
                v -= ci * q
        if j:
            r = np.sqrt((v.real**2 + v.imag**2).sum(0))
        v *= np.divide(1.0, r, out=np.zeros_like(r), where=r > 1e-12 * norm)
    return Codebook(entries=V.T, bits=bits)


def dominant_subspace(H):
    """Orthonormal basis of the N-dimensional dominant column space of H H^H."""
    # left singular vectors of H avoid squaring the condition number
    u, s, _ = np.linalg.svd(H, full_matrices=False)
    if s[-1] < 1e-12:
        raise ValueError(f"channel is numerically rank deficient: smallest singular value {s[-1]:.3g} < 1e-12")
    return u


def quantize_channel(H, codebook: Codebook):
    """Pick the codeword closest in chordal distance to the dominant subspace of H.

    Returns (index, codeword, distortion); ties resolve to the lowest index.
    The codeword is a read-only view into the codebook.
    """
    C = codebook.entries
    count, M, N = C.shape
    if np.shape(H) != (M, N):
        raise ValueError(f"channel shape {np.shape(H)} does not match the codeword shape {(M, N)}")
    U = dominant_subspace(H)
    # One GEMM scores every codeword: with K = kron(conj(U), I_N), row i of
    # C.reshape(count, M*N) @ K is U^H C_i flattened. Its rounding differs from
    # the per-codeword matmul's, so every codeword within 1e-12 of the lowest
    # score is rescored exactly, and the lowest exact distance wins.
    K = (U.conj()[:, None, :, None] * np.eye(N)[:, None, :]).reshape(M * N, N * N)
    proj = (C.reshape(count, M * N) @ K).view(np.float64)
    score = np.maximum(N - np.einsum("ij,ij->i", proj, proj), 0.0)
    near = np.flatnonzero(score <= score.min() + 1e-12)
    exact = _distances(U, C[near])
    best = int(np.argmin(exact))
    return int(near[best]), C[near[best]], float(exact[best])


def quantized_csit_from_channels(H_list, codebooks) -> tuple[ChannelSet, float]:
    """Build a ChannelSet from given true channels and per-user codebooks.

    The estimate is the selected codeword scaled so its column power matches the
    expected residual energy, and the effective per-entry error variance is
    M*gamma_hat/(M-N) with gamma_hat pooled over users (distortion per column).
    """
    K = len(H_list)
    if not K:
        raise ValueError(f"need a (K, M, N) stack of channels with K >= 1, got shape {np.shape(H_list)}")
    M, N = H_list[0].shape
    if len(codebooks) != K:
        raise ValueError(f"expected one codebook per user, got {len(codebooks)} for {K} users")
    picks = []
    for k in range(K):
        if np.shape(H_list[k]) != (M, N):
            raise ValueError(f"user {k}: channel shape {np.shape(H_list[k])} differs from user 0's {(M, N)}")
        try:
            picks.append(quantize_channel(H_list[k], codebooks[k]))
        except ValueError as exc:
            raise ValueError(f"user {k}: {exc}") from exc
    words = [C for _, C, _ in picks]
    gamma_hat = float(np.mean([d for _, _, d in picks])) / N
    # gamma beyond (M-N)/M would imply negative known-part energy; clamp
    sigma_e2 = min(M * gamma_hat / (M - N), 1.0 - 1e-9)
    delta_hat = np.sqrt(M * (1.0 - sigma_e2))
    H_hat = [delta_hat * C for C in words]
    E = [H_list[k] - H_hat[k] for k in range(K)]
    return ChannelSet(H=list(H_list), H_hat=H_hat, E=E, sigma_e2=[sigma_e2] * K), gamma_hat


def sample_quantized_csit(M, N, K, bits, rng) -> tuple[ChannelSet, float]:
    """Draw channels and quantize each user's subspace with a fresh random codebook."""
    check_dims(M, N, K)
    codebooks = [random_codebook(M, N, bits, rng) for _ in range(K)]
    H = [complex_gaussian(rng, (M, N)) for _ in range(K)]
    return quantized_csit_from_channels(H, codebooks)


def save_codebook(path, codebook: Codebook, seed):
    """Persist magic, M, N, bits, seed, then complex64 entries; a bad seed raises before opening."""
    count, M, N = codebook.entries.shape
    if count != 2**codebook.bits:
        raise ValueError(f"codebook has {count} entries, not 2**bits = {2**codebook.bits}")
    try:
        header = CODEBOOK_HEADER.pack(M, N, codebook.bits, seed)
    except struct.error as exc:
        raise ValueError(f"{path}: codebook seed must be an integer in [0, 2**64), got {seed!r}") from exc
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC + header + codebook.entries.astype(np.complex64).tobytes(order="C"))


def load_codebook(path) -> tuple[Codebook, int]:
    """Read a codebook written by save_codebook; returns (codebook, seed).

    A bad magic, a truncated or out-of-range header, or a payload that is not
    exactly 2**bits M x N complex64 entries raises a ValueError naming the path.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CODEBOOK_MAGIC))
        if magic != CODEBOOK_MAGIC:
            raise ValueError(f"{path}: bad codebook magic {magic!r}")
        header = fh.read(CODEBOOK_HEADER.size)
        if len(header) != CODEBOOK_HEADER.size:
            raise ValueError(f"{path}: truncated codebook header")
        M, N, bits, seed = CODEBOOK_HEADER.unpack(header)
        if not (1 <= bits <= MAX_CODEBOOK_BITS and M > N >= 1):
            raise ValueError(f"{path}: bad codebook header M={M}, N={N}, bits={bits}")
        expected = 2**bits * M * N * np.dtype(np.complex64).itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValueError(f"{path}: codebook payload is {size} bytes, expected {expected}")
        arr = np.frombuffer(fh.read(), dtype=np.complex64).reshape(2**bits, M, N)
    # float32 rounding (|X^H X - I| up to about 1e-7) breaks exact semi-unitarity;
    # a payload further off is corrupt. Snap the rest to the polar factor.
    _check_semi_unitary(arr, f"{path}: codeword", tol=1e-5)
    u, _, vh = np.linalg.svd(arr.astype(complex), full_matrices=False)
    return Codebook(entries=u @ vh, bits=bits), seed
