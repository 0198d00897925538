"""Channel generation under estimation-error and limited-feedback CSIT models."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

CODEBOOK_MAGIC = b"RSMACB1"
CODEBOOK_HEADER = struct.Struct("<IIIQ")  # M, N, bits, seed
MAX_CODEBOOK_BITS = 14


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: true channels, transmitter-side estimates, errors.

    H[k] = H_hat[k] + E[k]; exact in estimation mode where H is formed as the
    sum, to rounding in quantized mode where E is the residual. sigma_e2[k] is
    the per-entry error variance consumed by the robust solver.
    """

    H: list
    H_hat: list
    E: list
    sigma_e2: list


@dataclass(frozen=True)
class Codebook:
    entries: list
    bits: int


def complex_gaussian(rng: np.random.Generator, shape, var=1.0):
    """Circularly symmetric complex Gaussian entries with total variance var."""
    std = np.sqrt(var / 2.0)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _check_dims(M, N, K):
    if not (isinstance(M, int) and isinstance(N, int) and isinstance(K, int)):
        raise ValueError("M, N, K must be integers")
    if not (M > N >= 1 and K >= 1):
        raise ValueError(f"need M > N >= 1 and K >= 1, got M={M}, N={N}, K={K}")


def sample_estimation_channel(M, N, K, sigma_e2, rng) -> ChannelSet:
    """Draw true channels as estimate plus independent error per user.

    Estimate entries have variance 1 - sigma_e2[k], error entries sigma_e2[k],
    so the true channel keeps unit entry variance.
    """
    _check_dims(M, N, K)
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


def _check_semi_unitary(X, tol=1e-8):
    """Reject a matrix, or any matrix of a stack, whose columns are not orthonormal."""
    G = X.conj().swapaxes(-1, -2) @ X
    if np.max(np.abs(G - np.eye(X.shape[-1]))) > tol:
        raise ValueError("matrix is not semi-unitary within tolerance")


def chordal_distance(Htilde, C):
    """Subspace distance N - ||Htilde^H C||_F^2 between semi-unitary matrices.

    C may be one M x N matrix (a float is returned) or a stack (..., M, N) of
    them (an array of distances is returned).
    """
    _check_semi_unitary(Htilde)
    _check_semi_unitary(C)
    proj = Htilde.conj().T @ C
    return np.maximum(Htilde.shape[1] - np.sum(proj.real**2 + proj.imag**2, axis=(-2, -1)), 0.0)


def random_codebook(M, N, bits, rng) -> Codebook:
    """Random codebook of 2**bits semi-unitary matrices from thin-QR of Gaussians."""
    if not (1 <= bits <= MAX_CODEBOOK_BITS):
        raise ValueError(f"bits must be in [1, {MAX_CODEBOOK_BITS}], got {bits}")
    # the random stream of one complex_gaussian(rng, (M, N)) per codeword:
    # real parts, then imaginary parts
    z = rng.standard_normal((2**bits, 2, M, N))
    Q, _ = np.linalg.qr(np.sqrt(0.5) * (z[:, 0] + 1j * z[:, 1]))
    return Codebook(entries=list(Q), bits=bits)


def dominant_subspace(H):
    """Orthonormal basis of the N-dimensional dominant column space of H H^H."""
    # left singular vectors of H avoid squaring the condition number
    u, s, _ = np.linalg.svd(H, full_matrices=False)
    if s[-1] < 1e-12:
        raise ValueError("channel is numerically rank deficient")
    return u


def quantize_channel(H, codebook: Codebook):
    """Pick the codeword closest in chordal distance to the dominant subspace of H.

    Returns (index, codeword, distortion); ties resolve to the lowest index.
    """
    entries = codebook.entries
    if len(entries) == 0:
        raise ValueError("codebook is empty")
    dist = chordal_distance(dominant_subspace(H), np.asarray(entries))
    best = int(np.argmin(dist))
    return best, entries[best], float(dist[best])


def quantized_csit_from_channels(H_list, codebooks) -> tuple[ChannelSet, float]:
    """Build a ChannelSet from given true channels and per-user codebooks.

    The estimate is the selected codeword scaled so its column power matches the
    expected residual energy, and the effective per-entry error variance is
    M*gamma_hat/(M-N) with gamma_hat pooled over users (distortion per column).
    """
    K = len(H_list)
    M, N = H_list[0].shape
    picks = [quantize_channel(Hk, book) for Hk, book in zip(H_list, codebooks)]
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
    _check_dims(M, N, K)
    codebooks = [random_codebook(M, N, bits, rng) for _ in range(K)]
    H = [complex_gaussian(rng, (M, N)) for _ in range(K)]
    return quantized_csit_from_channels(H, codebooks)


def save_codebook(path, codebook: Codebook, seed):
    """Persist a codebook as magic, M, N, bits, seed, then complex64 entries."""
    M, N = codebook.entries[0].shape
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC)
        fh.write(CODEBOOK_HEADER.pack(M, N, codebook.bits, seed))
        arr = np.stack(codebook.entries).astype(np.complex64)
        fh.write(arr.tobytes(order="C"))


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
    # float32 rounding breaks exact semi-unitarity; snap to the polar factor
    u, _, vh = np.linalg.svd(arr.astype(complex), full_matrices=False)
    return Codebook(entries=list(u @ vh), bits=bits), seed
