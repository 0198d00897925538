# Channel model tests: estimation-error draws, subspace quantization, codebook IO.
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmimo.channels import (
    CODEBOOK_HEADER,
    CODEBOOK_MAGIC,
    MAX_CODEBOOK_BITS,
    Codebook,
    chordal_distance,
    complex_gaussian,
    dominant_subspace,
    load_codebook,
    quantize_channel,
    quantized_csit_from_channels,
    random_codebook,
    sample_estimation_channel,
    sample_quantized_csit,
    save_codebook,
)
from oracles import brute_force_quantize, chordal_distance_svd, lapack_codebook, stacked_quantize


def test_estimation_channel_decomposition_exact():
    rng = np.random.default_rng(0)
    cs = sample_estimation_channel(8, 2, 4, [0.1, 0.2, 0.0, 0.5], rng)
    assert len(cs.H) == len(cs.H_hat) == len(cs.E) == 4
    for k in range(4):
        assert cs.H[k].shape == (8, 2)
        np.testing.assert_array_equal(cs.H[k], cs.H_hat[k] + cs.E[k])
    # sigma_e2 = 0 must give an exactly known channel, not a tiny random error
    assert np.all(cs.E[2] == 0.0)


def test_estimation_channel_is_seeded():
    a = sample_estimation_channel(4, 2, 2, [0.1, 0.1], np.random.default_rng(7))
    b = sample_estimation_channel(4, 2, 2, [0.1, 0.1], np.random.default_rng(7))
    for k in range(2):
        np.testing.assert_array_equal(a.H[k], b.H[k])
        np.testing.assert_array_equal(a.H_hat[k], b.H_hat[k])


def test_estimation_channel_entry_variances():
    # empirical per-entry second moments over many draws match the model split
    rng = np.random.default_rng(1)
    s2 = 0.3
    draws = 4000
    acc_h, acc_e = 0.0, 0.0
    for _ in range(draws):
        cs = sample_estimation_channel(4, 2, 1, [s2], rng)
        acc_h += np.mean(np.abs(cs.H_hat[0]) ** 2)
        acc_e += np.mean(np.abs(cs.E[0]) ** 2)
    se = 3.0 / np.sqrt(draws * 8)
    assert abs(acc_h / draws - (1.0 - s2)) < se
    assert abs(acc_e / draws - s2) < se


@pytest.mark.parametrize(
    "M,N,K,s2",
    [
        (2, 2, 1, [0.1]),  # needs M > N
        (4, 2, 2, [0.1]),  # wrong list length
        (4, 2, 1, [1.0]),  # variance at the upper boundary
        (4, 2, 1, [-0.1]),  # negative variance
        (4, 2, True, [0.1]),  # a bool is not a count
    ],
)
def test_estimation_channel_rejects_bad_inputs(M, N, K, s2):
    with pytest.raises(ValueError):
        sample_estimation_channel(M, N, K, s2, np.random.default_rng(0))


def test_numpy_integer_dimensions_are_accepted():
    # the same draws as with Python ints; a bool or a float count is named
    i8 = np.int64
    a = sample_estimation_channel(i8(4), i8(2), i8(3), [0.1] * 3, np.random.default_rng(5))
    b = sample_estimation_channel(4, 2, 3, [0.1] * 3, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a.H + a.H_hat, b.H + b.H_hat))
    cb = random_codebook(i8(6), i8(2), i8(3), np.random.default_rng(6))
    assert type(cb.bits) is int
    assert np.array_equal(cb.entries, random_codebook(6, 2, 3, np.random.default_rng(6)).entries)
    for args, name in (((4, True, 1), "N"), ((4.0, 2, 1), "M"), ((4, 2, 1.0), "K")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_estimation_channel(*args, [0.1] * 1, np.random.default_rng(0))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_chordal_distance_matches_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    M, N = 6, 2
    X, _ = np.linalg.qr(complex_gaussian(rng, (M, N)))
    C, _ = np.linalg.qr(complex_gaussian(rng, (M, N)))
    d = chordal_distance(X, C)
    assert abs(d - chordal_distance_svd(X, C)) < 1e-10
    assert 0.0 <= d <= N + 1e-12
    assert chordal_distance(X, X) < 1e-12


def test_chordal_distance_rejects_non_semi_unitary():
    rng = np.random.default_rng(2)
    X, _ = np.linalg.qr(complex_gaussian(rng, (6, 2)))
    with pytest.raises(ValueError):
        chordal_distance(X, complex_gaussian(rng, (6, 2)))



def test_chordal_distance_of_a_codeword_stack_matches_one_at_a_time():
    rng = np.random.default_rng(5)
    X, _ = np.linalg.qr(complex_gaussian(rng, (6, 2)))
    book = random_codebook(6, 2, 4, rng)
    dist = chordal_distance(X, np.asarray(book.entries))
    assert dist.shape == (16,)
    for d, C in zip(dist, book.entries):
        assert d == pytest.approx(chordal_distance(X, C), abs=1e-14)
        assert abs(d - chordal_distance_svd(X, C)) < 1e-10
    with pytest.raises(ValueError):
        chordal_distance(X, np.stack([book.entries[0], complex_gaussian(rng, (6, 2))]))

def test_random_codebook_entries_semi_unitary():
    cb = random_codebook(6, 2, 4, np.random.default_rng(3))
    assert cb.bits == 4 and len(cb.entries) == 16
    for C in cb.entries:
        np.testing.assert_allclose(C.conj().T @ C, np.eye(2), atol=1e-12)


def test_random_codebook_matches_per_codeword_qr_loop():
    # one batched draw consumes the stream exactly as one complex_gaussian per
    # codeword, and each codeword is its draw's Q factor with positive R
    # diagonal. Gram-Schmidt rounds differently from LAPACK, so the bound is
    # set from float64 eps (measured <= 1.5e-15); a wrong stream order gives
    # O(1) differences.
    book = random_codebook(6, 2, 5, np.random.default_rng(13))
    ref = lapack_codebook(6, 2, 5, np.random.default_rng(13))
    np.testing.assert_allclose(book.entries, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("bits", [1, 4, 6, 10])
@pytest.mark.parametrize("M,N", [(8, 2), (4, 2), (6, 3), (16, 4), (3, 1)])
def test_quantized_estimates_match_lapack_codebooks_up_to_column_signs(M, N, bits):
    # chordal distances do not see a column's sign, so the Gram-Schmidt
    # codebooks pick what LAPACK's would, and the estimates differ from
    # theirs by column signs and rounding only
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        books = [random_codebook(M, N, bits, rng) for _ in range(2)]
        refs = [Codebook(entries=lapack_codebook(M, N, bits, ref_rng), bits=bits) for _ in range(2)]
        H = [complex_gaussian(rng, (M, N)) for _ in range(2)]
        for Hk, book, ref in zip(H, books, refs):
            i, _, d = quantize_channel(Hk, book)
            i_ref, _, d_ref = quantize_channel(Hk, ref)
            assert i == i_ref and abs(d - d_ref) < 1e-12
        cs, gamma = quantized_csit_from_channels(H, books)
        cs_ref, gamma_ref = quantized_csit_from_channels(H, refs)
        assert abs(gamma - gamma_ref) < 1e-12
        for X, X_ref in zip(cs.H_hat, cs_ref.H_hat):
            signs = np.sign(np.sum(X.conj() * X_ref, axis=0).real)
            assert np.all(np.abs(signs) == 1)
            np.testing.assert_allclose(X, X_ref * signs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("M,N,bits", [(2, 1, 14), (4, 3, 14), (16, 1, 1), (16, 15, 1), (16, 15, 8), (16, 4, 12)])
def test_random_codebook_is_a_qr_factor_in_extreme_regimes(M, N, bits):
    book = random_codebook(M, N, bits, np.random.default_rng(bits))
    rng = np.random.default_rng(bits)
    A = np.stack([complex_gaussian(rng, (M, N)) for _ in range(2**bits)])
    Q = book.entries
    R = Q.conj().swapaxes(1, 2) @ A
    assert np.max(np.abs(np.tril(R, -1))) < 1e-12
    diag = R.diagonal(axis1=1, axis2=2)
    assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) < 1e-12
    gram = Q.conj().swapaxes(1, 2) @ Q
    assert np.max(np.abs(gram - np.eye(N))) < 1e-12


class _PlantedStream:
    """Stands in for a Generator whose standard_normal returns the planted draws."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


def test_random_codebook_stays_orthonormal_on_nearly_dependent_draws():
    # condition numbers near 1e7: one Gram-Schmidt pass would lose orthogonality
    # as cond^2 * eps, the second pass restores it to rounding
    z = np.random.default_rng(20).standard_normal((16, 2, 6, 3))
    z[..., 2] = z[..., 0] - z[..., 1] + 1e-7 * z[..., 2]
    Q = random_codebook(6, 3, 4, _PlantedStream(z)).entries
    gram = Q.conj().swapaxes(1, 2) @ Q
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


@pytest.mark.parametrize("plant", ["zero-first", "zero-last", "repeated", "complex-multiple"])
def test_random_codebook_names_a_rank_deficient_draw(plant):
    # a column in the span of the ones before it has no direction of its own:
    # it must be rejected by the semi-unitary check, naming the codeword,
    # never normalized into NaN or noise
    z = np.random.default_rng(17).standard_normal((8, 2, 6, 3))
    if plant == "zero-first":
        z[5, :, :, 0] = 0.0
    elif plant == "zero-last":
        z[5, :, :, 2] = 0.0
    elif plant == "repeated":
        z[5, :, :, 2] = z[5, :, :, 0]
    else:  # column 2 = 1j * (column 0 + column 1), an exact linear combination
        z[5, 0, :, 2] = -(z[5, 1, :, 0] + z[5, 1, :, 1])
        z[5, 1, :, 2] = z[5, 0, :, 0] + z[5, 0, :, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="codeword 5 is not semi-unitary"):
            random_codebook(6, 3, 3, _PlantedStream(z))
    # the same draws without the plant build a codebook
    z[5] = np.random.default_rng(18).standard_normal((2, 6, 3))
    assert len(random_codebook(6, 3, 3, _PlantedStream(z)).entries) == 8


@pytest.mark.parametrize("bits", [0, 15, True])  # a bool is not a count
def test_random_codebook_rejects_bad_bits(bits):
    with pytest.raises(ValueError):
        random_codebook(6, 2, bits, np.random.default_rng(0))


def test_dominant_subspace_matches_svd_and_rejects_rank_deficient():
    rng = np.random.default_rng(4)
    H = complex_gaussian(rng, (6, 2))
    U = dominant_subspace(H)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
    u_ref, _, _ = np.linalg.svd(H, full_matrices=False)
    assert chordal_distance(U, u_ref) < 1e-12
    col = complex_gaussian(rng, (6, 1))
    with pytest.raises(ValueError):
        dominant_subspace(np.concatenate([col, col], axis=1))  # rank 1


@pytest.mark.parametrize("smallest", [1e-13, 1e-11, 1e-8])
def test_dominant_subspace_guard_through_quantization(smallest):
    # a true channel whose smallest singular value sits below the 1e-12 guard
    # is rejected naming the user; just above it the subspace is still an
    # orthonormal basis and the quantized estimate is finite
    rng = np.random.default_rng(6)
    books = [random_codebook(6, 2, 4, rng) for _ in range(3)]
    H = [complex_gaussian(rng, (6, 2)) for _ in range(3)]
    u, s, vh = np.linalg.svd(H[1], full_matrices=False)
    H[1] = (u * [s[0], smallest]) @ vh
    if smallest < 1e-12:
        with pytest.raises(ValueError, match=r"user 1: .*rank deficient: smallest singular value .* < 1e-12"):
            quantized_csit_from_channels(H, books)
        return
    U = dominant_subspace(H[1])
    np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
    chans, gamma = quantized_csit_from_channels(H, books)
    assert np.isfinite(gamma) and 0.0 < chans.sigma_e2[0] < 1.0
    assert all(np.all(np.isfinite(h)) for h in chans.H_hat)


def test_quantize_channel_matches_brute_force():
    rng = np.random.default_rng(5)
    cb = random_codebook(6, 2, 5, rng)
    for _ in range(20):
        H = complex_gaussian(rng, (6, 2))
        i, C, d = quantize_channel(H, cb)
        i_ref, d_ref = brute_force_quantize(H, cb.entries)
        assert i == i_ref
        assert abs(d - d_ref) < 1e-12
        np.testing.assert_array_equal(C, cb.entries[i])


@pytest.mark.parametrize("M,N,bits", [(2, 1, 1), (4, 1, 6), (6, 3, 8), (8, 2, 10), (8, 7, 5), (8, 2, 14)])
def test_gemm_search_matches_stacked_search(M, N, bits):
    # the one-GEMM scoring must pick the index and return the distortion, to
    # the bit, that a stacked per-codeword search gives
    rng = np.random.default_rng(1000 * M + 10 * N + bits)
    book = random_codebook(M, N, bits, rng)
    # one codeword copied to scattered slots (exact ties), and the same
    # subspace under other bases in further slots (near ties: equal distances
    # mathematically, different in the last bits, which the GEMM's rounding
    # can order differently from the exact distances)
    C = np.array(book.entries)
    slots = np.sort(rng.choice(len(C), size=min(4, len(C)), replace=False))
    C[slots] = C[slots[0]]
    others = rng.permutation(np.setdiff1d(np.arange(len(C)), slots))[:12]
    for j in others:
        C[j] = C[slots[0]] @ np.linalg.qr(complex_gaussian(rng, (N, N)))[0]
    dup = Codebook(entries=C, bits=bits)
    drawn = [complex_gaussian(rng, (M, N)) for _ in range(6)]
    planted = [C[slots[-1]] @ (complex_gaussian(rng, (N, N)) + 3.0 * np.eye(N)) for _ in range(3)]
    nearby = [H + 1e-4 * complex_gaussian(rng, (M, N)) for H in planted for _ in range(4)]
    for cb in (book, dup):
        for H in drawn + planted + nearby:
            i, word, d = quantize_channel(H, cb)
            i_ref, d_ref = stacked_quantize(H, cb.entries)
            assert (i, d) == (i_ref, d_ref)
            np.testing.assert_array_equal(word, cb.entries[i])
    for H in planted:
        # a later copy of the planted codeword never wins over the first
        assert quantize_channel(H, dup)[0] not in slots[1:]


def test_quantize_channel_recovers_planted_codeword():
    rng = np.random.default_rng(6)
    cb = random_codebook(8, 2, 4, rng)
    for i in (0, 7, 15):
        # channel whose dominant subspace equals entry i exactly
        H = cb.entries[i] @ (complex_gaussian(rng, (2, 2)) + 3.0 * np.eye(2))
        idx, _, d = quantize_channel(H, cb)
        assert idx == i
        assert d < 1e-10


def test_quantize_channel_breaks_ties_toward_lowest_index():
    rng = np.random.default_rng(7)
    base = random_codebook(6, 2, 2, rng)
    dup = Codebook(entries=[base.entries[2], base.entries[1], base.entries[2]], bits=2)
    H = dup.entries[2] @ (complex_gaussian(rng, (2, 2)) + 3.0 * np.eye(2))
    idx, _, _ = quantize_channel(H, dup)
    assert idx == 0


def test_quantize_channel_rejects_empty_codebook():
    with pytest.raises(ValueError):
        quantize_channel(complex_gaussian(np.random.default_rng(0), (6, 2)), Codebook(entries=[], bits=1))


def test_superset_codebook_never_quantizes_worse():
    rng = np.random.default_rng(8)
    small = random_codebook(6, 2, 3, rng)
    big = Codebook(entries=np.concatenate([small.entries, random_codebook(6, 2, 3, rng).entries]), bits=4)
    for _ in range(10):
        H = complex_gaussian(rng, (6, 2))
        _, _, d_small = quantize_channel(H, small)
        _, _, d_big = quantize_channel(H, big)
        assert d_big <= d_small + 1e-14


def test_quantized_csit_decomposition_and_scaling():
    rng = np.random.default_rng(9)
    cs, gamma_hat = sample_quantized_csit(8, 2, 4, 6, rng)
    assert gamma_hat >= 0.0
    s2 = cs.sigma_e2[0]
    assert cs.sigma_e2 == [s2] * 4 and 0.0 <= s2 < 1.0
    delta2 = 8 * (1.0 - s2)
    for k in range(4):
        # E is the residual H - H_hat here, so recomposition holds to rounding
        np.testing.assert_allclose(cs.H[k], cs.H_hat[k] + cs.E[k], atol=1e-12)
        # estimate is a scaled semi-unitary matrix: columns orthogonal, norm delta
        np.testing.assert_allclose(cs.H_hat[k].conj().T @ cs.H_hat[k], delta2 * np.eye(2), atol=1e-9)


def test_quantized_csit_perfect_codebook_gives_zero_error():
    rng = np.random.default_rng(10)
    H_list = [complex_gaussian(rng, (6, 2)) for _ in range(2)]
    books = [Codebook(entries=[dominant_subspace(H)], bits=1) for H in H_list]
    cs, gamma_hat = quantized_csit_from_channels(H_list, books)
    assert gamma_hat < 1e-12
    assert cs.sigma_e2 == [0.0, 0.0]


def test_quantized_csit_clamps_effective_variance():
    rng = np.random.default_rng(11)
    H = np.zeros((4, 2), dtype=complex)
    H[:2, :] = complex_gaussian(rng, (2, 2)) + 2.0 * np.eye(2)
    C = np.zeros((4, 2), dtype=complex)
    C[2:, :] = np.eye(2)  # orthogonal to the channel subspace: distortion N
    cs, gamma_hat = quantized_csit_from_channels([H], [Codebook(entries=[C], bits=1)])
    assert abs(gamma_hat - 1.0) < 1e-12
    # raw value 4*1/(4-2) = 2 must clamp below one
    assert cs.sigma_e2[0] == pytest.approx(1.0 - 1e-9)


def test_codebook_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    cb = random_codebook(8, 2, 5, rng)
    path = tmp_path / "cb.bin"
    save_codebook(path, cb, seed=12)
    loaded, seed = load_codebook(path)
    assert seed == 12 and loaded.bits == 5 and len(loaded.entries) == 32
    for C, L in zip(cb.entries, loaded.entries):
        # storage is complex64, so round trip is float32-accurate
        assert np.max(np.abs(C - L)) < 1e-6
        np.testing.assert_allclose(L.conj().T @ L, np.eye(2), atol=1e-12)
    # loaded entries stay usable for quantization despite the rounding
    H = cb.entries[3] @ (complex_gaussian(rng, (2, 2)) + 3.0 * np.eye(2))
    idx, _, _ = quantize_channel(H, loaded)
    assert idx == 3


def test_load_codebook_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACB00" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_codebook(path)


def _codebook_blob(M=4, N=2, bits=3, seed=5, payload=None):
    """The bytes save_codebook writes, with the header and payload given here."""
    if payload is None:
        payload = np.zeros((2**bits, M, N), dtype=np.complex64).tobytes()
    return CODEBOOK_MAGIC + CODEBOOK_HEADER.pack(M, N, bits, seed) + payload


@pytest.mark.parametrize("M,N,bits", [(8, 2, 10), (16, 4, 8), (16, 15, 6), (4, 1, 14)])
def test_codebook_float32_rounding_stays_well_inside_the_load_tolerance(tmp_path, M, N, bits):
    book = random_codebook(M, N, bits, np.random.default_rng(bits))
    stored = book.entries.astype(np.complex64).astype(complex)
    gram = stored.conj().swapaxes(1, 2) @ stored
    assert np.max(np.abs(gram - np.eye(N))) < 1e-6  # the load check allows 1e-5
    path = tmp_path / "cb.bin"
    save_codebook(path, book, seed=bits)
    loaded, _ = load_codebook(path)
    assert np.max(np.abs(loaded.entries - book.entries)) < 1e-6


@pytest.mark.parametrize("corrupt", ["nan", "zero", "scaled"])
def test_load_codebook_rejects_a_corrupt_codeword(tmp_path, corrupt):
    # the polar snap repairs float32 rounding only; it used to raise a bare
    # LinAlgError on a NaN, and silently replace a zero or rescaled codeword
    C = random_codebook(4, 2, 3, np.random.default_rng(19)).entries.astype(np.complex64)
    if corrupt == "nan":
        C[6, 1, 0] = np.nan
    elif corrupt == "zero":
        C[6] = 0.0
    else:
        C[6] *= 100.0
    path = tmp_path / "corrupt.bin"
    path.write_bytes(_codebook_blob(payload=C.tobytes()))
    with pytest.raises(ValueError, match="codeword 6 is not semi-unitary") as info:
        load_codebook(path)
    assert str(path) in str(info.value)


def test_load_codebook_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(_codebook_blob()[:10])
    with pytest.raises(ValueError, match="truncated codebook header") as info:
        load_codebook(path)
    assert str(path) in str(info.value)


def test_load_codebook_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.bin"
    path.write_bytes(_codebook_blob()[:-3])
    with pytest.raises(ValueError, match="payload is 509 bytes, expected 512") as info:
        load_codebook(path)
    assert str(path) in str(info.value)


def test_load_codebook_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(_codebook_blob() + b"\x00")
    with pytest.raises(ValueError, match="payload is 513 bytes"):
        load_codebook(path)


@pytest.mark.parametrize(
    "M,N,bits",
    [(4, 2, 40), (4, 2, 0), (4, 2, MAX_CODEBOOK_BITS + 1), (0, 0, 3), (2, 2, 3), (4, 0, 3)],
)
def test_load_codebook_rejects_out_of_range_header(tmp_path, M, N, bits):
    # bits=40 used to ask for a multi-terabyte read, M=0 gave empty entries
    path = tmp_path / "header.bin"
    path.write_bytes(_codebook_blob(M, N, bits, payload=b""))
    with pytest.raises(ValueError, match="bad codebook header") as info:
        load_codebook(path)
    assert str(path) in str(info.value)


def test_codebook_entries_are_one_read_only_array():
    rng = np.random.default_rng(14)
    book = random_codebook(6, 2, 3, rng)
    assert book.entries.shape == (8, 6, 2) and book.entries.dtype == np.complex128
    with pytest.raises(ValueError, match="read-only"):
        book.entries[0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        book.entries = np.zeros((8, 6, 2))
    _, word, _ = quantize_channel(complex_gaussian(rng, (6, 2)), book)
    with pytest.raises(ValueError, match="read-only"):
        word[0, 0] = 1.0
    # a list of codewords is copied once, so the source stays the caller's
    source = [np.array(C) for C in book.entries]
    copy = Codebook(entries=source, bits=3)
    source[0][:] = 0.0
    np.testing.assert_array_equal(copy.entries, book.entries)
    # codebooks compare by identity, without an elementwise array comparison
    assert copy == copy and copy != book and len({copy, book}) == 2


@pytest.mark.parametrize(
    "entries",
    [[], np.zeros((0, 6, 2)), np.zeros((6, 2)), np.zeros((4, 2, 6)), np.zeros((4, 2, 2))],
    ids=["empty-list", "no-codewords", "one-matrix", "wide", "square"],
)
def test_codebook_rejects_bad_shapes(entries):
    with pytest.raises(ValueError, match="stack of M x N codewords"):
        Codebook(entries=entries, bits=1)


def test_codebook_names_a_codeword_that_is_not_semi_unitary():
    C = np.array(random_codebook(6, 2, 3, np.random.default_rng(15)).entries)
    C[5] *= 1.5  # Gram diagonal 2.25
    with pytest.raises(ValueError, match=r"codeword 5 is not semi-unitary: max \|X\^H X - I\| = 1\.25"):
        Codebook(entries=C, bits=3)
    C[5] /= 1.5
    C[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="codeword 2 is not semi-unitary"):
        Codebook(entries=C, bits=3)


def test_random_codebook_rejects_wide_codewords():
    # used to return 4 x 4 codewords for a 4 x 6 request
    with pytest.raises(ValueError, match="M must exceed N, got M=4 and N=6"):
        random_codebook(4, 6, 3, np.random.default_rng(0))


def test_quantized_csit_names_the_user_with_a_bad_codebook():
    rng = np.random.default_rng(16)
    H = [complex_gaussian(rng, (8, 2)) for _ in range(4)]
    books = [random_codebook(8, 2, 3, rng) for _ in range(3)]
    # used to die with an IndexError
    with pytest.raises(ValueError, match="one codebook per user, got 3 for 4 users"):
        quantized_csit_from_channels(H, books)
    with pytest.raises(ValueError, match=r"need a \(K, M, N\) stack of channels with K >= 1, got shape \(0,\)"):
        quantized_csit_from_channels([], [])
    # used to raise numpy's matmul shape error
    books.insert(2, random_codebook(6, 2, 3, rng))
    with pytest.raises(ValueError, match=r"user 2: channel shape \(8, 2\) does not match the codeword shape \(6, 2\)"):
        quantized_csit_from_channels(H, books)
    # used to return a ChannelSet whose sigma_e2 took M from user 0 only
    H[3], books[2] = complex_gaussian(rng, (6, 2)), books[0]
    books[3] = random_codebook(6, 2, 3, rng)
    with pytest.raises(ValueError, match=r"user 3: channel shape \(6, 2\) differs from user 0's \(8, 2\)"):
        quantized_csit_from_channels(H, books)


def test_save_codebook_rejects_a_count_that_is_not_two_to_the_bits(tmp_path):
    C = random_codebook(6, 2, 2, np.random.default_rng(17)).entries
    with pytest.raises(ValueError, match="3 entries, not 2\\*\\*bits = 4"):
        save_codebook(tmp_path / "cb.bin", Codebook(entries=C[:3], bits=2), seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_save_codebook_rejects_a_bad_seed_leaving_the_file_intact(tmp_path, seed):
    # the header used to be packed after the file was truncated, so a bad
    # seed raised struct.error and left only the magic bytes behind
    book = random_codebook(6, 2, 2, np.random.default_rng(18))
    path = tmp_path / "cb.bin"
    save_codebook(path, book, seed=7)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=rf"cb\.bin: codebook seed .* got {seed!r}"):
        save_codebook(path, random_codebook(6, 2, 3, np.random.default_rng(19)), seed=seed)
    assert path.read_bytes() == before
    assert load_codebook(path)[1] == 7
