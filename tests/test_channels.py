# Channel model tests: estimation-error draws, subspace quantization, codebook IO.
from __future__ import annotations

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
from oracles import brute_force_quantize, chordal_distance_svd


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
    ],
)
def test_estimation_channel_rejects_bad_inputs(M, N, K, s2):
    with pytest.raises(ValueError):
        sample_estimation_channel(M, N, K, s2, np.random.default_rng(0))


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
    # one batched draw and QR consume the stream exactly as one QR per codeword
    book = random_codebook(6, 2, 5, np.random.default_rng(13))
    rng = np.random.default_rng(13)
    for C in book.entries:
        Q, _ = np.linalg.qr(complex_gaussian(rng, (6, 2)))
        np.testing.assert_array_equal(C, Q)


@pytest.mark.parametrize("bits", [0, 15])
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


def test_quantize_channel_matches_brute_force():
    rng = np.random.default_rng(5)
    cb = random_codebook(6, 2, 5, rng)
    for _ in range(20):
        H = complex_gaussian(rng, (6, 2))
        i, C, d = quantize_channel(H, cb)
        i_ref, d_ref = brute_force_quantize(H, cb.entries)
        assert i == i_ref
        assert abs(d - d_ref) < 1e-12
        assert C is cb.entries[i]


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
    big = Codebook(entries=small.entries + random_codebook(6, 2, 3, rng).entries, bits=4)
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
