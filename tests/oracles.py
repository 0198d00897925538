"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different numerical routes than
the package (dense determinants instead of Cholesky log-dets, generalized
eigenvalues instead of determinant identities, grid scans instead of
bisection, Monte Carlo instead of closed forms). Keep it that way: these
functions are the oracles the tests compare against.
"""

import math

import numpy as np
import scipy.linalg

from rsmimo.channels import complex_gaussian
from rsmimo.rates import PrecoderSet, checked_real


def chordal_distance_svd(X, C):
    """Chordal distance via singular values of X^H C."""
    s = np.linalg.svd(X.conj().T @ C, compute_uv=False)
    return X.shape[1] - float(np.sum(s**2))


def lapack_codebook(M, N, bits, rng):
    """Reference codewords: LAPACK's thin QR of one complex_gaussian(rng, (M, N))
    draw per codeword, each Q column times the sign of R's real diagonal, so
    that every R has a positive diagonal. Returns the (2**bits, M, N) stack."""
    A = np.stack([complex_gaussian(rng, (M, N)) for _ in range(2**bits)])
    Q, R = np.linalg.qr(A)
    return Q * np.sign(R.diagonal(axis1=1, axis2=2).real)[:, None, :]


def brute_force_quantize(H, entries):
    """Exhaustive codebook scan; returns (index, distortion)."""
    u, _, _ = np.linalg.svd(H, full_matrices=False)
    Htilde = u
    best_i, best_d = 0, np.inf
    for i, C in enumerate(entries):
        d = Htilde.shape[1] - np.sum(np.abs(Htilde.conj().T @ C) ** 2)
        if d < best_d - 1e-15:
            best_i, best_d = i, d
    return best_i, float(best_d)


def stacked_quantize(H, entries):
    """Chordal search with one stacked matmul over the codewords; returns (index, distortion).

    The search as it was before the one-GEMM scoring: ties resolve to the
    lowest index among the clamped distances.
    """
    U = np.linalg.svd(H, full_matrices=False)[0]
    proj = U.conj().T @ np.asarray(entries)
    dist = np.maximum(U.shape[1] - np.sum(proj.real**2 + proj.imag**2, axis=(-2, -1)), 0.0)
    best = int(np.argmin(dist))
    return best, float(dist[best])


def rates_via_generalized_eig(H, Pc, Pp, sigma_n2):
    """Instantaneous rates from covariance pencils, per user.

    Common rate uses the pencil (signal+interference+noise, interference+noise)
    with all private signals as interference; the private rate excludes the
    common signal (removed before private decoding) and the own signal.
    """
    K = len(H)
    Rc, Rp = [], []
    for k in range(K):
        Hk = H[k]
        N = Hk.shape[1]
        priv_cov = sum(Hk.conj().T @ P @ P.conj().T @ Hk for P in Pp)
        noise = priv_cov + sigma_n2 * np.eye(N)
        sig_c = Hk.conj().T @ Pc @ Pc.conj().T @ Hk
        w = scipy.linalg.eigh(sig_c + noise, noise, eigvals_only=True)
        Rc.append(float(np.sum(np.log2(np.maximum(w, 1.0)))))
        other = sum(Hk.conj().T @ Pp[j] @ Pp[j].conj().T @ Hk for j in range(K) if j != k)
        noise_p = other + sigma_n2 * np.eye(N)
        sig_p = Hk.conj().T @ Pp[k] @ Pp[k].conj().T @ Hk
        w = scipy.linalg.eigh(sig_p + noise_p, noise_p, eigvals_only=True)
        Rp.append(float(np.sum(np.log2(np.maximum(w, 1.0)))))
    return Rc, Rp, min(Rc) + sum(Rp)


def quadratic_expectation_mc(variances, X, draws, rng):
    """Monte Carlo mean and standard error of Y^H X Y with per-entry variances."""
    M, N = variances.shape
    scale = np.sqrt(variances / 2.0)
    Y = scale * (rng.standard_normal((draws, M, N)) + 1j * rng.standard_normal((draws, M, N)))
    Q = np.einsum("dmi,mn,dnj->dij", Y.conj(), X, Y)
    mean = Q.mean(axis=0)
    se = Q.std(axis=0, ddof=1) / np.sqrt(draws)
    se_re = np.real(Q).std(axis=0, ddof=1) / np.sqrt(draws)
    se_im = np.imag(Q).std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, se_re, se_im, se


def naive_f1(H_hat, sigma_e2, Pc, Pp, sigma_n2):
    """f1 by dense determinants: log(sum_k det Mc_k) + sum_k log det Mp_k."""
    K = len(H_hat)
    Pfull = np.concatenate([Pc] + list(Pp), axis=1)
    Ppcat = np.concatenate(list(Pp), axis=1)
    trP = np.real(np.trace(Pfull @ Pfull.conj().T))
    trPp = np.real(np.trace(Ppcat @ Ppcat.conj().T))
    dets_c, logdets_p = [], []
    for k in range(K):
        Hk = H_hat[k]
        N = Hk.shape[1]
        F = Hk.conj().T @ Pfull @ Pfull.conj().T @ Hk + (sigma_e2[k] * trP + sigma_n2) * np.eye(N)
        G = Hk.conj().T @ Ppcat @ Ppcat.conj().T @ Hk + (sigma_e2[k] * trPp + sigma_n2) * np.eye(N)
        Mc = np.eye(N) - Pc.conj().T @ Hk @ np.linalg.inv(F) @ Hk.conj().T @ Pc
        Mp = np.eye(N) - Pp[k].conj().T @ Hk @ np.linalg.inv(G) @ Hk.conj().T @ Pp[k]
        dets_c.append(np.real(np.linalg.det(Mc)))
        logdets_p.append(np.log(np.real(np.linalg.det(Mp))))
    return float(np.log(np.sum(dets_c)) + np.sum(logdets_p))


def dense_mse_blocks(H_hat, sigma_e2, Pc, Pp, sigma_n2):
    """Per-user MMSE quantities from the dense F and G, one user at a time.

    Filters and error matrices come from np.linalg.inv of F and G, log-dets
    from slogdet and the inverses of the error matrices from np.linalg.inv.
    Returns one dict per user keyed like the library's bundle fields.
    """
    Pfull = np.concatenate([Pc] + list(Pp), axis=1)
    Ppcat = np.concatenate(list(Pp), axis=1)
    trP = np.real(np.trace(Pfull @ Pfull.conj().T))
    trPp = np.real(np.trace(Ppcat @ Ppcat.conj().T))
    out = []
    for k, Hk in enumerate(H_hat):
        N = Hk.shape[1]
        F = Hk.conj().T @ Pfull @ Pfull.conj().T @ Hk + (sigma_e2[k] * trP + sigma_n2) * np.eye(N)
        G = Hk.conj().T @ Ppcat @ Ppcat.conj().T @ Hk + (sigma_e2[k] * trPp + sigma_n2) * np.eye(N)
        blocks = {}
        for tag, cov, S in (("c", F, Hk.conj().T @ Pc), ("p", G, Hk.conj().T @ Pp[k])):
            D = S.conj().T @ np.linalg.inv(cov)
            Mz = np.eye(N) - D @ S
            sign, logdet = np.linalg.slogdet(Mz)
            blocks.update({f"D{tag}": D, f"M{tag}_mmse": Mz, f"logdet_{tag}": logdet,
                           f"sign_{tag}": sign, f"M{tag}_inv": np.linalg.inv(Mz)})
        out.append(blocks)
    return out


def scalar_loop_f2(Mc_list, Mp_list, Wc_list, Wp_list):
    """f2 as explicit elementwise trace sums."""
    total = 0.0
    for Mc, Mp, Wc, Wp in zip(Mc_list, Mp_list, Wc_list, Wp_list):
        N = Mc.shape[0]
        for i in range(N):
            for j in range(N):
                total += (Wc[i, j] * Mc[j, i]).real
                total += (Wp[i, j] * Mp[j, i]).real
    return total


def fd_gradient(fun, P0, h=1e-6):
    """Central-difference gradient of a real function over a complex matrix.

    Returns an array of the same shape, entries dRe + 1j*dIm.
    """
    g = np.zeros_like(P0, dtype=complex)
    it = np.nditer(np.zeros(P0.shape), flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        for comp in (1.0, 1.0j):
            Pp_ = P0.copy()
            Pm_ = P0.copy()
            Pp_[idx] += h * comp
            Pm_[idx] -= h * comp
            d = (fun(Pp_) - fun(Pm_)) / (2 * h)
            g[idx] += d * comp
    return g


def grid_scan_root(fun, lo, hi, points=1_000_000):
    """Locate the sign change of fun on [lo, hi] by dense scan; returns midpoint."""
    ts = np.linspace(lo, hi, points)
    vals = np.array([fun(t) for t in ts])
    sign = np.signbit(vals)
    flips = np.nonzero(sign[:-1] & ~sign[1:])[0]
    if len(flips) == 0:
        return None
    i = flips[0]
    return 0.5 * (ts[i] + ts[i + 1])


def empirical_cdf_sorted(samples, x):
    """CDF by sort-and-count."""
    s = np.sort(np.asarray(samples))
    return float(np.searchsorted(s, x, side="right")) / len(s)


def _received_covariances(H, P):
    """C[k][j] = H_k^H P_j P_j^H H_k, the covariance user k receives from stream j.

    One broadcast product chain over all (k, j) pairs; every factor has the
    memory layout of its per-pair form, so each pair's product is the same.
    """
    H, P = np.asarray(H), np.asarray(P)
    Hh, Ph = H.conj().swapaxes(1, 2), P.conj().swapaxes(1, 2)
    return Hh[:, None] @ P[None] @ Ph[None] @ H[:, None]


def plain_wmmse(H, rho, sigma_n2, P0, iters=1000, tol=1e-10):
    """Textbook sum-rate WMMSE with exact multiplier search (perfect CSIT).

    Alternates MMSE filters, inverse-MMSE weights, and a precoder update whose
    Lagrange multiplier is found by bisection so the power constraint holds at
    the exact subproblem optimum. Returns (precoders, sum_rate_bits).
    """
    K = len(H)
    M, N = H[0].shape
    P = [p.copy() for p in P0]
    eye_N, eye_M = np.eye(N), np.eye(M)

    def sum_rate(C):
        r = 0.0
        for k in range(K):
            R = sum(C[k])
            noise = R - C[k][k] + sigma_n2 * eye_N
            sig = C[k][k]
            w = scipy.linalg.eigh(sig + noise, noise, eigvals_only=True)
            r += np.sum(np.log2(np.maximum(w, 1.0)))
        return float(r)

    C = _received_covariances(H, P)
    prev = sum_rate(C)
    for _ in range(iters):
        D, W = [], []
        for k in range(K):
            R = sum(C[k]) + sigma_n2 * eye_N
            Dk = P[k].conj().T @ H[k] @ np.linalg.inv(R)
            Mk = eye_N - Dk @ H[k].conj().T @ P[k]
            D.append(Dk)
            W.append(np.linalg.inv(0.5 * (Mk + Mk.conj().T)))
        Bmat = sum(H[k] @ D[k].conj().T @ W[k] @ D[k] @ H[k].conj().T for k in range(K))
        Vs = [H[k] @ D[k].conj().T @ W[k] for k in range(K)]
        # with Bmat = U diag(ev) U^H, the precoder power at multiplier lam is
        # sum_i ||row i of U^H V||^2 / (ev_i + lam)^2: one eigendecomposition
        # serves every bisection step
        ev, U = np.linalg.eigh(0.5 * (Bmat + Bmat.conj().T))
        row_energy = sum(np.sum(np.abs(U.conj().T @ V) ** 2, axis=1) for V in Vs)

        def power(lam):
            return float((row_energy / (ev + lam) ** 2).sum())  # the reduction of np.sum, called directly

        lo, hi = 0.0, 1.0
        if power(1e-12) <= rho:
            lam = 1e-12
        else:
            while power(hi) > rho:
                hi *= 2
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break  # lo and hi are adjacent floats: no later step moves them
                if power(mid) > rho:
                    lo = mid
                else:
                    hi = mid
            lam = 0.5 * (lo + hi)
        inv = np.linalg.inv(Bmat + lam * eye_M)
        P = [inv @ V for V in Vs]
        C = _received_covariances(H, P)
        cur = sum_rate(C)
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            prev = cur
            break
        prev = cur
    return P, prev


def plain_wmmse_matched(H, rho, sigma_n2, P0, iters=2000, tol=1e-12):
    """Sum-rate WMMSE with the closed-form multiplier plus power renormalization.

    Same update convention as the library's all-private path but written
    independently with dense inverses and per-user loops; perfect CSIT only.
    """
    K = len(H)
    M, N = H[0].shape
    P = [p.copy() for p in P0]
    eye_N, eye_M = np.eye(N), np.eye(M)

    def sum_rate(C):
        r = 0.0
        for k in range(K):
            noise = sum(C[k][j] for j in range(K) if j != k) + sigma_n2 * eye_N
            sig = C[k][k]
            r += np.linalg.slogdet(eye_N + np.linalg.inv(noise) @ sig)[1] / np.log(2)
        return float(np.real(r))

    C = _received_covariances(H, P)
    prev = sum_rate(C)
    for _ in range(iters):
        D, W = [], []
        for k in range(K):
            R = sum(C[k]) + sigma_n2 * eye_N
            Dk = P[k].conj().T @ H[k] @ np.linalg.inv(R)
            Mk = eye_N - Dk @ H[k].conj().T @ P[k]
            D.append(Dk)
            W.append(np.linalg.inv(0.5 * (Mk + Mk.conj().T)))
        Bmat = sum(H[k] @ D[k].conj().T @ W[k] @ D[k] @ H[k].conj().T for k in range(K))
        lam = (
            sigma_n2
            * sum(np.real(np.trace(W[k] @ D[k] @ D[k].conj().T)) for k in range(K))
            / rho
        )
        inv = np.linalg.inv(Bmat + lam * eye_M)
        Pn = [inv @ (H[k] @ D[k].conj().T @ W[k]) for k in range(K)]
        power = sum(np.real(np.trace(p @ p.conj().T)) for p in Pn)
        scale = np.sqrt(rho / power)
        P = [scale * p for p in Pn]
        C = _received_covariances(H, P)
        cur = sum_rate(C)
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            prev = cur
            break
        prev = cur
    return P, prev


def per_user_solver(H_hat, sigma_e2, rho, sigma_n2, max_iters=100, obj_tol=1e-4,
                    bisect_tol=1e-8, t_clamp=1e-6, force_sdma=False):
    """The alternating robust RS design written one user at a time.

    Same updates and acceptance rule as the library's solver, but every
    per-user MSE matrix, weight and block term is built in a Python loop with
    dense inverses and slogdet. force_sdma starts all-private at t = 1, and a
    final rebalance to all-private is kept, its objective appended, only if
    it does not raise the objective. A vanished common direction raises a
    ValueError. Returns (objective trace, iterations, t, Pc, Pp).
    """
    K = len(H_hat)
    M, N = H_hat[0].shape
    eye_n, eye_m = np.eye(N), np.eye(M)

    def herm(X):
        return 0.5 * (X + X.conj().T)

    def bundles(Pc, Pp):
        Pfull = np.concatenate([Pc] + Pp, axis=1)
        Ppriv = np.concatenate(Pp, axis=1)
        tr_full = np.sum(np.abs(Pfull) ** 2)
        tr_priv = np.sum(np.abs(Ppriv) ** 2)
        out = []
        for k in range(K):
            Hh = H_hat[k].conj().T
            F = Hh @ Pfull @ Pfull.conj().T @ H_hat[k] + (sigma_e2[k] * tr_full + sigma_n2) * eye_n
            G = Hh @ Ppriv @ Ppriv.conj().T @ H_hat[k] + (sigma_e2[k] * tr_priv + sigma_n2) * eye_n
            Sc, Sp = Hh @ Pc, Hh @ Pp[k]
            Dc = Sc.conj().T @ np.linalg.inv(herm(F))
            Dp = Sp.conj().T @ np.linalg.inv(herm(G))
            out.append((Dc, Dp, herm(eye_n - Dc @ Sc), herm(eye_n - Dp @ Sp)))
        return out

    def objective(bs):
        lc = np.array([np.linalg.slogdet(Mc)[1] for _, _, Mc, _ in bs])
        lp = sum(np.linalg.slogdet(Mp)[1] for _, _, _, Mp in bs)
        return float(np.log(np.sum(np.exp(lc - lc.max()))) + lc.max() + lp)

    def block(bs, common):
        lc = np.array([np.linalg.slogdet(Mc)[1] for _, _, Mc, _ in bs])
        mu = np.exp(lc - lc.max()) / np.sum(np.exp(lc - lc.max()))
        Q = np.zeros((M, M), dtype=complex)
        lin, tr_wdd, omega = [], 0.0, 0.0
        for k, (Dc, Dp, Mc, Mp) in enumerate(bs):
            D, W = (Dc, mu[k] * np.linalg.inv(Mc)) if common else (Dp, np.linalg.inv(Mp))
            T = H_hat[k] @ D.conj().T
            Q += T @ W @ T.conj().T
            lin.append(T @ W)
            quad = np.trace(W @ D @ D.conj().T).real
            tr_wdd += quad
            omega += sigma_e2[k] * quad
        return herm(Q) + omega * eye_m, lin, tr_wdd

    def all_private(Pp):
        scale = np.sqrt(rho / sum(np.sum(np.abs(Q) ** 2) for Q in Pp))
        return np.zeros((M, N), dtype=complex), [scale * Q for Q in Pp]

    def sweep(Pc, Pp, t):
        B, lin, tr_p = block(bundles(Pc, Pp), common=False)
        V = np.concatenate(lin, axis=1)
        X = np.linalg.inv(B + sigma_n2 * tr_p / (rho * t) * eye_m) @ V
        Pp_cat = np.sqrt(rho * t) * X / np.linalg.norm(X)
        Pp_new = np.split(Pp_cat, K, axis=1)
        if locked:
            return np.zeros((M, N), dtype=complex), Pp_new, 1.0
        A, lin, tr_c = block(bundles(Pc, Pp_new), common=True)
        U = sum(lin)
        cross = np.trace(A @ Pp_cat @ Pp_cat.conj().T).real
        Y = np.linalg.inv(A + (sigma_n2 * tr_c + cross) / (rho * (1.0 - t)) * eye_m) @ U
        if np.linalg.norm(Y) < 1e-12:
            raise ValueError(f"common precoder direction collapsed (norm {np.linalg.norm(Y):.3g} < 1e-12)")
        Pc_n, Pp_n = Y / np.linalg.norm(Y), Pp_cat / np.linalg.norm(Pp_cat)
        a = np.trace(U.conj().T @ Pc_n).real
        b = np.trace(V.conj().T @ Pp_n).real
        c = rho * (np.trace((A + B) @ Pp_n @ Pp_n.conj().T).real
                   - np.trace(A @ Pc_n @ Pc_n.conj().T).real)

        def deriv(x):
            return np.sqrt(rho / (1.0 - x)) * a - np.sqrt(rho / x) * b + c

        lo, hi = t_clamp, 1.0 - t_clamp
        if deriv(lo) >= 0.0:
            t_new = lo
        elif deriv(hi) <= 0.0:
            t_new = hi
        else:
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if deriv(mid) < 0.0 else (lo, mid)
            t_new = 0.5 * (lo + hi)
        Pp_new = np.split(np.sqrt(rho * t_new) * Pp_n, K, axis=1)
        return np.sqrt(rho * (1.0 - t_new)) * Pc_n, Pp_new, t_new

    def extrapolate(cycle, step_max):
        """SQUAREM point from three iterates, block by block; None if t leaves the clamp."""
        blocks = list(zip(*([Pc] + list(Pp) for Pc, Pp in cycle)))  # (P0, P1, P2) per block
        rr = sum(np.sum(np.abs(x1 - x0) ** 2) for x0, x1, _ in blocks)
        vv = sum(np.sum(np.abs(x2 - 2.0 * x1 + x0) ** 2) for x0, x1, x2 in blocks)
        alpha = -min(step_max, max(1.0, np.sqrt(rr / vv) if vv > 0.0 else np.inf))
        if alpha == -1.0:
            return alpha, None
        X = [x0 - 2.0 * alpha * (x1 - x0) + alpha**2 * (x2 - 2.0 * x1 + x0) for x0, x1, x2 in blocks]
        scale = np.sqrt(rho / sum(np.sum(np.abs(x) ** 2) for x in X))
        X = [scale * x for x in X]
        t = 1.0 if locked else sum(np.sum(np.abs(x) ** 2) for x in X[1:]) / rho
        if not locked and not t_clamp <= t <= 1.0 - t_clamp:
            return None
        return alpha, (X[0], X[1:], t)

    # initialization: singular-space common precoder, matched private ones
    t0 = 1.0 if force_sdma or max(sigma_e2) == 0.0 else min(1.0, 1.0 / (rho * max(sigma_e2)))
    left = np.linalg.svd(np.concatenate(H_hat, axis=1), full_matrices=False)[0]
    Pc = np.sqrt(rho * (1.0 - t0) / N) * left[:, :N] if t0 < 1.0 else np.zeros((M, N), dtype=complex)
    Pp = [np.sqrt(rho * t0 / (K * N)) * Hk / np.linalg.norm(Hk, axis=0) for Hk in H_hat]
    t = t0
    locked = t >= 1.0
    f_cur = objective(bundles(Pc, Pp))
    trace, iterations = [f_cur], 0
    # SQUAREM cycles: two sweeps P0 -> P1 -> P2, then one stabilizing sweep
    # from the extrapolated point; any sweep that ends above the last
    # accepted objective is discarded and ends the run
    cycle, start, alpha, step_max = [(Pc, Pp)], (Pc, Pp, t), None, 1.0
    for it in range(max_iters):
        iterations = it + 1
        Pc_new, Pp_new, t_new = sweep(*start)
        f_new = objective(bundles(Pc_new, Pp_new))
        if f_new > f_cur:
            break
        Pc, Pp, t = Pc_new, Pp_new, t_new
        trace.append(f_new)
        if alpha == -step_max:
            step_max *= 4.0
        if f_cur - f_new < obj_tol * abs(f_cur):
            break
        f_cur = f_new
        cycle = cycle + [(Pc, Pp)] if alpha is None else [(Pc, Pp)]
        start, alpha = (Pc, Pp, t), None
        if len(cycle) == 3:
            step = extrapolate(cycle, step_max)
            if step is None:
                cycle = [(Pc, Pp)]
            else:
                alpha, point = step
                start = point if point is not None else start
    if not locked and t > 1.0 - 1e-4:
        rebalanced = all_private(Pp)
        f_new = objective(bundles(*rebalanced))
        if f_new <= trace[-1]:
            (Pc, Pp), t = rebalanced, 1.0
            trace.append(f_new)
    return trace, iterations, t, Pc, Pp


# Frozen kernels. Unlike the oracles above, these follow the package's own
# numerical route: they are the MSE-bundle kernel, the closed-form block
# solves and the power-split bisection as they stood before their numpy and
# Python calls were trimmed (eager F, G and MMSE error matrices, a symmetrized
# Gram matrix, diagonal shifts through np.eye, the split derivative as a
# closure), and the battery's finite-difference gradient as a per-block loop.
# The trimmed code must reproduce them bit for bit.


def _h(A):
    return A.conj().swapaxes(-1, -2)


def _herm(A):
    return 0.5 * (A + _h(A))


def _side_by_side(X):
    K, M, N = X.shape
    return X.transpose(1, 0, 2).reshape(M, K * N)


def _cholesky_solve(A, B):
    Li = np.linalg.inv(np.linalg.cholesky(A))
    return _h(Li) @ (Li @ B)


def frozen_bundles(H, sigma_e2, Pc, Pp, sigma_n2, own):
    """The stacked MMSE bundles of the n channels H (n, M, N), channel i
    decoding private stream own[i]; a dict keyed like the bundle fields."""
    Pp = np.asarray(Pp)
    Hh = _h(np.asarray(H))
    n, N, _ = Hh.shape
    K = len(Pp)
    Pfull = np.concatenate([Pc, _side_by_side(Pp)], axis=1)
    Sfull = Hh @ Pfull
    pick = np.eye(N * (K + 1)).reshape(K + 1, N, N * (K + 1))
    Y = np.zeros((2 * n, 2 * N, N * (K + 1)), dtype=complex)
    Y[:n, :N] = Sfull
    Y[n:, :N, N:] = Sfull[:, :, N:]
    Y[:n, N:] = pick[0]
    Y[n:, N:] = pick[np.asarray(own) + 1]
    Z = _herm(Y @ _h(Y))
    s2 = np.asarray(sigma_e2, dtype=float)
    tr_full = float(np.vdot(Pfull, Pfull).real)
    tr_priv = float(np.vdot(Pfull[:, N:], Pfull[:, N:]).real)
    floor = np.concatenate([s2 * tr_full, s2 * tr_priv]) + sigma_n2
    Z[:, :N, :N] += floor[:, None, None] * np.eye(N)
    L = np.linalg.cholesky(Z)
    Li = np.linalg.inv(L)
    L22, Li22 = L[:, N:, N:], Li[:, N:, N:]
    D = L[:, N:, :N] @ Li[:, :N, :N]
    X = np.concatenate([L22, _h(Li22)])
    MM = _herm(X @ _h(X))
    Mz, Mi = MM[:2 * n], MM[2 * n:]
    ld = 2.0 * np.log(L22.diagonal(axis1=1, axis2=2).real).sum(axis=1)
    return {"F": Z[:n, :N, :N], "G": Z[n:, :N, :N], "Dc": D[:n], "Dp": D[n:],
            "Mc_mmse": Mz[:n], "Mp_mmse": Mz[n:], "logdet_c": ld[:n], "logdet_p": ld[n:],
            "Mc_inv": Mi[:n], "Mp_inv": Mi[n:]}


def frozen_block_system(H_hat, sigma_e2, D, W):
    """(A, per-user linear terms, sum_k tr(W_k D_k D_k^H)) of one precoder block."""
    H, D, W = np.asarray(H_hat), np.asarray(D), np.asarray(W)
    M = H.shape[1]
    T = H @ D.conj().swapaxes(1, 2)
    TW = T @ W
    quad = np.einsum("kij,kij->k", W @ D, D.conj()).real
    A = _herm(_side_by_side(TW) @ _side_by_side(T).conj().T)
    A += float(np.dot(sigma_e2, quad)) * np.eye(M)
    return A, TW, float(quad.sum())


def frozen_solve_p1(H_hat, sigma_e2, Dp, Wp, rho, t_star, sigma_n2):
    """(Pp_cat, B, V) of the closed-form private block."""
    B, TW, tr_wdd = frozen_block_system(H_hat, sigma_e2, Dp, Wp)
    V = _side_by_side(TW)
    lam1 = sigma_n2 * tr_wdd / (rho * t_star)
    Pp_bar = _cholesky_solve(B + lam1 * np.eye(B.shape[0]), V)
    return np.sqrt(rho * t_star) * Pp_bar / np.linalg.norm(Pp_bar), B, V


def frozen_solve_p2(H_hat, sigma_e2, Dc, Wc, Pp_cat, rho, t_star, sigma_n2):
    """(Pc, A, U) of the closed-form common block."""
    A, TW, tr_wdd = frozen_block_system(H_hat, sigma_e2, Dc, Wc)
    U = TW.sum(axis=0)
    cross = float(np.vdot(Pp_cat, A @ Pp_cat).real)
    lam2 = (sigma_n2 * tr_wdd + cross) / (rho * (1.0 - t_star))
    Pc_bar = _cholesky_solve(A + lam2 * np.eye(A.shape[0]), U)
    return np.sqrt(rho * (1.0 - t_star)) * Pc_bar / np.linalg.norm(Pc_bar), A, U


def frozen_solve_p3(U, V, A, B, Pc_norm, Pp_norm, rho):
    """(t_star, flag) of the power-split bisection, its derivative a closure."""
    T_CLAMP, BISECT_TOL = 1e-6, 1e-8
    # tr(U^H Pc), tr(V^H Pp), tr((A + B) Pp Pp^H) and tr(A Pc Pc^H)
    traces = [np.vdot(U, Pc_norm), np.vdot(V, Pp_norm)]
    traces += [np.vdot(Pp_norm, (A + B) @ Pp_norm), np.vdot(Pc_norm, A @ Pc_norm)]
    a, b, quad_p, quad_c = checked_real(traces).tolist()
    if a <= 0.0 or b <= 0.0:
        raise ValueError("filter/precoder alignment traces must be positive")
    c = rho * (quad_p - quad_c)

    def deriv(t):
        return math.sqrt(rho / (1.0 - t)) * a - math.sqrt(rho / t) * b + c

    lo, hi = T_CLAMP, 1.0 - T_CLAMP
    d_lo, d_hi = deriv(lo), deriv(hi)
    if d_lo >= 0.0:
        return lo, "low"
    if d_hi <= 0.0:
        return hi, "high"
    # derivative is strictly increasing in t, so the sign change is unique
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), ""


def frozen_fd_gradient(fun, P0, h=1e-6):
    """Central differences of fun over every complex coordinate of every block
    of the PrecoderSet P0, block by block, then row by row and column by column;
    the blocks' gradients side by side, M x N(K+1)."""
    blocks = [P0.Pc] + list(P0.Pp)
    grads = []
    for bi in range(len(blocks)):
        g = np.zeros_like(blocks[bi])
        for i in range(blocks[bi].shape[0]):
            for j in range(blocks[bi].shape[1]):
                for direction in (1.0, 1j):
                    bumped = [b.copy() for b in blocks]
                    bumped[bi][i, j] += h * direction
                    fp = fun(PrecoderSet(Pc=bumped[0], Pp=bumped[1:], rho=P0.rho))
                    bumped = [b.copy() for b in blocks]
                    bumped[bi][i, j] -= h * direction
                    fm = fun(PrecoderSet(Pc=bumped[0], Pp=bumped[1:], rho=P0.rho))
                    g[i, j] += direction * (fp - fm) / (2.0 * h)
        grads.append(g)
    return np.concatenate(grads, axis=1)
