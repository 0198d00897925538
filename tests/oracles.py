"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different numerical routes than
the package (dense determinants instead of Cholesky log-dets, generalized
eigenvalues instead of determinant identities, grid scans instead of
bisection, Monte Carlo instead of closed forms). Keep it that way: these
functions are the oracles the tests compare against.
"""

import numpy as np
import scipy.linalg


def chordal_distance_svd(X, C):
    """Chordal distance via singular values of X^H C."""
    s = np.linalg.svd(X.conj().T @ C, compute_uv=False)
    return X.shape[1] - float(np.sum(s**2))


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


def plain_wmmse(H, rho, sigma_n2, P0, iters=1000, tol=1e-10):
    """Textbook sum-rate WMMSE with exact multiplier search (perfect CSIT).

    Alternates MMSE filters, inverse-MMSE weights, and a precoder update whose
    Lagrange multiplier is found by bisection so the power constraint holds at
    the exact subproblem optimum. Returns (precoders, sum_rate_bits).
    """
    K = len(H)
    M, N = H[0].shape
    P = [p.copy() for p in P0]

    def sum_rate(P):
        r = 0.0
        for k in range(K):
            R = sum(H[k].conj().T @ P[j] @ P[j].conj().T @ H[k] for j in range(K))
            noise = R - H[k].conj().T @ P[k] @ P[k].conj().T @ H[k] + sigma_n2 * np.eye(N)
            sig = H[k].conj().T @ P[k] @ P[k].conj().T @ H[k]
            w = scipy.linalg.eigh(sig + noise, noise, eigvals_only=True)
            r += np.sum(np.log2(np.maximum(w, 1.0)))
        return float(r)

    prev = sum_rate(P)
    for _ in range(iters):
        D, W = [], []
        for k in range(K):
            R = sum(H[k].conj().T @ P[j] @ P[j].conj().T @ H[k] for j in range(K)) + sigma_n2 * np.eye(N)
            Dk = P[k].conj().T @ H[k] @ np.linalg.inv(R)
            Mk = np.eye(N) - P[k].conj().T @ H[k] @ np.linalg.inv(R) @ H[k].conj().T @ P[k]
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
            return float(np.sum(row_energy / (ev + lam) ** 2))

        lo, hi = 0.0, 1.0
        if power(1e-12) <= rho:
            lam = 1e-12
        else:
            while power(hi) > rho:
                hi *= 2
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if power(mid) > rho:
                    lo = mid
                else:
                    hi = mid
            lam = 0.5 * (lo + hi)
        inv = np.linalg.inv(Bmat + lam * np.eye(M))
        P = [inv @ V for V in Vs]
        cur = sum_rate(P)
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

    def sum_rate(P):
        r = 0.0
        for k in range(K):
            noise = (
                sum(H[k].conj().T @ P[j] @ P[j].conj().T @ H[k] for j in range(K) if j != k)
                + sigma_n2 * np.eye(N)
            )
            sig = H[k].conj().T @ P[k] @ P[k].conj().T @ H[k]
            r += np.linalg.slogdet(np.eye(N) + np.linalg.inv(noise) @ sig)[1] / np.log(2)
        return float(np.real(r))

    prev = sum_rate(P)
    for _ in range(iters):
        D, W = [], []
        for k in range(K):
            R = (
                sum(H[k].conj().T @ P[j] @ P[j].conj().T @ H[k] for j in range(K))
                + sigma_n2 * np.eye(N)
            )
            Dk = P[k].conj().T @ H[k] @ np.linalg.inv(R)
            Mk = np.eye(N) - P[k].conj().T @ H[k] @ np.linalg.inv(R) @ H[k].conj().T @ P[k]
            D.append(Dk)
            W.append(np.linalg.inv(0.5 * (Mk + Mk.conj().T)))
        Bmat = sum(H[k] @ D[k].conj().T @ W[k] @ D[k] @ H[k].conj().T for k in range(K))
        lam = (
            sigma_n2
            * sum(np.real(np.trace(W[k] @ D[k] @ D[k].conj().T)) for k in range(K))
            / rho
        )
        inv = np.linalg.inv(Bmat + lam * np.eye(M))
        Pn = [inv @ (H[k] @ D[k].conj().T @ W[k]) for k in range(K)]
        power = sum(np.real(np.trace(p @ p.conj().T)) for p in Pn)
        scale = np.sqrt(rho / power)
        P = [scale * p for p in Pn]
        cur = sum_rate(P)
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
    dense inverses and slogdet. Returns (objective trace, iterations, t, Pc, Pp).
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

    # initialization: singular-space common precoder, matched private ones
    t0 = 1.0 if max(sigma_e2) == 0.0 else min(1.0, 1.0 / (rho * max(sigma_e2)))
    left = np.linalg.svd(np.concatenate(H_hat, axis=1), full_matrices=False)[0]
    Pc = np.sqrt(rho * (1.0 - t0) / N) * left[:, :N] if t0 < 1.0 else np.zeros((M, N), dtype=complex)
    Pp = [np.sqrt(rho * t0 / (K * N)) * Hk / np.linalg.norm(Hk, axis=0) for Hk in H_hat]
    t = t0
    if force_sdma and t < 1.0:
        (Pc, Pp), t = all_private(Pp), 1.0
    locked = t >= 1.0
    f_cur = objective(bundles(Pc, Pp))
    trace, iterations = [f_cur], 0
    for it in range(max_iters):
        iterations = it + 1
        B, lin, tr_p = block(bundles(Pc, Pp), common=False)
        V = np.concatenate(lin, axis=1)
        X = np.linalg.inv(B + sigma_n2 * tr_p / (rho * t) * eye_m) @ V
        Pp_cat = np.sqrt(rho * t) * X / np.linalg.norm(X)
        Pp_new = np.split(Pp_cat, K, axis=1)
        t_new = 1.0
        if locked:
            Pc_new = np.zeros((M, N), dtype=complex)
        else:
            A, lin, tr_c = block(bundles(Pc, Pp_new), common=True)
            U = sum(lin)
            cross = np.trace(A @ Pp_cat @ Pp_cat.conj().T).real
            Y = np.linalg.inv(A + (sigma_n2 * tr_c + cross) / (rho * (1.0 - t)) * eye_m) @ U
            if np.linalg.norm(Y) < 1e-12:
                locked = True
                Pc_new, Pp_new = all_private(Pp_new)
            else:
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
                Pc_new = np.sqrt(rho * (1.0 - t_new)) * Pc_n
                Pp_new = np.split(np.sqrt(rho * t_new) * Pp_n, K, axis=1)
        f_new = objective(bundles(Pc_new, Pp_new))
        if f_new > f_cur:
            break
        Pc, Pp, t = Pc_new, Pp_new, t_new
        trace.append(f_new)
        if f_cur - f_new < obj_tol * abs(f_cur):
            break
        f_cur = f_new
    if not locked and t > 1.0 - 1e-4:
        (Pc, Pp), t = all_private(Pp), 1.0
    return trace, iterations, t, Pc, Pp
