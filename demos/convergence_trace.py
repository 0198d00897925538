# Objective traces of the alternating solver on a handful of random instances.
#
# The trace is the design objective in nats after each accepted sweep; it is
# non-increasing by construction and typically settles within a few tens of
# sweeps at the default tolerance. The sweep count includes the stabilizing
# sweeps of the solver's SQUAREM cycles.
import numpy as np

from rsmimo.channels import sample_estimation_channel
from rsmimo.solver import SolverConfig, run

SNR_DB = 20.0
SIGMA_E2 = 0.1
RUNS = 5


def main():
    rho = 10.0 ** (SNR_DB / 10.0)
    cfg = SolverConfig(max_iters=100, obj_tol=1e-4)
    print(f"M=8 N=2 K=4 at {SNR_DB:.0f} dB, sigma_e2={SIGMA_E2}")
    all_iters = []
    for seed in range(RUNS):
        rng = np.random.default_rng(100 + seed)
        chans = sample_estimation_channel(8, 2, 4, [SIGMA_E2] * 4, rng)
        st = run(chans.H_hat, chans.sigma_e2, rho, 1.0, cfg)
        tr = st.objective_trace
        drop = tr[0] - tr[-1]
        all_iters.append(st.iterations)
        print(
            f"run {seed}: {st.iterations:3d} sweeps ({st.termination}), objective {tr[0]:.4f} -> "
            f"{tr[-1]:.4f} nats (drop {drop:.4f}), final split t={st.t:.3f}"
        )
        # print every fifth point of the trace so the shape is visible
        marks = tr[::5] + ([] if (len(tr) - 1) % 5 == 0 else [tr[-1]])
        print("   trace: " + " ".join(f"{v:.3f}" for v in marks))
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
    print(f"median iterations: {np.median(all_iters):.0f}")


if __name__ == "__main__":
    main()
