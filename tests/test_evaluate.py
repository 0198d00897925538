# Experiment harness tests: pairing, determinism, summaries, serialization.
from __future__ import annotations

import errno
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from oracles import empirical_cdf_sorted
import rsmimo
from rsmimo import channels, evaluate
from rsmimo.baselines import mrt_precoder
from rsmimo.channels import sample_estimation_channel
from rsmimo.evaluate import (
    CSV_COLUMNS,
    SIGMA_N2,
    ExperimentConfig,
    config_fingerprint,
    csv_text,
    empirical_cdf,
    json_summary,
    run_experiment,
    version_string,
)
from rsmimo.rates import instantaneous_rates
from rsmimo.solver import SolverConfig


def small_config(**overrides):
    base = dict(
        M=4,
        N=1,
        K=2,
        snr_db_grid=(10.0,),
        sigma_e2_grid=(0.3,),
        draws=4,
        schemes=("mrt", "rwmmse"),
        seed=5,
        solver=SolverConfig(max_iters=60),
        timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_draw_reproduces_direct_computation():
    cfg = small_config(draws=1, schemes=("mrt",))
    result = run_experiment(cfg)
    assert len(result.records) == 1
    rec = result.records[0]

    ss = np.random.SeedSequence(entropy=5, spawn_key=(0, 0, 0))
    chans = sample_estimation_channel(4, 1, 2, [0.3, 0.3], np.random.default_rng(ss))
    P = mrt_precoder(chans.H_hat, 10.0)
    Rc, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
    assert rec.sum_rate_bits == sum_rate
    assert rec.rc_min_bits == min(Rc) == 0.0
    assert rec.iterations == 0 and rec.t_final == 1.0 and rec.solver_seconds == 0.0

    cell = result.cells[0]
    assert cell.esr_bits == sum_rate and cell.std_err == 0.0 and cell.draws_used == 1


def test_schemes_share_the_same_channel_draw():
    cfg = small_config(draws=2, schemes=("mrt", "rwmmse", "proposed"))
    result = run_experiment(cfg)
    by_key = {(r.scheme, r.draw): r for r in result.records}
    for draw in range(2):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(0, 0, draw))
        chans = sample_estimation_channel(4, 1, 2, [0.3, 0.3], np.random.default_rng(ss))
        from rsmimo.baselines import design_precoders

        for scheme in cfg.schemes:
            P, _, _, _ = design_precoders(scheme, chans.H_hat, chans.sigma_e2, 10.0, SIGMA_N2, cfg.solver)
            _, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
            assert by_key[(scheme, draw)].sum_rate_bits == sum_rate


def test_results_identical_across_worker_counts():
    texts = []
    for workers in (1, 2, 3, 32):  # 32 is capped at one share per item
        result = run_experiment(small_config(draws=5, workers=workers))
        texts.append((csv_text(result), json_summary(result)))
    assert texts[1:] == texts[:1] * 3


def test_fingerprint_excludes_workers_but_keeps_model_fields():
    a = config_fingerprint(small_config(workers=1))
    b = config_fingerprint(small_config(workers=7))
    assert a == b
    assert a["csit"] == "estimation" and a["timing"] is False
    assert a["solver"]["max_iters"] == 60
    assert "workers" not in json.dumps(a)


def test_csv_layout_and_zeroed_timing():
    result = run_experiment(small_config())
    text = csv_text(result)
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# version: ")
    assert lines[2] == ",".join(CSV_COLUMNS)
    rows = lines[3:]
    assert len(rows) == len(result.records) == 4 * 2
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(CSV_COLUMNS)
        assert fields[-1] == "0.000000"  # timing disabled
        if fields[0] == "mrt":
            assert float(fields[5]) == 0.0  # no common stream, no common rate

    payload = json.loads(json_summary(result))
    assert payload["version"] == version_string()
    assert version_string().startswith("0.1.0")
    assert len(payload["cells"]) == len(result.cells)


GIT_ARGV = ["git", "rev-parse", "--show-prefix", "--short", "HEAD"]
PACKAGE_DIR = os.path.dirname(os.path.realpath(evaluate.__file__))


def fake_git(monkeypatch, returncode=0, stdout="src/rsmimo/\nabc1234\n", raises=None):
    """Stand in for subprocess.run: git ends with a return code and output, or run raises.

    Returns the list of (argv, keyword arguments) of the calls.
    """
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        if raises is not None:
            raise raises
        return subprocess.CompletedProcess(argv, returncode, stdout, "")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def test_version_string_falls_back_when_git_hangs(monkeypatch):
    # subprocess.run kills git once its timeout expires and raises TimeoutExpired
    calls = fake_git(monkeypatch, raises=subprocess.TimeoutExpired(GIT_ARGV, 5))
    assert version_string.__wrapped__() == rsmimo.__version__  # past the cache
    assert [kwargs["timeout"] for _, kwargs in calls] == [5]


@pytest.mark.parametrize("git, version", [
    (dict(), rsmimo.__version__ + "+gabc1234"),
    (dict(returncode=128, stdout=""), rsmimo.__version__),  # not in a repository
    (dict(raises=FileNotFoundError("git")), rsmimo.__version__),  # no git to start
    (dict(stdout="venv/site-packages/rsmimo/\nabc1234\n"), rsmimo.__version__),  # a copy in some repository
], ids=["commit", "no-repository", "no-git", "other-repository"])
def test_version_string_adds_the_commit_git_gives(monkeypatch, git, version):
    calls = fake_git(monkeypatch, **git)
    assert version_string.__wrapped__() == version
    assert [(argv, kwargs["cwd"]) for argv, kwargs in calls] == [(GIT_ARGV, PACKAGE_DIR)]


def test_version_lookup_without_git_starts_nothing(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory: no git to be found
    assert version_string.__wrapped__() == rsmimo.__version__
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _git(*args, cwd):
    env = dict(os.environ, GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
    return subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_version_string_is_this_checkouts_commit():
    root = os.path.dirname(os.path.dirname(PACKAGE_DIR))
    try:
        head = _git("rev-parse", "--short", "HEAD", cwd=root).strip()
    except subprocess.CalledProcessError:
        pytest.skip("the package under test is not in a git checkout")
    assert version_string.__wrapped__() == f"{rsmimo.__version__}+g{head}"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_version_string_ignores_the_commit_of_another_repository(tmp_path):
    # a copy of the package in a gitignored virtualenv inside an unrelated
    # project: git answers with the project's commit, which is not this code's
    project = tmp_path / "project"
    site = project / "venv" / "site-packages"
    shutil.copytree(PACKAGE_DIR, site / "rsmimo", ignore=shutil.ignore_patterns("__pycache__"))
    (project / ".gitignore").write_text("venv/\n")
    _git("init", "-q", cwd=project)
    _git("add", ".gitignore", cwd=project)
    _git("-c", "user.name=a", "-c", "user.email=a@b", "commit", "-q", "-m", "init", cwd=project)
    git = _git("rev-parse", "--show-prefix", "--short", "HEAD", cwd=site / "rsmimo")
    assert git.split("\n")[0] == "venv/site-packages/rsmimo/"  # git does answer for the copy
    env = dict(os.environ, PYTHONPATH=str(site), PYTHONDONTWRITEBYTECODE="1")
    code = "from rsmimo.evaluate import version_string; print(version_string())"
    out = subprocess.run([sys.executable, "-c", code], cwd=project, env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == rsmimo.__version__ + "\n"


def test_summary_cells_are_keyed_on_grid_indices():
    # a grid value given twice makes two cells, each summarizing only the
    # draws of its own grid point
    result = run_experiment(
        small_config(snr_db_grid=(10.0, 10.0), sigma_e2_grid=(0.3, 0.3), draws=3, schemes=("mrt",))
    )
    assert len(result.records) == 4 * 3
    assert [c.draws_used for c in result.cells] == [3] * 4
    # every grid point draws its own channels, so the four cell means differ
    assert len({c.esr_bits for c in result.cells}) == 4


def test_summary_cells_match_record_means():
    result = run_experiment(small_config(draws=6))
    for cell in result.cells:
        sel = [r.sum_rate_bits for r in result.records if r.scheme == cell.scheme]
        assert cell.draws_used == 6
        assert cell.esr_bits == pytest.approx(np.mean(sel), abs=1e-12)
        assert cell.std_err == pytest.approx(np.std(sel, ddof=1) / np.sqrt(6), abs=1e-12)


def test_mrt_esr_grows_with_snr():
    cfg = small_config(snr_db_grid=(0.0, 10.0, 20.0), schemes=("mrt",), draws=20)
    result = run_experiment(cfg)
    esr = [c.esr_bits for c in result.cells]
    assert esr[0] < esr[1] < esr[2]


def test_failures_are_recorded_and_excluded(monkeypatch):
    from rsmimo.baselines import design_precoders as real_design

    cases = [
        (dict(draws=51), "mrt", 3, 10.0, 50),  # 102 attempts, 1 failure < 1%
        # 202 attempts, 1 failure, and that is the one draw of the 0 dB rwmmse cell
        (dict(snr_db_grid=tuple(range(101)), draws=1, schemes=("rwmmse", "mrt")), "rwmmse", 0, 0.0, 0),
    ]
    for overrides, failing, attempt, snr_db, draws_used in cases:

        def flaky(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg=SolverConfig()):
            if scheme == failing and flaky.count == attempt:
                flaky.count += 1
                raise RuntimeError("synthetic failure")
            if scheme == failing:
                flaky.count += 1
            return real_design(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg)

        flaky.count = 0
        monkeypatch.setattr("rsmimo.evaluate.design_precoders", flaky)
        result = run_experiment(small_config(**overrides))
        assert len(result.failures) == 1
        assert result.failures[0]["scheme"] == failing and "synthetic" in result.failures[0]["error"]
        cell = next(c for c in result.cells if c.scheme == failing and c.snr_db == snr_db)
        assert cell.draws_used == draws_used and cell.failures == 1
        # a cell without draws has no mean and no spread: null in the JSON,
        # which a strict parser accepts (NaN is not JSON)
        payload = json.loads(json_summary(result), parse_constant=pytest.fail)
        (entry,) = [c for c in payload["cells"] if c["scheme"] == failing and c["snr_db"] == snr_db]
        assert (entry["esr_bits"] is None, entry["std_err"] is None) == (draws_used == 0,) * 2
        # and no mean iteration count or solver time either; boundary_hits stays a count
        means = (entry["mean_iterations"], entry["mean_solver_seconds"])
        assert tuple(v is None for v in means) == (draws_used == 0,) * 2
        assert type(entry["boundary_hits"]) is int


def test_failure_rate_above_threshold_aborts(monkeypatch):
    def broken(scheme, *args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", broken)
    with pytest.raises(RuntimeError, match="1% threshold"):
        run_experiment(small_config(draws=4))


def test_quantized_mode_records_effective_variance():
    cfg = small_config(
        M=4, N=1, K=2, csit="quantized", bits=3, sigma_e2_grid=(), draws=3, schemes=("mrt",)
    )
    result = run_experiment(cfg)
    assert len(result.records) == 3
    for r in result.records:
        assert 0.0 <= r.sigma_e2 < 1.0
    for c in result.cells:
        assert c.sigma_e2 is None and c.draws_used == 3
    fp = config_fingerprint(cfg)
    assert fp["csit"] == "quantized" and fp["bits"] == 3


@pytest.mark.parametrize(
    "overrides",
    [
        dict(draws=0),
        dict(snr_db_grid=()),
        dict(snr_db_grid=(float("nan"),)),
        dict(sigma_e2_grid=()),
        dict(schemes=()),
        dict(schemes=("rbd",)),  # unknown scheme
        dict(schemes=("zf",)),
        dict(csit="genie"),
        dict(csit="quantized", bits=0),
        dict(workers=0),
        dict(schemes=("proposed", "mrt", "proposed")),  # a scheme named twice
        dict(draws=2.0),  # integer fields must be integers
        dict(seed=1.5),
        dict(csit="quantized", bits=2.5),
        dict(M=4.0),
        dict(workers="2"),
        dict(snr_db_grid=(10.0, 4000.0)),  # 10^(snr_db/10) overflows
        dict(snr_db_grid=(-4000.0,)),  # ... or underflows to 0
        dict(csit="quantized", bits=channels.MAX_CODEBOOK_BITS + 1),  # before any work item runs
        dict(seed=-1),  # the seeds, dimensions and counts too
        dict(M=1),  # M = N
        dict(M=4, N=5),
        dict(N=0),
        dict(K=0),
        dict(draws=True),  # a bool is not a count
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_integer_fields_are_named_when_rejected_and_coerced_when_accepted():
    for name, value in (("draws", 2.0), ("seed", 1.5), ("bits", 2.5), ("K", None), ("draws", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})
    for value in (2.5, True):  # a bool is not a count
        with pytest.raises(ValueError, match=f"max_iters must be an integer, got {value!r}"):
            SolverConfig(max_iters=value)
    with pytest.raises(ValueError, match="SNR 4000 dB"):
        small_config(snr_db_grid=(4000.0,))
    cfg = small_config(draws=np.int64(1), seed=np.int64(5), solver=SolverConfig(max_iters=np.int64(60)))
    assert type(cfg.draws) is int and type(cfg.solver.max_iters) is int
    assert csv_text(run_experiment(cfg)) == csv_text(run_experiment(small_config(draws=1)))


def test_pool_is_no_larger_than_the_grid(monkeypatch):
    # a run forks one child per share beyond this process's own, and no more
    # shares than work items; a one-item grid runs in-process
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    one_item = small_config(draws=1, schemes=("mrt",))
    texts = [csv_text(run_experiment(replace(one_item, workers=w))) for w in (1, 32)]
    assert forks == [] and texts[0] == texts[1]
    four_items = small_config(draws=4, schemes=("mrt",))
    for workers, children in ((2, 1), (3, 2), (32, 3)):
        forks.clear()
        assert csv_text(run_experiment(replace(four_items, workers=workers))) == csv_text(run_experiment(four_items))
        assert forks == [os.getpid()] * children
    _assert_no_children()


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that is still running after 60 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the run did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _plant_failures(monkeypatch, draws):
    """Make draw_channels raise a ValueError on the given draws, in whichever process runs them."""
    real = evaluate.draw_channels

    def planted(cfg, sigma_idx, snr_idx, draw):
        if draw in draws:
            raise ValueError("planted failure")
        return real(cfg, sigma_idx, snr_idx, draw)

    monkeypatch.setattr(evaluate, "draw_channels", planted)


@pytest.mark.parametrize("workers, failing", [
    (2, {1, 2}),  # earliest in the child's share (items 1, 3), a later one in this process's (0, 2)
    (2, {0, 3}),  # earliest in this process's share
    (3, {4, 5}),  # the second items of shares 1 and 2
    (3, {2, 3}),  # the last share fails before this process's second item does
], ids=["child-first", "parent-first", "second-items", "last-share-first"])
def test_a_child_failure_reraises_the_earliest_failing_item(monkeypatch, deadline, workers, failing):
    _plant_failures(monkeypatch, failing)
    cfg = small_config(draws=6, schemes=("mrt",))
    with pytest.raises(ValueError) as serial:
        run_experiment(cfg)
    with pytest.raises(ValueError) as forked:
        run_experiment(replace(cfg, workers=workers))
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == f"sigma_e2=0.3, snr_db=10.0, draw={min(failing)}: planted failure"
    _assert_no_children()


def test_a_killed_child_is_named_not_waited_for(monkeypatch, deadline):
    real, parent = evaluate.draw_channels, os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(evaluate, "draw_channels", dying)
    with pytest.raises(evaluate.WorkerDied, match=r"^worker of share 1 of 2 \(pid \d+\) was killed by signal 9 "):
        run_experiment(small_config(draws=4, schemes=("mrt",), workers=2))
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="the planted item waits for the death with os.waitid")
def test_a_dead_child_ends_the_run_before_this_process_designs_another_item(monkeypatch, deadline):
    # share 1's child dies on its first item, and this process's first item
    # returns only once that child is dead (not yet reaped): the run must
    # stop before this process starts its second item
    real_draw, real_fork, parent = evaluate._run_draw, evaluate._fork_share, os.getpid()
    pids, designed = [], []

    def forking(share):
        pid, pipe = real_fork(share)
        pids.append(pid)
        return pid, pipe

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        designed.append(args[-1])
        return real_draw(*args)

    monkeypatch.setattr(evaluate, "_fork_share", forking)
    monkeypatch.setattr(evaluate, "_run_draw", dying)
    with pytest.raises(evaluate.WorkerDied, match=r"^worker of share 1 of 2 \(pid \d+\) was killed by signal 9 "):
        run_experiment(small_config(draws=6, schemes=("mrt",), workers=2))
    assert designed == [0]
    _assert_no_children()


def test_a_share_larger_than_the_pipe_buffer_completes(deadline):
    # each share pickles to more than the 64 KB a pipe holds, so a child can
    # finish only once this process has started reading its pipe
    cfg = small_config(snr_db_grid=(0.0, 10.0), draws=800, schemes=("mrt",))
    serial = run_experiment(cfg)
    assert len(pickle.dumps(serial.records[1::2])) > 65536
    forked = run_experiment(replace(cfg, workers=2))
    assert csv_text(forked) == csv_text(serial) and json_summary(forked) == json_summary(serial)
    _assert_no_children()


def test_a_failed_fork_raises_and_leaves_no_child_and_no_pipe(monkeypatch, deadline):
    # the first fork succeeds and the second finds no process to be had: the
    # run raises that OSError, after killing and reaping the first child and
    # closing both shares' pipes
    real_fork, forked = os.fork, []

    def fork_once():
        if forked:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        forked.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(OSError) as failure:
        run_experiment(small_config(draws=6, schemes=("mrt",), workers=3))
    assert failure.value.errno == errno.EAGAIN and forked == [True]
    _assert_no_children()
    assert len(os.listdir("/proc/self/fd")) == len(fds)


def test_workers_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="workers=2 needs os.fork"):
        small_config(workers=2)
    assert small_config(workers=1).workers == 1


def test_empirical_cdf_matches_sort_count_oracle():
    rng = np.random.default_rng(50)
    samples = rng.normal(size=400)
    cdf = empirical_cdf(samples)
    queries = np.concatenate([rng.normal(size=500), samples[:50]])
    for x in queries:
        assert cdf(float(x)) == pytest.approx(empirical_cdf_sorted(samples, float(x)), abs=1e-15)
    assert cdf(float(np.min(samples)) - 1.0) == 0.0
    assert cdf(float(np.max(samples))) == 1.0
    # vectorized evaluation with monotone, step-1/n output
    xs = np.sort(rng.normal(size=200))
    vals = cdf(xs)
    assert vals.shape == xs.shape
    assert np.all(np.diff(vals) >= 0.0)
    steps = np.unique(np.diff(np.unique(vals)))
    assert np.all(steps >= 1.0 / 400 - 1e-15)


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_all_private_twins_are_designed_once_with_separate_design_rows(monkeypatch):
    # rho * sigma_e2 <= 1 at 0 and 10 dB, so proposed starts all-private and
    # equals rwmmse there; 30 dB designs both schemes
    from rsmimo.baselines import design_precoders as real_design

    calls = []

    def counting(scheme, H_hat, sigma_e2, rho, *args):
        calls.append((scheme, round(rho)))
        return real_design(scheme, H_hat, sigma_e2, rho, *args)

    def rows(schemes):
        cfg = small_config(N=2, snr_db_grid=(0.0, 10.0, 30.0), sigma_e2_grid=(0.1,), draws=3,
                           schemes=schemes, solver=SolverConfig())
        return [ln for ln in csv_text(run_experiment(cfg)).splitlines() if not ln.startswith("#")]

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", counting)
    together = rows(("mrt", "rwmmse", "proposed"))
    assert sorted(set(calls)) == [("mrt", 1), ("mrt", 10), ("mrt", 1000),
                                  ("proposed", 1000), ("rwmmse", 1), ("rwmmse", 10), ("rwmmse", 1000)]
    assert len(calls) == 3 * 7
    for scheme in ("mrt", "rwmmse", "proposed"):
        alone = rows((scheme,))
        assert alone[0] == together[0]
        assert alone[1:] == [ln for ln in together[1:] if ln.startswith(scheme + ",")]


def test_a_failed_twin_design_fails_both_schemes(monkeypatch):
    def broken(scheme, *args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", broken)
    cfg = small_config(draws=1, snr_db_grid=(0.0,), schemes=("proposed", "rwmmse"))
    records, failures = evaluate._run_draw(cfg, 0, 0, 0)
    assert records == [] and [f["scheme"] for f in failures] == ["proposed", "rwmmse"]
    assert failures[0] == {**failures[1], "scheme": "proposed"}


def _plant_rank_deficiency(monkeypatch, scale):
    """Make draw 1 of every grid point nearly rank deficient for one user.

    In estimation mode one estimate column of that user gets norm `scale`; in
    quantized mode the user's true channel gets smallest singular value
    `scale` and is requantized with fresh 4-bit codebooks. Returns the lists
    that collect every designed PrecoderSet and the planted user's smallest
    column norm (estimation) or singular value (quantized) per planted draw.
    """
    draw_channels, design = evaluate.draw_channels, evaluate.design_precoders
    designs, planted_sizes = [], []

    def planted(cfg, sigma_idx, snr_idx, draw):
        chans, rho = draw_channels(cfg, sigma_idx, snr_idx, draw)
        if draw != 1:
            return chans, rho
        k = snr_idx % cfg.K
        if cfg.csit == "estimation":
            H_hat = [h.copy() for h in chans.H_hat]
            H_hat[k][:, -1] *= scale / np.linalg.norm(H_hat[k][:, -1])
            planted_sizes.append(np.linalg.norm(H_hat[k], axis=0).min())
            return replace(chans, H=[h + e for h, e in zip(H_hat, chans.E)], H_hat=H_hat), rho
        H = list(chans.H)
        u, s, vh = np.linalg.svd(H[k], full_matrices=False)
        H[k] = (u * np.append(s[:-1], scale)) @ vh
        planted_sizes.append(np.linalg.svd(H[k], compute_uv=False)[-1])
        rng = np.random.default_rng(snr_idx)
        books = [channels.random_codebook(cfg.M, cfg.N, 4, rng) for _ in range(cfg.K)]
        return channels.quantized_csit_from_channels(H, books)[0], rho

    def recording(*args):
        out = design(*args)
        designs.append(out[0])
        return out

    monkeypatch.setattr(evaluate, "draw_channels", planted)
    monkeypatch.setattr(evaluate, "design_precoders", recording)
    return designs, planted_sizes


RANK_GRID = dict(M=6, N=2, K=3, snr_db_grid=(0.0, 20.0, 60.0), draws=2,
                 schemes=("proposed", "rwmmse", "mrt"), solver=SolverConfig(), seed=9)


@pytest.mark.parametrize("csit", ["estimation", "quantized"])
@pytest.mark.parametrize("scale", [1e-11, 1e-10, 1e-8, 1e-6])
def test_nearly_rank_deficient_draws_are_designed_and_scored(monkeypatch, csit, scale):
    # just above the 1e-12 guards, where the Cholesky factorizations of the
    # MSE bundles would be the first to break: every draw is still designed,
    # scored and written, with nothing non-finite and nothing dropped
    designs, planted_sizes = _plant_rank_deficiency(monkeypatch, scale)
    cfg = small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.0, 0.1))
    result = run_experiment(cfg)
    cells = len(cfg.snr_db_grid) * (len(cfg.sigma_e2_grid) if csit == "estimation" else 1)
    assert len(planted_sizes) == cells
    np.testing.assert_allclose(planted_sizes, scale, rtol=1e-3)
    assert result.failures == []
    assert len(result.records) == cells * cfg.draws * len(cfg.schemes)
    assert all(c.draws_used == cfg.draws and c.failures == 0 for c in result.cells)
    assert all(np.all(np.isfinite(P.full())) for P in designs)
    assert all(np.isfinite([r.sum_rate_bits, r.rc_min_bits, r.t_final]).all() for r in result.records)
    text = csv_text(result).lower()
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("csit, message", [
    ("estimation", r"user [0-2]: channel estimate column 1 has norm 1e-13 < 1e-12"),
    ("quantized", r"user [0-2]: channel is numerically rank deficient: smallest singular value .* < 1e-12"),
], ids=["estimation", "quantized"])
def test_rank_deficient_draw_below_the_guard_stops_the_run_naming_it(monkeypatch, csit, message):
    _plant_rank_deficiency(monkeypatch, 1e-13)
    with pytest.raises(ValueError, match=message):
        run_experiment(small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.1,)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("csit, item", [
    ("estimation", "sigma_e2=0.1, snr_db=0.0, draw=1, scheme=proposed: user 0: "),
    ("quantized", "quantized 4 bits, snr_db=0.0, draw=1: user 0: "),
], ids=["estimation", "quantized"])
def test_a_draw_below_the_guard_is_named_by_its_grid_point(monkeypatch, csit, item, workers):
    # the first planted item in grid order stops the run, from a pool worker too
    # (which inherits the planted draw_channels by forking)
    _plant_rank_deficiency(monkeypatch, 1e-13)
    cfg = small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.1,), workers=workers)
    with pytest.raises(ValueError) as info:
        run_experiment(cfg)
    assert str(info.value).startswith(item)
