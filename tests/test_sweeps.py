"""The batched property sweeps against per-trial oracles, and the stack
checks that must still fire inside them."""

import importlib
import json

import numpy as np
import pytest

from ctcsim import cli, sampling
from ctcsim.cloning import no_ctc_baseline
from ctcsim.fidelity import check_monotonicity, check_multiplicativity, fidelity
from ctcsim.quantum import Alphabet, DensityMatrix, PureState

TRIALS = cli.CHUNK_TRIALS + 4  # more than one stack at dims 2 and 3


def fidelity_oracle(rng, trials, dim):
    """The per-trial loop of the fidelity-props sweep, one public call each."""
    rows = []
    for t in range(trials):
        a, b, c, d = (sampling.random_density(rng, dim) for _ in range(4))
        mult = check_multiplicativity(a, c, b, d)
        big_a = sampling.random_density(rng, dim * dim)
        big_b = sampling.random_density(rng, dim * dim)
        mono = check_monotonicity(big_a, big_b, (dim, dim), {1})
        sym = abs(fidelity(a, b) - fidelity(b, a))
        u = sampling.haar_unitary(rng, dim).mat
        rot_a = DensityMatrix(u @ a.mat @ u.conj().T)
        rot_b = DensityMatrix._trusted(u @ b.mat @ u.conj().T, factor=u @ b.factor)
        inv = abs(fidelity(rot_a, rot_b) - fidelity(a, b))
        rows.append({"trial": t, "multiplicativity": mult, "monotonicity": mono,
                     "symmetry": sym, "unitary_invariance": inv})
    return rows


def baseline_oracle(rng, trials, dim):
    """The per-trial loop of the no-cloning-baseline sweep."""
    zero = PureState.basis(dim, 0)
    plus = PureState.normalized([1, 1] + [0] * (dim - 2))
    alphabet = Alphabet.padded([zero, plus], dim)
    ancilla = PureState.basis(dim, 0).density()
    return [{"trial": t, "worst_pair_infidelity": no_ctc_baseline(
        alphabet, sampling.haar_unitary(rng, dim**3), ancilla)}
        for t in range(trials)]


def sweep_report(kind, trials, dim, seed, capsys):
    argv = ["sweep", kind, "--trials", str(trials), "--dim", str(dim),
            "--seed", str(seed)]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_batched_fidelity_sweep_equals_oracle(dim, seed, capsys):
    report = sweep_report("fidelity-props", TRIALS, dim, seed, capsys)
    rows = fidelity_oracle(np.random.default_rng(seed), TRIALS, dim)
    assert report["per_trial"] == rows
    assert report["summary"] == {
        "multiplicativity": max(r["multiplicativity"] for r in rows),
        "monotonicity": min(r["monotonicity"] for r in rows),
        "symmetry": max(r["symmetry"] for r in rows),
        "unitary_invariance": max(r["unitary_invariance"] for r in rows),
    }


def test_fidelity_sweep_factors_no_state(eig_calls, capsys):
    # every fidelity is taken against a factor of a draw, so nothing is
    # eigendecomposed but the draw checks and the sandwiches, none of them
    # wider than the largest state
    sweep_report("fidelity-props", TRIALS, 2, 0, capsys)
    assert [name for name, _ in eig_calls if name == "eigh"] == []
    assert max(m.shape[-1] for _, m in eig_calls) == 4


def test_fidelity_sweep_takes_each_fidelity_once(eig_calls, monkeypatch, capsys):
    # a chunk of 40 trials checks its six draws as one stack per matrix side
    # and takes its seven distinct fidelities, F(a, b) among them once, as
    # one call per side: one eigvalsh each
    sandwiches, real = [], cli.factor_fidelities

    def recorded(rho, w):
        sandwiches.append(rho.shape)
        return real(rho, w)

    # the package exports the function fidelity under the module's name
    for module in (cli, importlib.import_module("ctcsim.fidelity")):
        monkeypatch.setattr(module, "factor_fidelities", recorded)
    sweep_report("fidelity-props", 40, 2, 0, capsys)
    assert sandwiches == [(40, 5, 2, 2), (40, 2, 4, 4)]
    assert [(name, m.shape) for name, m in eig_calls] == [
        ("eigvalsh", (40, 4, 2, 2)), ("eigvalsh", (40, 2, 4, 4)),
        ("eigvalsh", (40, 5, 2, 2)), ("eigvalsh", (40, 2, 4, 4))]


def test_baseline_sweep_eigendecomposes_nothing(eig_calls, capsys):
    # every pair fidelity is the 1 x 1 sandwich of a ket
    sweep_report("no-cloning-baseline", 40, 2, 0, capsys)
    assert eig_calls == []


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_batched_baseline_sweep_equals_oracle(dim, seed, capsys):
    report = sweep_report("no-cloning-baseline", TRIALS, dim, seed, capsys)
    rows = baseline_oracle(np.random.default_rng(seed), TRIALS, dim)
    assert report["per_trial"] == rows
    assert report["summary"] == {
        "min_infidelity": min(r["worst_pair_infidelity"] for r in rows)}


def corrupt_last_stack(monkeypatch, name, index, bad):
    """Replace entry ``index`` of the last, partial stack of trials that
    ``sampling.<name>`` returns with ``bad(side)``."""
    original = getattr(sampling, name)

    def patched(z):
        out = original(z)
        if out.shape[0] < cli.CHUNK_TRIALS:
            out[index] = bad(out.shape[-1])
        return out

    monkeypatch.setattr(sampling, name, patched)


def assert_trial_error(argv, trial, text, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: trial {trial}: {text}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["fidelity-props", "no-cloning-baseline"])
def test_non_unitary_haar_member_is_named(kind, monkeypatch, capsys):
    corrupt_last_stack(monkeypatch, "haar_from_ginibre", 5, lambda n: 1.1 * np.eye(n))
    assert_trial_error(["sweep", kind, "--trials", "20"], 5, "not unitary", capsys)


@pytest.mark.parametrize("kind", ["fixed-points", "no-cloning-baseline"])
def test_non_unitary_haar_member_past_the_first_chunk_is_named(kind, monkeypatch,
                                                               capsys):
    corrupt_last_stack(monkeypatch, "haar_from_ginibre", 3, lambda n: 1.1 * np.eye(n))
    argv = ["sweep", kind, "--trials", str(cli.CHUNK_TRIALS + 20)]
    assert_trial_error(argv, cli.CHUNK_TRIALS + 3, "not unitary", capsys)


def test_non_psd_density_member_is_named(monkeypatch, capsys):
    corrupt_last_stack(monkeypatch, "density_from_ginibre", 10,
                       lambda n: np.diag([1.5, -0.5] + [0.0] * (n - 2)))
    argv = ["sweep", "fidelity-props", "--trials", str(cli.CHUNK_TRIALS + 20)]
    assert_trial_error(argv, cli.CHUNK_TRIALS + 10, "not PSD", capsys)


def corrupt_draws(monkeypatch, side, bad_draws):
    """Replace draws of the last, partial stack of density matrices of
    ``side`` that ``sampling.density_from_ginibre`` returns: ``bad_draws``
    maps (trial, draw) to a matrix of that side."""
    original = sampling.density_from_ginibre

    def patched(z):
        out = original(z)
        if out.shape[0] < cli.CHUNK_TRIALS and out.shape[-1] == side:
            for (trial, draw), bad in bad_draws.items():
                out[trial, draw] = bad
        return out

    monkeypatch.setattr(sampling, "density_from_ginibre", patched)


NON_PSD = np.diag([1.5, -0.5]).astype(complex)
NON_HERMITIAN = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)


def test_earliest_trial_of_a_stacked_check_is_named(monkeypatch, capsys):
    # the four dim x dim draws are one stack, trial-major: draw c of trial 3
    # fails before draw d of trial 3 and draw a of trial 7, though a is
    # drawn first
    corrupt_draws(monkeypatch, 2, {(3, 2): NON_PSD, (3, 3): NON_HERMITIAN,
                                   (7, 0): NON_HERMITIAN})
    assert_trial_error(["sweep", "fidelity-props", "--trials", "20"], 3, "not PSD", capsys)


def test_big_draw_past_the_first_chunk_is_named(monkeypatch, capsys):
    # draw big_b of trial CHUNK_TRIALS + 6, in the dim^2 x dim^2 stack
    corrupt_draws(monkeypatch, 4, {(6, 1): np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)})
    argv = ["sweep", "fidelity-props", "--trials", str(cli.CHUNK_TRIALS + 20)]
    assert_trial_error(argv, cli.CHUNK_TRIALS + 6, "not PSD", capsys)


def test_earliest_trial_over_both_sides_is_named(monkeypatch, capsys):
    # the dim x dim stack is checked first, but its failing trial is later
    corrupt_draws(monkeypatch, 2, {(8, 0): NON_HERMITIAN})
    corrupt_draws(monkeypatch, 4, {(4, 1): np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)})
    assert_trial_error(["sweep", "fidelity-props", "--trials", "20"], 4, "not PSD", capsys)


@pytest.mark.parametrize("side", [2, 4])
def test_stacked_fidelity_failure_names_the_trial(side, monkeypatch, capsys):
    # let a non-PSD draw past the draw checks, so the sandwich check of the
    # stacked fidelities of its side is the one that must name its trial
    monkeypatch.setattr(cli, "check_density", lambda m: None)
    bad = np.diag([1.5] + [0.0] * (side - 2) + [-0.5]).astype(complex)
    corrupt_draws(monkeypatch, side, {(9, 0): bad, (9, 1): bad})
    assert_trial_error(["sweep", "fidelity-props", "--trials", "20"], 9,
                       "sandwiched operator not PSD", capsys)


def fixed_points_oracle(rng, trials, dim):
    """The per-trial loop of the fixed-points sweep, one public solve each."""
    from ctcsim.engine import DeutschProblem, solve_fixed_point
    from ctcsim.quantum import Layout

    layout = Layout((("CR", dim), ("CTC", dim)), ctc_index=1)
    rows = []
    for t in range(trials):
        u = sampling.haar_unitary(rng, dim * dim)
        cr = sampling.random_density(rng, dim)
        fp = solve_fixed_point(DeutschProblem(layout, u, cr))
        rows.append({"trial": t, "residual": fp.residual,
                     "multiplicity": fp.multiplicity})
    return rows


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_fixed_points_sweep_equals_oracle(dim, seed, capsys):
    report = sweep_report("fixed-points", TRIALS, dim, seed, capsys)
    rows = fixed_points_oracle(np.random.default_rng(seed), TRIALS, dim)
    assert report["per_trial"] == rows
    assert report["summary"] == {"residual": max(r["residual"] for r in rows)}
    assert report["ok"] is True


def test_kraus_check_failure_names_the_trial(monkeypatch, capsys):
    # let a non-unitary Haar member past the sweep's unitarity check, so the
    # engine's sum K^dag K check is the one that must name it
    monkeypatch.setattr(cli, "check_unitary", lambda m: None)
    corrupt_last_stack(monkeypatch, "haar_from_ginibre", 5, lambda n: 1.1 * np.eye(n))
    assert_trial_error(["sweep", "fixed-points", "--trials", "20"], 5,
                       "induced map is not trace preserving", capsys)


def test_kraus_check_failure_past_the_first_chunk_names_the_trial(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_unitary", lambda m: None)
    corrupt_last_stack(monkeypatch, "haar_from_ginibre", 3, lambda n: 1.1 * np.eye(n))
    argv = ["sweep", "fixed-points", "--trials", str(cli.CHUNK_TRIALS + 20)]
    assert_trial_error(argv, cli.CHUNK_TRIALS + 3,
                       "induced map is not trace preserving", capsys)
