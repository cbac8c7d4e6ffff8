"""The batched property sweeps against per-trial oracles, and the stack
checks that must still fire inside them."""

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
        rot_b = DensityMatrix(u @ b.mat @ u.conj().T)
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


def test_non_psd_density_member_is_named(monkeypatch, capsys):
    corrupt_last_stack(monkeypatch, "density_from_ginibre", 10,
                       lambda n: np.diag([1.5, -0.5] + [0.0] * (n - 2)))
    argv = ["sweep", "fidelity-props", "--trials", str(cli.CHUNK_TRIALS + 20)]
    assert_trial_error(argv, cli.CHUNK_TRIALS + 10, "not PSD", capsys)
