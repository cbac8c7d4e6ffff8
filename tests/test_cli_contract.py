"""The CLI contract under seeded fault injection (``cli_fuzz``): mutated
circuits, matrix files, an alphabet file and option values never let an
exception escape, exit only with 0-3, fail with their one-line messages and
succeed with strict JSON. ``tools/fuzz_cli.py`` runs longer seeds."""

import pytest

from cli_fuzz import contract_breaches, fuzz, run_case

CASES = 100  # per seed: about 0.25 s


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mutated_inputs_keep_the_cli_contract(seed, tmp_path):
    assert fuzz(seed, CASES, tmp_path) == []


def test_the_guard_sees_each_breach(tmp_path):
    # each rule of the contract fails a made-up outcome that breaks it
    report = tmp_path / "report.json"
    run = ["run", "c.ctc"]
    assert contract_breaches(run, (KeyError("x"), "", "", []), report)
    assert contract_breaches(run, (4, "", "error: x\n", []), report)
    assert contract_breaches(run, (2, "", "error: x\nerror: y\n", []), report)
    assert contract_breaches(run, (3, "", "", []), report)
    assert contract_breaches(run, (1, "", "Traceback\n", []), report)
    assert contract_breaches(run, (1, "", "other.ctc:line 1, column 2: x\n", []), report)
    assert contract_breaches(run, (0, "", "", ["overflow"]), report)
    assert contract_breaches(run, (0, "", "", []), report)  # no report
    report.write_text('{"x": NaN}')
    assert contract_breaches(run, (0, "", "", []), report)
    report.write_text('{"x": 1.0}')
    assert contract_breaches(run, (0, "", "", []), report) == []
    assert contract_breaches(run, (1, "", "c.ctc:line 1, column 2: x\nerror: y\n", []),
                             report) == []
    demo = ["demo", "clone-pure"]
    assert contract_breaches(demo, (2, "FAIL demo clone-pure\n", "", []), report) == []
    assert contract_breaches(demo, (2, "PASS demo clone-pure\n", "", []), report)


def test_an_escaping_error_is_caught_as_a_breach(tmp_path):
    # a SystemExit from argparse is outside the values the guard draws, but
    # run_case still reports it rather than ending the run
    argv = ["run", str(tmp_path / "c.ctc"), "--no-such-flag"]
    outcome = run_case(argv)
    assert isinstance(outcome[0], SystemExit)
    assert contract_breaches(argv, outcome, tmp_path / "report.json")
