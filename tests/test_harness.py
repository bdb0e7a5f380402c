"""Harness determinism, generators, suites, hunts, failure records."""

import json
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specpoly.harness as harness
import specpoly.roots as roots_module
from specpoly import from_roots, multiplier_apply, random_hyperbolic, serialize
from specpoly.errors import (ConfigError, InfeasibleGap, NotRealRooted,
                             UnknownSuite)
from specpoly.harness import (HUNTS, SUITES, ExperimentConfig,
                              hunt_counterexamples, inputs_from_json,
                              inputs_to_json, recheck_failure, run_suite,
                              trial_rng)
from specpoly.roots import is_real_rooted


def test_random_hyperbolic_gaps_and_bounds():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        p = random_hyperbolic(rng, n, bound=10, min_gap=Fraction(1, 2))
        assert all(-10 <= r <= 10 for r in p.roots)
        assert all(p.roots[i + 1] - p.roots[i] >= Fraction(1, 2)
                   for i in range(n - 1))


def test_random_hyperbolic_reproducible():
    a = random_hyperbolic(random.Random(5), 6, bound=10, min_gap=Fraction(1, 4))
    b = random_hyperbolic(random.Random(5), 6, bound=10, min_gap=Fraction(1, 4))
    assert a.roots == b.roots


def test_random_hyperbolic_infeasible_gap():
    with pytest.raises(InfeasibleGap):
        random_hyperbolic(random.Random(0), 8, bound=1, min_gap=1)
    with pytest.raises(InfeasibleGap):
        random_hyperbolic(random.Random(0), 4, bound=1, min_gap=1, mode="float")


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_random_hyperbolic_at_the_feasibility_boundary(mode):
    # n roots with gaps >= min_gap fit in [-bound, bound] exactly when
    # (n - 1) * min_gap <= 2 * bound
    p = random_hyperbolic(random.Random(0), 3, bound=1, min_gap=1, mode=mode)
    assert p.roots == (-1, 0, 1)
    for seed in range(20):
        q = random_hyperbolic(random.Random(seed), 1, bound=1, min_gap=3,
                              mode=mode)
        assert q.degree == 1 and -1 <= q.roots[0] <= 1


def test_trial_rng_streams_are_independent():
    a = trial_rng(1, 0).random()
    b = trial_rng(1, 1).random()
    c = trial_rng(1, 0).random()
    assert a == c and a != b


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite(ExperimentConfig(suite="nope"))


def test_zero_trials_pass():
    report = run_suite(ExperimentConfig(suite="main1", trials=0))
    assert report.passed and report.trials == 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_clean_smoke(suite):
    report = run_suite(ExperimentConfig(suite=suite, trials=10, seed=2))
    assert report.passed, report.failures[:1]


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    run_suite(ExperimentConfig(suite="iso", trials=6, seed=9, out=str(out1)))
    run_suite(ExperimentConfig(suite="iso", trials=6, seed=9, out=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_report_file_is_json_lines(tmp_path):
    out = tmp_path / "r.jsonl"
    run_suite(ExperimentConfig(suite="deriv", trials=4, seed=1, out=str(out)))
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["suite"] == "deriv" and summary["passed"] is True
    assert "wall_time" not in summary
    assert summary["info"] == {}


def test_failure_records_are_self_contained():
    # feed a deliberately broken input through a suite checker: the record
    # must reproduce through recheck_failure without any ambient state
    _, check = SUITES["iso"]
    bad_inputs = {
        "p": {"mode": "rational", "roots": ["0", "4"]},
        "q": {"mode": "rational", "roots": ["-2", "2"]},   # not majorized by p
        "phi": {"c": 1, "m": 0, "a": 0, "b": 0, "alphas": []},
        "rel_tol": 1e-7,
    }
    ok, slack, details = check(inputs_from_json(bad_inputs))
    assert not ok and "certificate" in details
    record = {"suite": "iso", "trial": 0, "inputs": bad_inputs,
              "details": details}
    assert recheck_failure(record)
    assert json.loads(json.dumps(record))  # fully serializable


def test_deform_record_with_s_not_below_t_raises():
    # the deform check's precondition s <= t is checked explicitly, so a
    # hand-written record that breaks it is refused under python -O too
    record = {"suite": "deform", "trial": 0, "details": {}, "inputs": {
        "p": {"mode": "rational", "roots": ["-1", "1", "3"]},
        "phi": {"c": 1, "m": 0, "a": "1/2", "b": 0, "alphas": ["1/2"]},
        "s": ["1", "1/2"], "t": ["1/2", "1/2"], "rel_tol": 1e-7}}
    with pytest.raises(ConfigError):
        recheck_failure(record)


@pytest.mark.parametrize("name", sorted({**SUITES, **HUNTS}))
def test_replayed_inputs_give_the_same_check_result(name):
    # a failure record's inputs are written only when a trial fails, so
    # the replay must see what the trial saw: the same verdict, margin
    # and details from the typed inputs and from their JSON round trip
    generate, check = {**SUITES, **HUNTS}[name]
    for mode in ("rational", "float"):
        for seed in (0, 1):
            for degree in range(2, 9):
                cfg = ExperimentConfig(suite=name, seed=seed, mode=mode,
                                       degree_min=degree, degree_max=degree)
                inputs = generate(cfg, trial_rng(seed, 0))
                wire = inputs_to_json(inputs)
                assert json.loads(json.dumps(wire)) == wire
                replayed = inputs_from_json(wire)
                assert inputs_to_json(replayed) == wire
                assert check(replayed) == check(inputs), (mode, seed, degree)


def test_failing_trial_records_its_inputs_in_json(monkeypatch):
    # the trial loop writes JSON only for a failure; pb1's xp-prime gammas
    # are ints, and the record writes them as strings
    generate, _ = HUNTS["pb1"]
    monkeypatch.setitem(HUNTS, "pb1",
                        (generate, lambda inputs: (False, -1.0, {})))
    cfg = ExperimentConfig(suite="pb1", trials=2, seed=3,
                           params={"family": "xp-prime"})
    report = hunt_counterexamples("pb1", cfg)
    assert [rec["trial"] for rec in report.failures] == [0, 1]
    for rec in report.failures:
        gammas = rec["inputs"]["gammas"]
        assert gammas == [str(k) for k in range(len(gammas))]
        assert rec["inputs"] == inputs_to_json(
            generate(cfg, trial_rng(3, rec["trial"])))


_ISO_INPUTS = {"p": {"mode": "rational", "roots": ["0", "4"]},
               "q": {"mode": "rational", "roots": ["-2", "2"]},
               "phi": {"c": 1, "m": 0, "a": 0, "b": 0, "alphas": []},
               "rel_tol": 1e-7}
_DEFORM_INPUTS = {"p": {"mode": "rational", "roots": ["-1", "1", "3"]},
                  "phi": {"c": 1, "m": 0, "a": "1/2", "b": 0,
                          "alphas": []},
                  "s": "1", "t": ["1"], "rel_tol": 1e-7}


_PAIR = {"p": {"mode": "rational", "roots": ["0", "4"]},
         "q": {"mode": "rational", "roots": ["1", "3"]}}
_PHI = {"c": 1, "m": 0, "a": "1/2", "b": 0, "alphas": []}
# well-formed inputs of each suite below; each malformed record changes
# one field
_GOOD_INPUTS = {
    "iso": _ISO_INPUTS,
    "deform": {**_DEFORM_INPUTS, "s": ["1/2"]},
    "scaled": {"p": _PAIR["p"], "phi": _PHI, "s": "1/2", "t": "1",
               "rel_tol": 1e-7},
    "allincr": {"p": {"mode": "float", "roots": [0.0, 0.0]}, "points": 21,
                "slack": 1e-7},
    "chain": {**_PAIR, "step_cap": 100},
    "lag-ms": {**_PAIR, "m": 1, "p_shift": 0, "coeffs": ["1", "-2", "1"],
               "rel_tol": 1e-7},
    "main1": {**_PAIR, "lambdas": [-1.0, 0.0, 1.0], "rel_tol": 1e-7},
    "main2": {"p": {"mode": "float", "roots": [-1.0, 2.0]}, "lam1": 0.5,
              "lam2": 1.0, "gauss1": 0.25, "gauss2": 0.5, "rel_tol": 1e-7},
    "pb3": {"gammas": ["0", "1", "1"], "drift": "0",
            "pairs": [[_PAIR["p"], _PAIR["q"]]],
            "rel_tol": 1e-7},
}
_MALFORMED = {
    "deform-s-not-a-list": ("deform", {"s": "1"}),
    "scaled-s-a-list": ("scaled", {"s": ["1"]}),
    "iso-rel-tol-a-string": ("iso", {"rel_tol": "x"}),
    "iso-phi-m-a-list": ("iso", {"phi": {**_ISO_INPUTS["phi"], "m": [1]}}),
    "allincr-points-a-string": ("allincr", {"points": "x"}),
    "chain-step-cap-a-string": ("chain", {"step_cap": "x"}),
    "lag-ms-m-a-string": ("lag-ms", {"m": "x"}),
    "main1-lambdas-a-string": ("main1", {"lambdas": "ab"}),
    "main2-lam1-a-string": ("main2", {"lam1": "x"}),
    "pb3-no-pairs": ("pb3", {"pairs": []}),
    "lag-ms-m-zero": ("lag-ms", {"m": 0}),
    "lag-ms-p-shift-negative": ("lag-ms", {"p_shift": -1}),
    "pb3-one-gamma": ("pb3", {"gammas": ["0"]}),
    "iso-rel-tol-negative": ("iso", {"rel_tol": -1.0}),
    "allincr-slack-negative": ("allincr", {"slack": -1.0}),
    "chain-step-cap-negative": ("chain", {"step_cap": -1}),
}


@pytest.mark.parametrize("suite", sorted(_GOOD_INPUTS))
def test_well_formed_failure_record_replays(suite):
    # the inputs the malformed records below start from replay cleanly
    record = {"suite": suite, "trial": 0, "inputs": _GOOD_INPUTS[suite],
              "details": {}}
    assert recheck_failure(record) in (True, False)


@pytest.mark.parametrize("record", [
    {"trial": 0, "inputs": _ISO_INPUTS, "details": {}},
    {"suite": "iso", "trial": 0, "details": {}},
    {"suite": "iso", "trial": 0, "inputs": [], "details": {}},
    {"suite": "iso", "trial": 0, "details": {},
     "inputs": {k: v for k, v in _ISO_INPUTS.items() if k != "q"}},
    *({"suite": suite, "trial": 0, "details": {},
       "inputs": {**_GOOD_INPUTS[suite], **change}}
      for suite, change in _MALFORMED.values()),
], ids=["no-suite", "no-inputs", "inputs-not-an-object", "iso-without-q",
        *_MALFORMED])
def test_malformed_failure_record_is_refused(record):
    with pytest.raises(ConfigError):
        recheck_failure(record)


def _hunt_fails(x, y):
    return not harness._check_order(x, y, 1e-7, hunt=True)[0]


def test_confirm_violation_thresholds():
    assert _hunt_fails((0.0, 10.0), (4.0, 6.0))             # gross violation
    assert not _hunt_fails((4.0, 6.0), (0.0, 10.0))         # honest majorization
    assert not _hunt_fails((0.0, 10.0 + 1e-9), (0.0, 10.0))  # noise-sized
    # a residual of 5e-6 fails a suite (tol 1e-7 * 11) but not a hunt,
    # whose failure line is CONFIRM_REL_TOL * 11
    x, y = (0.0, 10.0 + 5e-6), (0.0, 10.0)
    assert not harness._check_order(x, y, 1e-7)[0]
    assert not _hunt_fails(x, y)


def test_chain_suite_documented_instance():
    _, check = SUITES["chain"]
    inputs = {"p": {"mode": "rational", "roots": ["0", "2", "4"]},
              "q": {"mode": "rational", "roots": ["1", "2", "3"]},
              "step_cap": 10 ** 6}
    ok, steps, _ = check(inputs_from_json(inputs))
    assert ok and steps == 8.0


def test_allincr_suite_x_squared():
    _, check = SUITES["allincr"]
    inputs = {"p": {"mode": "float", "roots": [0.0, 0.0]},
              "points": 21, "slack": 1e-7}
    ok, margin, _ = check(inputs_from_json(inputs))
    assert ok and margin > 0


def test_hunt_unknown_problem():
    with pytest.raises(UnknownSuite):
        hunt_counterexamples("pb9", ExperimentConfig())


@pytest.mark.parametrize("problem,kwargs", [
    ("pb1", {}),
    ("pb2", {"degree_min": 2, "degree_max": 3}),
    ("pb3", {"degree_min": 2, "degree_max": 3}),
])
def test_hunts_clean_smoke(problem, kwargs):
    cfg = ExperimentConfig(suite=problem, trials=8, seed=3, **kwargs)
    report = hunt_counterexamples(problem, cfg)
    assert report.passed, report.failures[:1]


def test_pb1_family_selector():
    cfg = ExperimentConfig(suite="pb1", trials=6, seed=4,
                           params={"family": "xp-prime"})
    report = hunt_counterexamples("pb1", cfg)
    assert report.passed
    cfg2 = ExperimentConfig(suite="pb1", trials=6, seed=4,
                            params={"family": "laguerre"})
    assert hunt_counterexamples("pb1", cfg2).passed


def test_hunt_flags_genuine_order_violation():
    # a diagonal map with a negative low term is not admissible, but on
    # this particular pair it produces real-rooted images that violate the
    # order; the checker must confirm and report it
    inputs = {
        "gammas": ["-1", "1", "1"],
        "p": {"mode": "rational", "roots": ["0", "4"]},      # x^2 - 4x
        "q": {"mode": "rational", "roots": ["1", "3"]},      # x^2 - 4x + 3
        "rel_tol": 1e-7,
    }
    ok, margin, details = HUNTS["pb2"][1](inputs_from_json(inputs))
    assert not ok and details.get("confirmed") is True
    assert margin < -0.1
    assert recheck_failure({"suite": "pb2", "trial": 0, "inputs": inputs,
                            "details": details})


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_sampled_operators_keep_exact_images_real_rooted(n, seed):
    from specpoly.harness import _find_diagonal_operator
    rng = random.Random(seed)
    gammas = _find_diagonal_operator(rng, n)
    for _ in range(3):
        p = random_hyperbolic(rng, n, bound=10)
        assert is_real_rooted(multiplier_apply(gammas, p.coefficients(), n))


@pytest.mark.parametrize("problem,seed", [("pb2", 933979505),
                                          ("pb3", 2685834399)])
def test_hunt_seeds_that_once_drew_non_preservers(problem, seed):
    # job seeds on which an incomplete preserver test accepted a
    # non-preserver and reported a false counterexample at n = 3
    cfg = ExperimentConfig(suite=problem, trials=10, seed=seed, degree_min=3,
                           degree_max=3)
    assert hunt_counterexamples(problem, cfg).passed


def test_hunt_reports_deterministic(tmp_path):
    outs = []
    for name in ("h1.jsonl", "h2.jsonl"):
        out = tmp_path / name
        cfg = ExperimentConfig(suite="pb2", trials=5, seed=12, degree_min=2,
                               degree_max=2, out=str(out))
        hunt_counterexamples("pb2", cfg)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    info = json.loads(outs[0].splitlines()[-1])["info"]
    assert list(info) == ["evidence"] and isinstance(info["evidence"], int)


def test_skipped_hunt_trial_has_no_margin():
    # gammas (1, 0, 1) keep x^2 - 4x real-rooted but send x^2 - 4x + 3 to
    # x^2 + 3: no hunt samples that record, and a hunt on it raises as a
    # suite does, so it is never skipped with a margin that would clamp
    # worst_slack
    p = {"mode": "rational", "roots": ["0", "4"]}
    q = {"mode": "rational", "roots": ["1", "3"]}
    pb2 = {"gammas": ["1", "0", "1"], "p": p, "q": q, "rel_tol": 1e-7}
    pb1 = {**pb2, "meta": {}}
    pb3 = {"gammas": ["1", "0", "1"], "drift": "0", "pairs": [[p, q]] * 3,
           "rel_tol": 1e-7}
    for name, inputs in (("pb1", pb1), ("pb2", pb2), ("pb3", pb3)):
        with pytest.raises(NotRealRooted):
            HUNTS[name][1](inputs_from_json(inputs))
    with pytest.raises(NotRealRooted):
        recheck_failure({"suite": "pb1", "trial": 0, "inputs": pb1,
                         "details": {}})


def test_suite_image_that_is_not_real_rooted_raises():
    # through the isotone check shared by suites and hunts, a
    # non-real-rooted image is an error, never a skip, on either path
    from specpoly.harness import _check_isotone
    p = from_roots([0, 4])
    q = from_roots([1, 3])
    image = partial(multiplier_apply, [1, 0, 1])
    with pytest.raises(NotRealRooted):
        _check_isotone(image, p, q, 1e-7)
    with pytest.raises(NotRealRooted):
        _check_isotone(image, p, q, 1e-7, hunt=True)


@pytest.mark.parametrize("run,kwargs", [
    (run_suite, {"suite": "iso", "trials": -1}),
    (run_suite, {"suite": "iso", "degree_min": 5, "degree_max": 3}),
    (partial(hunt_counterexamples, "pb3"), {"trials": -1}),
    (partial(hunt_counterexamples, "pb1"), {"degree_min": 4,
                                            "degree_max": 2}),
    (run_suite, {"suite": "iso", "tol": math.nan}),
    (partial(hunt_counterexamples, "pb1"), {"params": 5}),
    (run_suite, {"suite": "iso", "mode": "banana"}),
    (partial(hunt_counterexamples, "pb2"), {"mode": "banana"}),
], ids=["suite-negative-trials", "suite-degrees-reversed",
        "hunt-negative-trials", "hunt-degrees-reversed", "suite-tol-nan",
        "hunt-params-not-a-dict", "suite-mode-unknown", "hunt-mode-unknown"])
def test_impossible_config_is_refused(run, kwargs):
    with pytest.raises(ConfigError):
        run(ExperimentConfig(**kwargs))


@pytest.mark.parametrize("suite", ["iso", "appell-min", "deform", "schur",
                                   "lag-ms"])
def test_suites_draw_within_the_configured_degrees(suite):
    # these suites draw an operator whose order m needs degree > m; the
    # degree is drawn first and the operator within it, so a config's
    # degree bounds hold for every trial, and one below the suite's least
    # degree is refused
    generate = SUITES[suite][0]
    cfg = ExperimentConfig(suite=suite, degree_min=2, degree_max=2)
    for trial in range(60):
        assert generate(cfg, trial_rng(0, trial))["p"].degree == 2
    with pytest.raises(ConfigError):
        run_suite(ExperimentConfig(suite=suite, trials=1, degree_min=1,
                                   degree_max=1))


def test_suite_worst_slack_reported():
    report = run_suite(ExperimentConfig(suite="main1", trials=5, seed=21))
    assert isinstance(report.worst_slack, float)
    # comfortably inside tolerance: slack may be slightly negative but
    # never beyond the tolerance band
    assert report.worst_slack > -1e-6


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_passing_suite_reports_nonnegative_margin(suite):
    # a margin is the distance to failing, so a passing report has
    # worst_slack >= 0; main1 at seed 0 in float mode reported -2.4e-11
    # when raw slacks in [-tol, 0) were taken as margins
    cfg = ExperimentConfig(suite=suite, trials=5, seed=0, degree_min=2,
                           degree_max=9, mode="float")
    report = run_suite(cfg)
    assert report.passed
    assert report.worst_slack >= 0.0


def test_no_measured_margin_reports_null(tmp_path):
    out = tmp_path / "r.jsonl"
    report = run_suite(ExperimentConfig(suite="main1", trials=0, out=str(out)))
    assert report.passed and report.worst_slack is None
    assert json.loads(out.read_text())["worst_slack"] is None


def test_lag_ms_second_image_is_seeded_through_exact_zeros(monkeypatch):
    # m = 3, p_shift = 0: gamma_0 = gamma_1 = gamma_2 = 0, so both images
    # are x^3 times a cubic with simple roots.  The first image's three
    # exact zeros seed the second image, and neither falls back
    calls = []
    seeded = harness.real_roots_near

    def spy(coeffs, seeds, tol=None):
        got = seeded(coeffs, seeds, tol)
        calls.append((list(seeds), got))
        return got

    def recursion(*args):
        raise AssertionError("real_roots_near fell back to real_roots")

    monkeypatch.setattr(harness, "real_roots_near", spy)
    monkeypatch.setattr(roots_module, "real_roots", recursion)
    p = from_roots([Fraction(v) for v in (-3, -2, -1, 1, 2, 4)], "rational")
    q = from_roots([Fraction(-5, 2), -2, -1, 1, 2, Fraction(7, 2)],
                   "rational")
    inputs = {"m": 3, "p_shift": 0, "coeffs": ["1", "-2", "1/2", "1"],
              "p": serialize.poly_to_json(p), "q": serialize.poly_to_json(q),
              "rel_tol": 1e-9}
    ok, margin, _ = harness._check_lag_ms(inputs_from_json(inputs))
    assert ok and margin >= 0.0
    (_, first), (seeds, second) = calls
    assert seeds == list(first)
    assert first.count(0.0) == second.count(0.0) == 3
