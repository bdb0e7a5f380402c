"""Pinned digests over the canonical report bytes of every suite and hunt.

Each run's ``summary_json()`` and then each of its failure records, as
``json.dumps(..., sort_keys=True)``, feed a sha256, for seeds 0-1 and
degrees 2-8, two trials each.  There are two digests.  The exact one
covers every suite run in rational mode and every hunt
(``sorted(SUITES)`` without the float suites, then ``sorted(HUNTS)``);
the float one covers main1, main2 and allincr in float mode, whose
margins carry float root noise.  Any change to a verdict, a margin, a
failure record or the order of a trial's random draws changes a digest.
A change that alters the report bytes on purpose updates the pinned
value and says why.  A change to the float root finder can move both
digests: the rational-mode operator suites and the hunts take the roots
of their images from it too, so their margins carry float root noise as
well.

A third digest pins the wire format of trial inputs, which the report
digests never see while every run passes: ``inputs_to_json`` of seeded
draws from every suite and hunt (sorted names, both modes, seeds 0-2,
degrees 2-8, three trials each), as ``json.dumps(..., sort_keys=True)``.
It is the form a failure record holds and ``recheck_failure`` reads.
"""

import hashlib
import json

from specpoly.harness import (HUNTS, SUITES, ExperimentConfig,
                              hunt_counterexamples, inputs_to_json,
                              run_suite, trial_rng)

FLOAT_SUITES = ("allincr", "main1", "main2")
EXACT_PINNED = (
    "35f7e8e6d1c19d133cdd4ef1271c1ab3d58d32f35e8eaca7d36e763d3ec5eacc")
FLOAT_PINNED = (
    "49b8ad96c9fff6fc43407120c93d1142250b1bd404e9a4d37fc3423d8c4a4fec")
WIRE_PINNED = (
    "1e80163f48925ce5c3a806724f3b79499e711ccd33565dd9429ffc6e0cc283e2")


def _digest(names, mode) -> str:
    digest = hashlib.sha256()
    for name in names:
        for seed in (0, 1):
            for degree in range(2, 9):
                config = ExperimentConfig(
                    suite=name, trials=2, seed=seed, degree_min=degree,
                    degree_max=degree, mode=mode)
                report = (run_suite(config) if name in SUITES
                          else hunt_counterexamples(name, config))
                digest.update(json.dumps(report.summary_json(),
                                         sort_keys=True).encode())
                for record in report.failures:
                    digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_report_digest_is_pinned():
    exact = [name for name in sorted(SUITES) if name not in FLOAT_SUITES]
    assert _digest(exact + sorted(HUNTS), "rational") == EXACT_PINNED


def test_float_report_digest_is_pinned():
    assert _digest(FLOAT_SUITES, "float") == FLOAT_PINNED


def test_input_wire_format_is_pinned():
    entries = {**SUITES, **HUNTS}
    digest = hashlib.sha256()
    for name in sorted(entries):
        generate = entries[name][0]
        for mode in ("rational", "float"):
            for seed in range(3):
                for degree in range(2, 9):
                    config = ExperimentConfig(
                        suite=name, trials=3, seed=seed, degree_min=degree,
                        degree_max=degree, mode=mode)
                    for trial in range(3):
                        inputs = generate(config, trial_rng(seed, trial))
                        digest.update(json.dumps(inputs_to_json(inputs),
                                                 sort_keys=True).encode())
    assert digest.hexdigest() == WIRE_PINNED
