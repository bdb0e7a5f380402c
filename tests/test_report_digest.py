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

A verdict digest covers the same runs as the two report digests and
hashes only what a run decides: (name, mode, seed, degree, ``passed``,
the ``trial`` of each failure record), as ``json.dumps``.  A change that
moves only float margins, as a change to the float root finder does,
moves the report digests and leaves this one.

A fourth digest pins the wire format of trial inputs, which the report
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
    "0c6f2a2c292ea77bcbdecab80d5b2b2141206c925ca23928ab55305ffab1442f")
FLOAT_PINNED = (
    "2751b195bdaf75c66854c3be5bb8eef9d94a737efbb7e9b7ccee6a6fdd68140e")
VERDICT_PINNED = (
    "a6304689676645b5dc1cdf1bcc0d4c48c6e7f6f5bfe0f02dcdfc7decda46ce76")
WIRE_PINNED = (
    "1e80163f48925ce5c3a806724f3b79499e711ccd33565dd9429ffc6e0cc283e2")


EXACT_NAMES = ([name for name in sorted(SUITES) if name not in FLOAT_SUITES]
               + sorted(HUNTS))


def _reports(names, mode):
    for name in names:
        for seed in (0, 1):
            for degree in range(2, 9):
                config = ExperimentConfig(
                    suite=name, trials=2, seed=seed, degree_min=degree,
                    degree_max=degree, mode=mode)
                report = (run_suite(config) if name in SUITES
                          else hunt_counterexamples(name, config))
                yield (name, seed, degree), report


def _digest(names, mode) -> str:
    digest = hashlib.sha256()
    for _, report in _reports(names, mode):
        digest.update(json.dumps(report.summary_json(),
                                 sort_keys=True).encode())
        for record in report.failures:
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_report_digest_is_pinned():
    assert _digest(EXACT_NAMES, "rational") == EXACT_PINNED


def test_float_report_digest_is_pinned():
    assert _digest(FLOAT_SUITES, "float") == FLOAT_PINNED


def test_verdict_digest_is_pinned():
    digest = hashlib.sha256()
    for names, mode in ((EXACT_NAMES, "rational"), (FLOAT_SUITES, "float")):
        for (name, seed, degree), report in _reports(names, mode):
            trials = [record["trial"] for record in report.failures]
            digest.update(json.dumps(
                [name, mode, seed, degree, report.passed, trials]).encode())
    assert digest.hexdigest() == VERDICT_PINNED


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
