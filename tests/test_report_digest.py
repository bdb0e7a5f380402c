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
"""

import hashlib
import json

from specpoly.harness import (HUNTS, SUITES, ExperimentConfig,
                              hunt_counterexamples, run_suite)

FLOAT_SUITES = ("allincr", "main1", "main2")
EXACT_PINNED = (
    "14f3f3210939f4ecd62d5efdd53aee2860f1d2ea4a93bc7eb6dc9576f50be17e")
FLOAT_PINNED = (
    "72fb486c5ac5ad6155805f26651657aa3c57d8c395155d96d5f34961f7dff601")


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
