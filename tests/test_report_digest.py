"""One pinned digest over the canonical report bytes of every suite and hunt.

Each run's ``summary_json()`` and then each of its failure records, as
``json.dumps(..., sort_keys=True)``, feed one sha256, for every suite and
hunt (``sorted(SUITES)`` then ``sorted(HUNTS)``), seeds 0-1 and degrees
2-8, two trials each: float mode for main1, main2 and allincr, rational
mode for the rest.  Any change to a verdict, a margin, a failure record
or the order of a trial's random draws changes the digest.  A change that
alters the report bytes on purpose updates the pinned value and says why.
"""

import hashlib
import json

from specpoly.harness import (HUNTS, SUITES, ExperimentConfig,
                              hunt_counterexamples, run_suite)

PINNED = "4051b072df387e8f975fe7f28b6ea53bc4bc484a77b8c757909dee917085a954"
FLOAT_SUITES = ("main1", "main2", "allincr")


def test_report_digest_is_pinned():
    digest = hashlib.sha256()
    for name in sorted(SUITES) + sorted(HUNTS):
        for seed in (0, 1):
            for degree in range(2, 9):
                config = ExperimentConfig(
                    suite=name, trials=2, seed=seed, degree_min=degree,
                    degree_max=degree,
                    mode="float" if name in FLOAT_SUITES else "rational")
                report = (run_suite(config) if name in SUITES
                          else hunt_counterexamples(name, config))
                digest.update(json.dumps(report.summary_json(),
                                         sort_keys=True).encode())
                for record in report.failures:
                    digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED
