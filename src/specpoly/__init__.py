"""Monic real-rooted polynomials under the spectral order.

Certified majorization checks with doubly stochastic witnesses,
constructive contraction-chain decompositions, differential operators of
Laguerre-Polya type acting on root tuples, pencil dynamics, and a seeded
verification / counterexample-hunting harness.
"""

from .contract import (ContractionChain, ContractionStep, apply_contraction,
                       decompose_majorization, discrepancy, expand_transfer,
                       random_comparable_pair)
from .harness import (ExperimentConfig, SuiteReport, hunt_counterexamples,
                      random_hyperbolic, recheck_failure, run_suite)
from .lpops import (DeformationVector, DiffOperator, LPFunction, appell,
                    apply_operator, deformation_leq, gaussian_op,
                    laguerre_closed_form, laguerre_ms, multiplier_apply,
                    MultiplierSequence, shift_pencil)
from .majorize import (ConvexProbeReport, DoublyStochasticWitness,
                       MajorizationCertificate, Verdict, build_witness,
                       check_majorization, hinge, hinge_oracle,
                       matching_distance, power, schur_eval, signed_power,
                       xlogx)
from .pencil import (PencilSample, pencil_at, pencil_majorization_check,
                     pencil_path, scan_monotonicity)
from .poly import (HyperbolicPoly, StrictnessReport, derivative, from_roots,
                   hyperbolic_from_coeffs, is_strict, strict_perturb,
                   strictness, taylor_shift, to_coefficients)
from .roots import real_roots
from .scalars import FLOAT, RATIONAL

__version__ = "0.1.0"
