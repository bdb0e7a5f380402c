"""Span tracing of specpoly from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
``specpoly`` module (and class) that binds it, so calls made through a
name imported with ``from .roots import real_roots`` are seen too.  Each
call records one span (name, start, end, parent) in flat in-memory arrays;
``layer_metrics`` turns the spans into the per-layer metrics after the
run and ``write`` saves them.  A traced name that no longer exists makes
``install`` raise, except for the names listed as optional.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" attributes wrap methods.
TARGETS = (
    ("roots", "real_roots", "roots.real_roots"),
    ("roots", "real_roots_with_criticals", "roots.real_roots_with_criticals"),
    ("pencil", "pencil_at", "pencil.pencil_at"),
    ("pencil", "scan_monotonicity", "pencil.scan_monotonicity"),
    ("pencil", "pencil_coeffs", "pencil.pencil_coeffs"),
    ("poly", "expand_from_roots", "poly.expand_from_roots"),
    ("poly", "HyperbolicPoly.coefficients", "poly.coefficients"),
    ("poly", "from_roots", "poly.from_roots"),
    ("lpops", "DiffOperator.from_function", "lpops.from_function"),
    ("lpops", "DiffOperator.apply_coeffs", "lpops.apply_coeffs"),
    ("lpops", "multiplier_apply", "lpops.multiplier_apply"),
    ("lpops", "shift_pencil_coeffs", "lpops.shift_pencil_coeffs"),
    ("lpops", "gaussian_coeffs", "lpops.gaussian_coeffs"),
    ("majorize", "check_majorization", "majorize.check_majorization"),
    ("majorize", "hinge_oracle", "majorize.hinge_oracle"),
    ("majorize", "build_witness", "majorize.build_witness"),
    ("contract", "decompose_majorization", "contract.decompose_majorization"),
    ("contract", "apply_contraction", "contract.apply_contraction"),
    ("contract", "random_comparable_pair", "contract.random_comparable_pair"),
    ("harness", "run_suite", "harness.run_suite"),
    ("harness", "hunt_counterexamples", "harness.hunt_counterexamples"),
    ("harness", "random_hyperbolic", "harness.random_hyperbolic"),
    ("serialize", "poly_to_json", "serialize.poly_to_json"),
    ("serialize", "poly_from_json", "serialize.poly_from_json"),
)

# The hunt operator sampler is private; a later version may drop the name,
# and then its metrics read 0 and the span is reported absent.
OPTIONAL = (
    ("harness", "_find_diagonal_operator", "harness.sampler"),
)

# Spans split per call by the scalar mode of the input: (exact, float).
_BY_MODE = {"poly.expand_from_roots": ("rational", "float"),
            "majorize.check_majorization": ("exact", "float")}

# Per-layer metrics in output order, as (span, stats) pairs.
_LAYERS = (
    ("roots.real_roots", ("calls", "busy_s")),
    ("roots.real_roots_with_criticals", ("calls", "busy_s")),
    ("roots.deg_le4", ("calls", "busy_s")),
    ("roots.deg5_8", ("calls", "busy_s")),
    ("roots.deg_ge9", ("calls", "busy_s")),
    ("roots.not_real_rooted", ("count",)),
    ("roots", ("reject_ratio", "busy_share")),
    ("pencil.pencil_at", ("calls", "busy_s", "self_s")),
    ("pencil.scan_monotonicity", ("calls", "busy_s", "self_s")),
    ("pencil.pencil_coeffs", ("calls", "busy_s")),
    ("poly.expand_from_roots.rational", ("calls", "busy_s")),
    ("poly.expand_from_roots.float", ("calls", "busy_s")),
    ("poly.coefficients", ("calls", "hit_ratio")),
    ("poly.from_roots", ("calls", "busy_s")),
    ("lpops.from_function", ("calls", "busy_s")),
    ("lpops.apply_coeffs", ("calls", "busy_s")),
    ("lpops.multiplier_apply", ("calls", "busy_s")),
    ("lpops.shift_pencil_coeffs", ("calls", "busy_s")),
    ("lpops.gaussian_coeffs", ("calls", "busy_s")),
    ("majorize.check_majorization.exact", ("calls", "busy_s")),
    ("majorize.check_majorization.float", ("calls", "busy_s")),
    ("majorize.hinge_oracle", ("calls", "busy_s")),
    ("majorize.build_witness", ("calls", "busy_s")),
    ("contract.decompose_majorization", ("calls", "busy_s", "self_s")),
    ("contract.apply_contraction", ("calls", "busy_s")),
    ("contract.steps", ("count",)),
    ("contract.random_comparable_pair", ("calls", "busy_s")),
    ("harness.run_suite", ("busy_s",)),
    ("harness.hunt_counterexamples", ("busy_s",)),
    ("harness", ("self_s",)),
    ("harness.random_hyperbolic", ("calls", "busy_s")),
    ("harness.sampler", ("calls", "busy_s", "self_s", "accept_ratio",
                         "busy_share")),
    ("serialize", ("calls", "busy_s")),
    ("process", ("import_s",)),
    ("trace", ("overhead_ratio",)))


def _unit(stat: str) -> str:
    return ("count" if stat in ("calls", "count") else
            "s" if stat.endswith("_s") else "ratio")


# Every per-layer metric the benchmark prints: name -> unit.
LAYER_UNITS = {f"{span}.{stat}": _unit(stat)
               for span, stats in _LAYERS for stat in stats}

_NO_TAG = -1


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")      # degree, cache hit or chain length
        self.error = array("b")    # 1 NotRealRooted, 2 any other exception
        self._stack = [-1]
        self.recording = True
        self._undo: list[tuple] = []
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever specpoly binds it."""
        from specpoly.errors import NotRealRooted
        self._not_real_rooted = NotRealRooted
        self.absent = []
        for targets, optional in ((TARGETS, False), (OPTIONAL, True)):
            for module, attr, span in targets:
                owner = sys.modules[f"specpoly.{module}"]
                *cls_path, field = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner).get(field)
                if raw is None:
                    if optional:
                        self.absent.append(span)
                        continue
                    raise LookupError(f"traced name specpoly.{module}.{attr} "
                                      "no longer exists")
                if cls_path:
                    self._wrap_method(owner, field, raw, span)
                else:
                    self._wrap_function(raw, span)

    def uninstall(self) -> None:
        while self._undo:
            owner, field, value = self._undo.pop()
            setattr(owner, field, value)

    def _wrap_function(self, fn, span) -> None:
        wrapper = self._wrapper(fn, span)
        for name, module in list(sys.modules.items()):
            if name != "specpoly" and not name.startswith("specpoly."):
                continue
            for field, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, field, value))
                    setattr(module, field, wrapper)

    def _wrap_method(self, cls, field, raw, span) -> None:
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrapper(raw.__func__, span))
        else:
            wrapper = self._wrapper(raw, span)
        self._undo.append((cls, field, raw))
        setattr(cls, field, wrapper)

    def _wrapper(self, fn, span):
        tracer = self
        not_real_rooted = self._not_real_rooted
        nid = self.name_id(span)
        by_mode = span in _BY_MODE
        if by_mode:
            exact_id, float_id = (self.name_id(f"{span}.{suffix}")
                                  for suffix in _BY_MODE[span])
        tag_degree = span == "roots.real_roots_with_criticals"
        tag_hit = span == "poly.coefficients"
        tag_steps = span == "contract.decompose_majorization"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tag = _NO_TAG
            if tag_degree:
                tag = len(args[0] if args else kwargs["coeffs"]) - 1
            elif tag_hit:
                tag = int("_coeffs" in vars(args[0]))
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.tag.append(tag)
            tracer.error.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except not_real_rooted:
                tracer.error[idx] = 1
                raise
            except BaseException:
                tracer.error[idx] = 2
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if by_mode:
                tracer.name[idx] = float_id if _is_float(args, kwargs,
                                                        result) else exact_id
            elif tag_steps:
                tracer.tag[idx] = len(result.steps)
            return result

        return traced

    # --- results --------------------------------------------------------

    def fired(self) -> set[str]:
        """Span names (before refinement by mode) that recorded a call."""
        seen = {self.names[i] for i in set(self.name)}
        return {n.rsplit(".", 1)[0] if n.rsplit(".", 1)[0] in _BY_MODE
                else n for n in seen}

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics over all recorded spans.

        Span times are multiplied by ``scale``.  Busy shares are taken
        over the summed time of the top-level spans, i.e. all traced
        library time.  Process metrics are left to the caller.
        """
        count = len(self.name)
        names = self.names
        dur = [(self.end[i] - self.start[i]) * scale for i in range(count)]
        library_s = sum(dur[i] for i in range(count) if self.parent[i] < 0)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        for i in range(count):
            n = names[self.name[i]]
            calls[n] = calls.get(n, 0) + 1
            busy[n] = busy.get(n, 0.0) + dur[i]
            own[n] = own.get(n, 0.0) + dur[i] - child[i]

        extract = self._ids.get("roots.real_roots_with_criticals", -2)
        coeffs = self._ids.get("poly.coefficients", -2)
        decompose = self._ids.get("contract.decompose_majorization", -2)
        sampler = self._ids.get("harness.sampler", -2)
        buckets = {"roots.deg_le4": [0, 0.0], "roots.deg5_8": [0, 0.0],
                   "roots.deg_ge9": [0, 0.0]}
        rejected = in_sampler_rejected = hits = steps = accepted = 0
        for i in range(count):
            nid = self.name[i]
            if nid == extract:
                d = self.tag[i]
                b = buckets["roots.deg_le4" if d <= 4 else
                            "roots.deg5_8" if d <= 8 else "roots.deg_ge9"]
                b[0] += 1
                b[1] += dur[i]
                if self.error[i] == 1:
                    rejected += 1
                    if self._has_ancestor(i, sampler):
                        in_sampler_rejected += 1
            elif nid == coeffs:
                hits += self.tag[i]
            elif nid == decompose and self.error[i] == 0:
                steps += self.tag[i]
            elif nid == sampler and self.error[i] == 0:
                accepted += 1

        out: dict[str, float] = {}
        for metric in LAYER_UNITS:
            span, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "busy_s":
                out[metric] = busy.get(span, 0.0)
            elif stat == "self_s":
                out[metric] = own.get(span, 0.0)
        for span, (n, t) in buckets.items():
            out[f"{span}.calls"] = n
            out[f"{span}.busy_s"] = t
        extractions = calls.get("roots.real_roots_with_criticals", 0)
        out["roots.not_real_rooted.count"] = rejected
        out["roots.reject_ratio"] = _ratio(rejected, extractions)
        out["roots.busy_share"] = _ratio(
            busy.get("roots.real_roots_with_criticals", 0.0), library_s)
        out["poly.coefficients.hit_ratio"] = _ratio(
            hits, calls.get("poly.coefficients", 0))
        out["contract.steps.count"] = steps
        runners = ("harness.run_suite", "harness.hunt_counterexamples")
        out["harness.self_s"] = sum(own.get(n, 0.0) for n in runners)
        out["harness.sampler.accept_ratio"] = _ratio(
            accepted, accepted + in_sampler_rejected)
        out["harness.sampler.busy_share"] = _ratio(
            busy.get("harness.sampler", 0.0), library_s)
        serial = ("serialize.poly_to_json", "serialize.poly_from_json")
        out["serialize.calls"] = sum(calls.get(n, 0) for n in serial)
        out["serialize.busy_s"] = sum(busy.get(n, 0.0) for n in serial)
        return {metric: out[metric] for metric in LAYER_UNITS if metric in out}

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path) -> None:
        """Save every span as CSV: name, start, end, parent, tag, error."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,tag,error\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(f"{names[self.name[i]]},{self.start[i]!r},"
                          f"{self.end[i]!r},{self.parent[i]},{self.tag[i]},"
                          f"{self.error[i]}\n")


def _is_float(args, kwargs, result) -> bool:
    if isinstance(result, tuple):           # expand_from_roots
        mode = args[1] if len(args) > 1 else kwargs["mode"]
        return mode == "float"
    return isinstance(result.sum_residual, float)   # a certificate


def _ratio(num, den) -> float:
    return num / den if den else 0.0
