"""In-memory spans around the package's public functions, for the traced run.

A `Tracer` replaces each traced function at every module attribute bound to
it (so `from`-imports such as `meandim.counterexample.d_N` are caught) and
each traced method on its class. Every call records a span: name, start, end
and parent span. Spans stay in memory until the run writes them out.
`Fraction.__new__` is wrapped with a bare counter, not a span, because it
runs hundreds of thousands of times per pass.

A `Tracer` used as a context manager installs on entry; `uninstall`, called
on exit, restores every original, so traced and untraced passes can share
one process.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from fractions import Fraction

# (span name, module, attribute): the attribute is a function of the module,
# or "Class.method" for a method wrapped on its class.
TRACED = (
    ("cli.write_artifact", "meandim.cli", "write_artifact"),
    ("cli.verify_artifact", "meandim.cli", "verify_artifact"),
    ("serialize.canonical_json", "meandim.serialize", "canonical_json"),
    ("complexes.barycentric_subdivide", "meandim.complexes", "barycentric_subdivide"),
    ("complexes.full_subcomplex", "meandim.complexes", "full_subcomplex"),
    ("complexes.dimension_buckets", "meandim.complexes", "dimension_buckets"),
    ("geometry.kuhn_triangulate_cube", "meandim.geometry", "kuhn_triangulate_cube"),
    (
        "geometry.barycentric_subdivide_geometric",
        "meandim.geometry",
        "barycentric_subdivide_geometric",
    ),
    ("geometry.max_star_mesh", "meandim.geometry", "max_star_mesh"),
    ("widthmaps.cube_width_map", "meandim.widthmaps", "cube_width_map"),
    ("widthmaps.partition_map", "meandim.widthmaps", "partition_map"),
    (
        "widthmaps.partition_fiber_certificate",
        "meandim.widthmaps",
        "PartitionWidthMap.fiber_certificate",
    ),
    ("widthmaps.locate_flag", "meandim.widthmaps", "KuhnWidthPipeline.locate_flag"),
    ("widthmaps.retract", "meandim.widthmaps", "KuhnWidthPipeline.retract"),
    ("widthmaps.flag_realize", "meandim.widthmaps", "FlagPoint.realize"),
    ("certificates.sample_fiber_check", "meandim.certificates", "sample_fiber_check"),
    ("certificates.recheck_structural", "meandim.certificates", "recheck_structural"),
    ("symbolic.d_N", "meandim.symbolic", "d_N"),
    ("symbolic.ocap_limit", "meandim.symbolic", "ocap_limit"),
    ("symbolic.ocap_finite_N", "meandim.symbolic", "ocap_finite_N"),
    ("symbolic.sbp_cover_refine", "meandim.symbolic", "sbp_cover_refine"),
    (
        "counterexample.fiber_dimension_certificate",
        "meandim.counterexample",
        "fiber_dimension_certificate",
    ),
    ("counterexample.nonzero_count_check", "meandim.counterexample", "nonzero_count_check"),
    ("counterexample.block_starts", "meandim.counterexample", "FactorMapInstance.block_starts"),
)

# spans that also keep a size taken from their result
SIZES = {
    "symbolic.ocap_limit": lambda result: result.graph_size,
    "counterexample.block_starts": len,
}


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    size: int | None = None


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap each other (the traced program runs on
    one thread), so the covered time is the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if size is not None:
                span.size = size(result)
            return result

        return traced

    def _patch(self, owner, attribute, value):
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every TRACED function, the certificate boundary where
        `meandim.cli` binds `check_certificate`, and `Fraction.__new__`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "meandim"]
        for name, module_name, attribute in TRACED:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
                continue
            func = getattr(module, attribute)
            traced = self.wrap(name, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, key, traced)
        cli = sys.modules["meandim.cli"]
        self._patch(cli, "check_certificate", self.certificate_boundary(cli.check_certificate))
        original_new = Fraction.__dict__["__new__"]
        new = original_new.__func__ if isinstance(original_new, staticmethod) else original_new
        counts = self.counts

        def counted_new(cls, *args, **kwargs):
            counts["fractions.new"] = counts.get("fractions.new", 0) + 1
            return new(cls, *args, **kwargs)

        self._patch(Fraction, "__new__", staticmethod(counted_new))

    def certificate_boundary(self, check):
        """`check` run on a copy of the certificate whose sampler, domain
        metric, evaluator and target metric are spans; the returned record's
        trials and near pairs are counted."""

        @functools.wraps(check)
        def checked(cert, *args, **kwargs):
            domain = dataclasses.replace(
                cert.domain,
                sample=self.wrap("certificates.sampler", cert.domain.sample),
                dist=self.wrap("certificates.domain_dist", cert.domain.dist),
            )
            timed = dataclasses.replace(
                cert,
                domain=domain,
                evaluator=self.wrap("certificates.evaluator", cert.evaluator),
                target_dist=self.wrap("certificates.target_dist", cert.target_dist),
            )
            record = check(timed, *args, **kwargs)
            data = record.data_dict
            self.count("certificates.trials", int(data.get("trials", 0)))
            self.count("certificates.near_pairs", int(data.get("near_pairs", 0)))
            return record

        return checked

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()  # leave no partial install behind
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.size] for s in self.spans
            ],
            "counts": dict(self.counts),
        }
