"""Tracing for the benchmark's traced pass.

The wrappers live here, not in the library: ``Tracer.installed()``
patches each traced name at every place a caller looks it up (the
class for methods; every ``pzeta`` module that holds the function for
module-level names, since ``zeta`` imports ``overgroups_of_seed`` and
``divide_exact`` by name) and restores the originals on exit.

Coarse calls record a span: name, start, end, parent span, job.  The
hot engine methods (``closure``, ``conj_elem``, ``conj_set``) and
``integer_nth_root`` only add to per-job call counts and times, so
memory stays bounded however often they run.  A span's self time is its
duration minus the part covered by its child spans and hot calls; each
job runs inside a root span, whose self time is the time spent outside
every traced call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from pzeta import dirichlet, lattice, permgroup, rationality, zeta

ROOT = "unattributed"

# (owner, attribute, span name)
SPAN_TARGETS = (
    (permgroup._Engine, "__init__", "permgroup.build"),
    (permgroup._Engine, "element_orders", "permgroup.orders"),
    (permgroup._Engine, "pp_cyclic_generator_reps", "permgroup.orders"),
    (permgroup._Engine, "sylow2", "permgroup.orders"),
    (permgroup._Engine, "quotient_action", "permgroup.quotient_action"),
    (permgroup.AlmostSimpleSpec, "__init__", "permgroup.spec"),
    (lattice.SubgroupLattice, "__init__", "lattice.build"),
    (lattice, "overgroups_of_seed", "lattice.overgroups"),
    (lattice.SubgroupLattice, "maximal_node_ids", "lattice.containment"),
    (lattice.SubgroupLattice, "strict_subgroups", "lattice.containment"),
    (lattice.SubgroupLattice, "strict_overgroups", "lattice.containment"),
    (lattice.SubgroupLattice, "hasse_edges", "lattice.containment"),
    (lattice.SubgroupLattice, "frattini_node_id", "lattice.containment"),
    (lattice.SubgroupLattice, "quotient_with_hom", "lattice.quotient"),
    (lattice, "factor_group", "lattice.quotient"),
    (lattice, "chief_steps", "lattice.quotient"),
    (lattice, "identify_characteristically_simple", "lattice.quotient"),
    (zeta, "zeta_from_lattice", "zeta.aggregate"),
    (zeta, "zeta_report", "zeta.aggregate"),
    (zeta, "supplement_zeta", "zeta.aggregate"),
    (zeta, "probabilistic_zeta", "zeta.aggregate"),
    (zeta, "odd_supplement_indices", "zeta.odd_index"),
    (zeta, "chief_factorization", "zeta.factorization"),
    (dirichlet.DirichletPolynomial, "__mul__", "dirichlet.mul"),
    (dirichlet.DirichletPolynomial, "__rmul__", "dirichlet.mul"),
    (dirichlet, "divide_exact", "dirichlet.divide"),
    (dirichlet, "truncated_product", "dirichlet.truncated_product"),
    (dirichlet, "expand_rational", "dirichlet.expand"),
    (rationality, "replay_finiteness_argument", "rationality.replay"),
    (rationality, "check_sml_conditions", "rationality.sml"),
)
HOT_TARGETS = (
    (permgroup._Engine, "closure", "permgroup.closure"),
    (permgroup._Engine, "conj_elem", "permgroup.conj"),
    (permgroup._Engine, "conj_set", "permgroup.conj"),
    (rationality, "integer_nth_root", "numtheory.nth_root"),
)
# every layer the report gives a self time for
LAYERS = tuple(dict.fromkeys(name for *_, name in SPAN_TARGETS + HOT_TARGETS)) + (ROOT,)
# spans during which closure calls count towards lattice.closure_yield
BUILD_SPANS = ("lattice.build", "lattice.overgroups")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, job, covered)
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[list] = []  # open spans: [span index, covered seconds]
        self._building = 0

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        done = {
            "permgroup.build": self._done_build,
            "lattice.build": self._done_lattice,
            "lattice.overgroups": self._done_overgroups,
            "dirichlet.expand": self._done_expand,
        }.get(name)
        building = name in BUILD_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._building += building
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                tracer._building -= building
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans[idx] = (name, start, end, parent, tracer.job, frame[1])
                if done is not None:
                    done(args, kwargs, result, exc)

        return wrapper

    def _hot(self, name: str, fn):
        tracer = self
        is_closure = name == "permgroup.closure"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - start
                agg = tracer.hot[tracer.job, name]
                agg[0] += 1
                agg[1] += dt
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if is_closure:
                    # only bail_half=True returns None: the whole group was reached
                    tracer.counts["closure.bailed"] += result is None
                    tracer.counts["closure.in_build"] += tracer._building > 0

        return wrapper

    # -- counters attached to spans ----------------------------------------

    def _done_build(self, args, kwargs, result, exc):
        if exc is None:
            eng = args[0]
            self.counts["build.elements"] += eng.order
            self.counts["build.table_bytes"] += eng.rows.nbytes

    def _done_lattice(self, args, kwargs, result, exc):
        if exc is None:
            lat = args[0]
            self.counts["lattice.built"] += 1
            self.counts["lattice.nodes"] += lat.node_count
            self.counts["lattice.classes"] += lat.class_count
            self.counts["classes.in_build"] += lat.class_count

    def _done_overgroups(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["overgroups.nodes"] += len(result.nodes)
            self.counts["classes.in_build"] += len(result.classes)

    def _done_expand(self, args, kwargs, result, exc):
        self.counts["expand.terms"] += kwargs.get("bound", args[1] if len(args) > 1 else 0)

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "pzeta" or n.startswith("pzeta.")]
        try:
            for targets, make in ((SPAN_TARGETS, self._span), (HOT_TARGETS, self._hot)):
                for owner, attr, name in targets:
                    original = getattr(owner, attr)
                    wrapped = make(name, original)
                    holders = [owner] if isinstance(owner, type) else [
                        m for m in modules if getattr(m, attr, None) is original
                    ]
                    for holder in holders:
                        patches.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def run_job(self, job: str, fn):
        """Run one job inside a root span tagged with its name."""
        self.job = job
        try:
            return self._span(ROOT, fn)()
        finally:
            self.job = None

    # -- report ----------------------------------------------------------

    def layer_times(self, jobs=None) -> dict:
        """Self seconds and call counts per span and hot name, over the
        given jobs (every job by default; calls made outside ``run_job``,
        by output checks, are left out)."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, job, covered in self.spans:
            if job is not None and (jobs is None or job in jobs):
                seconds[name] += end - start - covered
                calls[name] += 1
        for (job, name), (n, dt) in self.hot.items():
            if job is not None and (jobs is None or job in jobs):
                seconds[name] += dt
                calls[name] += n
        return {"seconds": dict(seconds), "calls": dict(calls)}

    def wall(self, jobs=None) -> float:
        """Summed duration of the given jobs (all jobs by default)."""
        return sum(
            end - start
            for name, start, end, parent, job, _ in self.spans
            if name == ROOT and (jobs is None or job in jobs)
        )
