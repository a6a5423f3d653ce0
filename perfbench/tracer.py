"""Spans around the public functions of each crystalcalc layer.

The tracer patches from the outside: nothing under ``src/`` knows about it.
A wrapped module function is rebound in every loaded ``crystalcalc`` module
that imported it by name (``crystal`` and ``simplicial`` import
``pd_substitute`` from ``series``; ``cli`` imports ``cris`` and
``compare_dr_cris``), and a wrapped method is replaced on its class, so the
code that actually runs is the code that is measured.

Each span records its name, start, end, span id and parent span id.  Self
time is a span's duration minus the time its child spans cover; cumulative
time counts only the outermost span of a name, so recursion is not counted
twice.  Spans are kept in memory and written out by the caller when the
benchmark ends.  ``ring`` is not wrapped: its leaf calls cost less than a
wrapper, so their time shows up in the callers' self time.
"""

import sys
import time


def _nnz(matrix):
    return sum(len(row) for row in matrix.row_dicts())


def _face_key(args, kwargs, _result):
    # face_matrix(self, m, i, q, g=None) -> (m, i, q, g)
    g = args[4] if len(args) > 4 else kwargs.get("g")
    return tuple(args[1:4]) + (g,)


# (span name, module, attribute path, size): a size is (field, f) with
# f(args, kwargs, result) summed over calls; the field "distinct" instead
# counts the distinct values of f within each job.
TARGETS = [
    ("series.mul", "series", "PDSeries.mul", None),
    ("series.inverse", "series", "PDSeries.inverse", None),
    ("series.gamma_of_series", "series", "gamma_of_series", None),
    ("series.pd_substitute", "series", "pd_substitute", None),
    ("linalg.Matrix.mul", "linalg", "Matrix.mul", None),
    ("linalg.HowellBasis", "linalg", "HowellBasis.__init__", None),
    ("linalg.kernel", "linalg", "kernel",
     ("nnz_in", lambda a, k, r: _nnz(a[0]))),
    ("linalg.subquotient", "linalg", "subquotient", None),
    ("linalg.smith_valuations", "linalg", "smith_valuations",
     ("entries", lambda a, k, r: a[0].nrows * a[0].ncols)),
    ("simplicial.LevelTower.face", "simplicial", "LevelTower.face", None),
    ("simplicial.fill_boundary", "simplicial", "fill_boundary", None),
    ("simplicial.checks", "simplicial", "verify_simplicial_identities", None),
    ("simplicial.checks", "simplicial", "verify_boundary_kernel", None),
    ("simplicial.checks", "simplicial", "regular_sequence_suite", None),
    ("smoothlift.Presentation.reduce", "smoothlift", "Presentation.reduce",
     None),
    ("smoothlift.fill_mapping_boundary", "smoothlift",
     "fill_mapping_boundary", None),
    ("smoothlift.build_homotopy", "smoothlift", "build_homotopy", None),
    ("derham.basis", "derham", "DeRhamComplex.basis", None),
    ("derham.dmat", "derham", "DeRhamComplex.dmat",
     ("rows", lambda a, k, r: r.nrows)),
    ("derham.verify_contraction", "derham",
     "DeRhamComplex.verify_contraction", None),
    ("derham.poincare_check", "derham", "poincare_check", None),
    ("derham.base_change_check", "derham", "base_change_check", None),
    ("localized.cech_descent_check", "localized", "cech_descent_check", None),
    ("crystal.DoubleComplex", "crystal", "DoubleComplex.__init__", None),
    ("crystal.face_matrix", "crystal", "DoubleComplex.face_matrix",
     ("distinct", _face_key)),
    ("crystal.tot_matrix", "crystal", "DoubleComplex.tot_matrix", None),
    ("crystal.total_cohomology", "crystal", "DoubleComplex.total_cohomology",
     None),
    ("crystal.cris", "crystal", "cris", None),
    ("crystal.dr_report", "crystal", "dr_report", None),
    ("crystal.compare_dr_cris", "crystal", "compare_dr_cris", None),
    ("cli.load_algebra", "cli", "load_algebra", None),
    ("cli.main", "cli", "main", None),
]

LAYERS = ("series", "linalg", "simplicial", "smoothlift", "derham",
          "localized", "crystal", "cli")


class Stat:
    __slots__ = ("calls", "self_s", "cum_s", "active", "size", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cum_s = 0.0
        self.active = 0
        self.size = 0
        self.keys = set()


class Tracer:
    """Inside ``with tracer:`` the wrappers are installed and record spans."""

    def __init__(self):
        self.spans = []          # (name, start, end, span id, parent id)
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.size_fields = {name: size[0] for name, *_, size in TARGETS
                            if size is not None}
        self.job = None          # the running job; face keys are per job
        self._stack = []         # [span id, child seconds] of open spans
        self._next_id = 1
        self._undo = []

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        for name, modname, path, size in TARGETS:
            module = sys.modules[f"crystalcalc.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, size))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, size)
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith(
                            "crystalcalc"):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._undo.append((other, attr, original))
                            setattr(other, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, name, fn, size):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not stat.active:
                    stat.cum_s += duration
                spans.append((name, start, end, span_id, parent))
            if size is not None:
                field, measure = size
                value = measure(args, kwargs, result)
                if field == "distinct":
                    stat.keys.add((self.job, value))
                else:
                    stat.size += value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def counts(self):
        """Every count the trace holds; two runs of one job must agree."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            field = self.size_fields.get(name)
            if field == "distinct":
                out[f"{name}.distinct"] = len(st.keys)
            elif field is not None:
                out[f"{name}.{field}"] = st.size
        return out

    def layer_self_s(self):
        totals = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            totals[name.split(".")[0]] += st.self_s
        return totals
