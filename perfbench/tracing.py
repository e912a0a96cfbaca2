"""Spans and counters recorded around sparsemod's layer boundaries.

`traced(tracer)` replaces each function in TARGETS, in every sparsemod
module that binds it, by a wrapper that records a span (name, start, end,
id, parent id) and updates the tracer's counters; leaving the block puts
the originals back.  Nothing under src/ changes: the program finds the
wrappers at the names it already looks its callees up by.

The survey's worker pool is wrapped the same way, so every job runs under
the tracer inherited by the forked worker and its spans and counters travel
back with the job's result.
"""

import contextlib
import functools
import itertools
import os
import sys
import time
from collections import Counter, defaultdict
from multiprocessing import Pool

from perfbench.stats import nearest_rank, self_time


class Tracer:
    """In-memory spans and counters; span ids are (pid, n) pairs so that
    spans recorded in worker processes stay unique after merging."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._ids = itertools.count()

    def open(self, name):
        span_id = (os.getpid(), next(self._ids))
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return name, time.perf_counter(), span_id, parent

    def close(self, token):
        name, start, span_id, parent = token
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((name, start, end, span_id, parent))

    def current(self):
        return self._stack[-1] if self._stack else None

    def run_job(self, func, parent, item):
        """Run one pool job under a fresh record whose root is `parent`;
        returns the result with the spans and counts it produced."""
        self.spans, self.counts, self._stack = [], Counter(), [parent]
        result = func(item)
        return result, self.spans, dict(self.counts)

    def merge(self, spans, counts):
        self.spans.extend(spans)
        self.counts.update(counts)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_orders(counts, args, kwargs, result):
    counts["numtheory.orders_calls"] += 1


def _count_residues(counts, args, kwargs, result):
    counts["valueset.residues"] += result.total


def _count_recurrence(counts, args, kwargs, result):
    counts["sumsets.recurrence_steps"] += _arg(args, kwargs, 1, "max_index")


def _count_folds(counts, args, kwargs, result):
    folds = len(result.coverage_sizes) - 1
    shifts = folds * result.coverage_sizes[0]   # one shift-or per generator
    counts["sumsets.folds"] += folds
    counts["sumsets.fold_shifts"] += shifts
    # computed, not measured: each shift-or streams one p-bit mask
    counts["sumsets.fold_bytes_computed"] += shifts * ((result.p + 7) // 8)
    counts["sumsets.covers_attempted"] += 1
    counts["sumsets.covers_hit"] += result.covered


def _count_spectrum(counts, args, kwargs, result):
    ms = _arg(args, kwargs, 0, "ms")
    evals = ms.p // 2 + 1           # half spectrum, the rest is mirrored
    counts["expsums.spectrum_evals"] += evals
    # computed, not measured: one phase-table gather per (a, support) pair
    counts["expsums.phase_gathers"] += evals * len(ms.counts)


def _count_report_bytes(counts, args, kwargs, result):
    counts["cli.report_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# (module, attribute, span name, counter).  Only stage boundaries are
# wrapped: inner kernels such as fib_mod or is_prime run millions of times
# and a wrapper there would cost more than the work it measures.
TARGETS = (
    ("numtheory", "sieve_primes", "numtheory.sieve", None),
    ("numtheory", "mult_order", "numtheory.orders", _count_orders),
    ("numtheory", "order_of_appearance", "numtheory.orders", _count_orders),
    ("valueset", "ResidueMultiset.from_spec", "valueset.multiset", _count_residues),
    ("valueset", "collision_stats", "valueset.multiset", None),
    ("valueset", "j_total", "valueset.jtotal", None),
    ("valueset", "j_total_pairscan", "valueset.pairscan", None),
    ("valueset", "value_set_survey", "valueset.value_set", None),
    ("sumsets", "fib_residue_set", "sumsets.residue_gen", _count_recurrence),
    ("sumsets", "k_fold_sumset", "sumsets.fold", _count_folds),
    ("sumsets", "waring_constructive", "sumsets.constructive", None),
    ("sumsets", "waring_eps_verify", "sumsets.eps", None),
    ("sumsets", "glibichuk_check", "sumsets.glibichuk", None),
    ("expsums", "norm_report", "expsums.norm", _count_spectrum),
    ("expsums", "littlewood_fib", "expsums.littlewood", None),
    ("expsums", "littlewood_pow", "expsums.littlewood", None),
    ("survey", "run_survey", "survey.run", None),
    ("survey", "_survey_row", "survey.row", None),
    ("survey", "write_report", "cli.write_report", _count_report_bytes),
)

# Set while traced() is active; forked pool workers inherit it.
_ACTIVE = None


def _run_in_worker(func, parent, item):
    if _ACTIVE is None:   # a worker that did not inherit the tracer
        return func(item), [], {}
    return _ACTIVE.run_job(func, parent, item)


class _TracedPool:
    """A multiprocessing pool whose map() runs each job under the tracer."""

    def __init__(self, tracer, *args, **kwargs):
        self._tracer = tracer
        self._pool = Pool(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def map(self, func, iterable, chunksize=None):
        job = functools.partial(_run_in_worker, func, self._tracer.current())
        results = []
        for result, spans, counts in self._pool.map(job, iterable, chunksize):
            self._tracer.merge(spans, counts)
            results.append(result)
        return results


def _wrap(tracer, func, span_name, counter):
    @functools.wraps(func)
    def traced_call(*args, **kwargs):
        token = tracer.open(span_name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(token)
        if counter is not None:
            counter(tracer.counts, args, kwargs, result)
        return result
    return traced_call


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sparsemod" or name.startswith("sparsemod."))]


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block."""
    global _ACTIVE
    import sparsemod  # noqa: F401  (loads every submodule)
    undo = []
    modules = _package_modules()
    for module_name, attr, span_name, counter in TARGETS:
        home = sys.modules[f"sparsemod.{module_name}"]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:   # a classmethod, patched on its class
            owner = getattr(home, owner_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if not isinstance(original, classmethod):
                continue
            wrapped = classmethod(_wrap(tracer, original.__func__, span_name, counter))
            setattr(owner, method, wrapped)
            undo.append((owner, method, original))
            continue
        original = getattr(home, attr, None)
        if original is None:   # the program no longer has this stage
            continue
        wrapped = _wrap(tracer, original, span_name, counter)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))
    survey = sys.modules["sparsemod.survey"]
    if hasattr(survey, "Pool"):
        undo.append((survey, "Pool", survey.Pool))
        survey.Pool = functools.partial(_TracedPool, tracer)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer totals from one traced pass, keyed by metric name."""
    busy = defaultdict(float)
    children = defaultdict(list)
    for name, start, end, _, parent in tracer.spans:
        busy[name] += end - start
        children[parent].append((start, end))
    rows = [end - start for name, start, end, _, _ in tracer.spans
            if name == "survey.row"]
    dispatch = sum((self_time((start, end), children[span_id])
                    for name, start, end, span_id, _ in tracer.spans
                    if name == "survey.run"), 0.0)
    c = tracer.counts
    attempted = c["sumsets.covers_attempted"]
    return {
        "numtheory.orders_s": (busy["numtheory.orders"], "s"),
        "numtheory.orders_calls": (c["numtheory.orders_calls"], "count"),
        "numtheory.sieve_s": (busy["numtheory.sieve"], "s"),
        "valueset.multiset_s": (busy["valueset.multiset"], "s"),
        "valueset.residues": (c["valueset.residues"], "count"),
        "valueset.jtotal_s": (busy["valueset.jtotal"], "s"),
        "valueset.pairscan_s": (busy["valueset.pairscan"], "s"),
        "valueset.value_set_s": (busy["valueset.value_set"], "s"),
        "sumsets.residue_gen_s": (busy["sumsets.residue_gen"], "s"),
        "sumsets.recurrence_steps": (c["sumsets.recurrence_steps"], "count"),
        "sumsets.fold_s": (busy["sumsets.fold"], "s"),
        "sumsets.folds": (c["sumsets.folds"], "count"),
        "sumsets.fold_shifts": (c["sumsets.fold_shifts"], "count"),
        "sumsets.fold_bytes_computed": (c["sumsets.fold_bytes_computed"], "bytes"),
        "sumsets.cover_hit_ratio": (c["sumsets.covers_hit"] / attempted if attempted else 0.0, "ratio"),
        "sumsets.constructive_s": (busy["sumsets.constructive"], "s"),
        "sumsets.eps_s": (busy["sumsets.eps"], "s"),
        "sumsets.glibichuk_s": (busy["sumsets.glibichuk"], "s"),
        "expsums.norm_s": (busy["expsums.norm"], "s"),
        "expsums.spectrum_evals": (c["expsums.spectrum_evals"], "count"),
        "expsums.phase_gathers": (c["expsums.phase_gathers"], "count"),
        "expsums.littlewood_s": (busy["expsums.littlewood"], "s"),
        "survey.row_s_p50": (nearest_rank(rows, 50) if rows else 0.0, "s"),
        "survey.row_s_p99": (nearest_rank(rows, 99) if rows else 0.0, "s"),
        "survey.rows": (len(rows), "count"),
        "survey.dispatch_s": (dispatch, "s"),
        "cli.write_report_s": (busy["cli.write_report"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
    }
