"""Per-prime surveys over p <= N, with deterministic CSV/JSON reports.

For every prime the survey records the order of 2, the rank of apparition,
the Legendre symbol (5|p), the minimal Fibonacci Waring exponent at
max_index = ceil(delta(N) sqrt(N)), the exponential-sum norms of the
residue block (Fibonacci 1..floor(N^GAMMA) unless the config names
another), and its value-set statistics.  Aggregates are
plain means of row indicators, so the report is a pure function of its
config: rerunning the same config must reproduce the output byte for byte
(wall-clock metadata is deliberately excluded).

`write_report` encodes a report straight into its file, so writing one
holds neither a copy of the rows nor the whole text in memory;
`survey_csv` and `survey_json` return the same writers' output as a string.
With workers > 1 the rows come from a forked pool of at most one process
per prime and per CPU, whose workers each run
BLAS on one thread: the L1 kernel's products are small, and a BLAS thread
per core in every worker oversubscribed the cores.
"""

import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Optional

from .errors import ConfigError, GuardError, InvariantError
from .numtheory import (POWER_BITS, PrimeRecord, exact_fraction, ipow_floor, order_table,
                        prime_record, sieve_primes)
from .valueset import ResidueMultiset, SequenceSpec, collision_stats
from .sumsets import WARING_TERMS, waring_fib_direct
from .expsums import norm_report

SCHEMA = "sparsemod-survey-v5"

# Share of rows each headline fraction must reach for headline_ok.
PASS_THRESHOLD = 0.9

# The paper's fixed parameters: the block 1..floor(N^GAMMA), gamma < 1/3;
# rho = DELTA_EXPONENT in delta(N) = exp((log N)^rho); a value set passes
# when its deviation (size - distinct) / size is at most 1 / VS_DELTA.
GAMMA = Fraction(3, 10)
DELTA_EXPONENT = 0.4
VS_DELTA = 10


def delta_of(nmax: int) -> float:
    """The slowly growing window factor delta(N) = exp((log N)^DELTA_EXPONENT)."""
    if nmax < 2:
        raise ConfigError("need nmax >= 2")
    return math.exp(math.log(nmax) ** DELTA_EXPONENT)


def max_index_of(nmax: int, delta: float) -> int:
    """The Waring cover's largest Fibonacci index, ceil(delta sqrt(N))."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    return math.ceil(delta * math.sqrt(nmax))


@dataclass(frozen=True)
class SurveyConfig:
    nmax: int
    workers: int = 1
    sequence: Optional[SequenceSpec] = None  # default: fibonacci 1..floor(N^GAMMA)

    def __post_init__(self):
        if self.nmax < 2:
            raise ConfigError("need nmax >= 2")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolved_sequence(self) -> SequenceSpec:
        if self.sequence is not None:
            return self.sequence
        return SequenceSpec.fibonacci(1, max(1, ipow_floor(self.nmax, GAMMA)))

    def waring_max_index(self) -> int:
        return max_index_of(self.nmax, delta_of(self.nmax))


@dataclass(frozen=True)
class SurveyRow:
    p: int
    t_p: Optional[int]
    z_p: Optional[int]
    legendre5: Optional[int]
    waring_s_min: Optional[int]
    waring_max_index: int
    l1: Optional[float]
    l2sq: Optional[int]
    energy: Optional[int]
    l1_ratio: Optional[float]
    vs_size: Optional[int]
    vs_distinct: Optional[int]
    status: str


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SurveyRow))


@dataclass(frozen=True)
class SurveyReport:
    config: SurveyConfig
    rows: tuple[SurveyRow, ...]
    aggregates: dict


def _survey_row(args: tuple[int, SequenceSpec, int]) -> SurveyRow:
    """One prime's row.  Every stage runs under one try: a stage that fails
    marks the row's status and leaves its own and all later fields empty."""
    p, seq, max_index = args
    status = "ok" if p != 2 else "partial:t_p"
    t_p = z_p = leg5 = s_min = l1 = l2sq = energy = ratio = None
    vs_size = vs_distinct = None
    try:
        rec = prime_record(p)
        t_p, z_p, leg5 = rec.t_p, rec.z_p, rec.legendre5
        s_min = waring_fib_direct(p, max_index, WARING_TERMS).s_min
        ms = ResidueMultiset.from_spec(seq, p)
        stats = collision_stats(ms)
        vs_size, vs_distinct = stats.size, stats.distinct
        rep = norm_report(ms)
        l1, l2sq, energy = rep.l1, rep.l2sq, rep.energy
        ratio = rep.l1 / math.sqrt(ms.total)
    except GuardError as exc:
        status = f"guard:{exc}"
    except InvariantError as exc:
        status = f"invariant:{exc}"
    return SurveyRow(p=p, t_p=t_p, z_p=z_p, legendre5=leg5,
                     waring_s_min=s_min, waring_max_index=max_index,
                     l1=l1, l2sq=l2sq, energy=energy, l1_ratio=ratio,
                     vs_size=vs_size, vs_distinct=vs_distinct, status=status)


def _aggregate(rows: tuple[SurveyRow, ...]) -> dict:
    n = len(rows)
    vs_ok = [(r.vs_size - r.vs_distinct) * VS_DELTA <= r.vs_size
             for r in rows if r.vs_size]
    waring16 = [r.waring_s_min is not None for r in rows]
    chain_ok = [not r.status.startswith("invariant") for r in rows]
    ratios = [r.l1_ratio for r in rows if r.l1_ratio is not None]
    agg = {
        "rows": n,
        "value_set_fraction": sum(vs_ok) / len(vs_ok) if vs_ok else None,
        "waring16_fraction": sum(waring16) / n,
        "chain_fraction": sum(chain_ok) / n,
        "l1_ratio_min": min(ratios) if ratios else None,
        "l1_ratio_max": max(ratios) if ratios else None,
    }
    agg["headline_ok"] = bool(
        (agg["value_set_fraction"] or 0) >= PASS_THRESHOLD
        and agg["waring16_fraction"] >= PASS_THRESHOLD
        and agg["chain_fraction"] >= PASS_THRESHOLD)
    return agg


def _blas_setter() -> Optional[tuple[str, str]]:
    """(path, symbol) of the thread-count setter of the OpenBLAS this process
    has loaded, or None.  The library is found by path in /proc/self/maps,
    as threadpoolctl does (https://github.com/joblib/threadpoolctl); numpy's
    bundled scipy-openblas exports the first setter, a system OpenBLAS the
    second."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:   # the path is a line's last field
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:   # no procfs: not Linux
        return None
    for path in sorted(m for m in mapped if "openblas" in os.path.basename(m)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, symbol):
                return path, symbol
    return None


def _one_blas_thread(path: str, symbol: str) -> None:
    """Pool initializer: this worker's BLAS runs one thread, so that forked
    workers do not each start a BLAS thread per core."""
    import ctypes
    setter = getattr(ctypes.CDLL(path), symbol)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)


def run_survey(config: SurveyConfig) -> SurveyReport:
    """One row per prime p <= nmax; pure function of the config.  The pool
    starts min(workers, primes, CPUs) processes, and none when that is 1."""
    seq = config.resolved_sequence()
    max_index = config.waring_max_index()
    primes = sieve_primes(config.nmax)
    jobs = [(p, seq, max_index) for p in primes]
    size = min(config.workers, len(jobs), os.cpu_count() or 1)
    if size > 1:
        blas = _blas_setter()
        if blas is None:
            print("sparsemod: no OpenBLAS found; survey workers keep its default "
                  "thread count", file=sys.stderr)
        with Pool(size, initializer=_one_blas_thread if blas else None,
                  initargs=blas or ()) as pool:
            rows = tuple(pool.map(_survey_row, jobs, chunksize=32))
    else:
        rows = tuple(_survey_row(j) for j in jobs)
    return SurveyReport(config=config, rows=rows, aggregates=_aggregate(rows))


@dataclass(frozen=True)
class OrdersReport:
    nmax: int
    threshold_exponent: float
    rows: tuple[PrimeRecord, ...]
    z_fraction: float          # share of primes with z(p) > p^threshold
    t_fraction: Optional[float]  # same for ord_p(2); p = 2 excluded


def orders_survey(nmax: int, threshold_exponent: float = 0.5) -> OrdersReport:
    """How often are z(p) and ord_p(2) large? The rows come from one
    order_table sweep; exact boundary comparisons: z > p^(a/b) is tested
    as z^b > p^a, and a threshold whose powers would pass POWER_BITS bits
    is refused before the sweep."""
    thr = exact_fraction(threshold_exponent)
    if thr < 0:
        raise ConfigError("threshold must be >= 0")
    primes = sieve_primes(nmax)
    if not primes:
        raise ConfigError(f"no primes <= {nmax}")
    if primes[-1].bit_length() * max(thr.numerator, thr.denominator) > POWER_BITS:
        raise GuardError(f"threshold {thr} too fine-grained for exact comparison")
    rows = tuple(order_table(primes))
    for rec in rows:
        if isinstance(rec, InvariantError):
            raise rec

    def large(order: int, p: int) -> bool:
        return order**thr.denominator > p**thr.numerator

    t_rows = [r for r in rows if r.t_p is not None]
    return OrdersReport(
        nmax=nmax, threshold_exponent=float(thr), rows=rows,
        z_fraction=sum(large(r.z_p, r.p) for r in rows) / len(rows),
        t_fraction=(sum(large(r.t_p, r.p) for r in t_rows) / len(t_rows)
                    if t_rows else None))


def _config_dict(config: SurveyConfig) -> dict:
    # worker count changes scheduling, never results; keep it out of the output
    return {"nmax": config.nmax, "sequence": config.resolved_sequence().label()}


def _write_csv(report: SurveyReport, fh) -> None:
    """The rows as CSV; one comment line pins the schema version."""
    fh.write(f"# {SCHEMA}\n")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report.rows:
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                    for v in (getattr(r, name) for name in CSV_COLUMNS)])


def _write_json(report: SurveyReport, fh) -> None:
    # every row value is an int, a float, a str or None: no deep copy needed
    payload = {
        "schema": SCHEMA,
        "config": _config_dict(report.config),
        "rows": [{name: getattr(r, name) for name in CSV_COLUMNS} for r in report.rows],
        "aggregates": report.aggregates,
    }
    json.dump(payload, fh, sort_keys=True, indent=2)
    fh.write("\n")


def survey_csv(report: SurveyReport) -> str:
    buf = io.StringIO()
    _write_csv(report, buf)
    return buf.getvalue()


def survey_json(report: SurveyReport) -> str:
    buf = io.StringIO()
    _write_json(report, buf)
    return buf.getvalue()


def write_report(report: SurveyReport, path: str, fmt: str) -> None:
    """Encode the report straight into the file at path, chunk by chunk."""
    if fmt == "csv":
        write = _write_csv
    elif fmt == "json":
        write = _write_json
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        write(report, fh)
