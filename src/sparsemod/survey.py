"""Per-prime surveys over p <= N, with deterministic CSV/JSON reports.

For every prime the survey records the order of 2, the rank of apparition,
the Legendre symbol (5|p), the minimal Fibonacci Waring exponent at
max_index = ceil(delta(N) sqrt(N)), the exponential-sum norms of the
configured residue block, and its value-set statistics.  Aggregates are
plain means of row indicators, so the report is a pure function of its
config: rerunning the same config must reproduce the output byte for byte
(wall-clock metadata is deliberately excluded).
"""

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Optional

from .errors import ConfigError, GuardError, InvariantError
from .numtheory import PrimeRecord, exact_fraction, ipow_floor, prime_record, sieve_primes
from .valueset import ResidueMultiset, SequenceSpec, collision_stats
from .sumsets import WARING_TERMS, waring_fib_direct
from .expsums import norm_report

SCHEMA = "sparsemod-survey-v4"

# Share of rows each headline fraction must reach for headline_ok.
PASS_THRESHOLD = 0.9


def delta_of(nmax: int, rho: float) -> float:
    """The slowly growing window factor delta(N) = exp((log N)^rho)."""
    if nmax < 2:
        raise ConfigError("need nmax >= 2")
    return math.exp(math.log(nmax) ** rho)


def max_index_of(nmax: int, delta: float) -> int:
    """The Waring cover's largest Fibonacci index, ceil(delta sqrt(N))."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    return math.ceil(delta * math.sqrt(nmax))


@dataclass(frozen=True)
class SurveyConfig:
    nmax: int
    gamma: float = 0.3
    delta_exponent: float = 0.4   # rho in delta(N) = exp((log N)^rho)
    vs_delta: float = 10.0        # value-set deviation tolerance 1/vs_delta
    workers: int = 1
    sequence: Optional[SequenceSpec] = None  # default: fibonacci 1..floor(N^gamma)

    def __post_init__(self):
        if self.nmax < 2:
            raise ConfigError("need nmax >= 2")
        if not 0 < self.gamma < 1 / 3:
            raise ConfigError("gamma must lie in (0, 1/3)")
        if not 0 < self.delta_exponent < 1:
            raise ConfigError("delta_exponent must lie in (0, 1)")
        if not (self.vs_delta > 0 and math.isfinite(self.vs_delta)):
            raise ConfigError("vs_delta must be positive and finite")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolved_sequence(self) -> SequenceSpec:
        if self.sequence is not None:
            return self.sequence
        hi = ipow_floor(self.nmax, exact_fraction(self.gamma))
        return SequenceSpec.fibonacci(1, max(1, hi))

    def waring_max_index(self) -> int:
        return max_index_of(self.nmax, delta_of(self.nmax, self.delta_exponent))


@dataclass(frozen=True)
class SurveyRow:
    p: int
    t_p: Optional[int]
    z_p: Optional[int]
    legendre5: Optional[int]
    waring_s_min: Optional[int]
    waring_max_index: int
    l1: Optional[float]
    l2sq: Optional[float]
    energy: Optional[int]
    l1_ratio: Optional[float]
    vs_size: Optional[int]
    vs_distinct: Optional[int]
    status: str


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SurveyRow))


@dataclass(frozen=True)
class SurveyReport:
    schema: str
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


def _aggregate(rows: tuple[SurveyRow, ...], config: SurveyConfig) -> dict:
    n = len(rows)
    if n == 0:
        return {"rows": 0}
    d = exact_fraction(config.vs_delta)   # deviation <= 1/d, exactly
    vs_ok = [(r.vs_size - r.vs_distinct) * d <= r.vs_size
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


def run_survey(config: SurveyConfig) -> SurveyReport:
    """One row per prime p <= nmax; pure function of the config."""
    seq = config.resolved_sequence()
    max_index = config.waring_max_index()
    primes = sieve_primes(config.nmax)
    jobs = [(p, seq, max_index) for p in primes]
    if config.workers > 1 and len(jobs) > 1:
        with Pool(config.workers) as pool:
            rows = tuple(pool.map(_survey_row, jobs, chunksize=32))
    else:
        rows = tuple(_survey_row(j) for j in jobs)
    return SurveyReport(schema=SCHEMA, config=config, rows=rows,
                        aggregates=_aggregate(rows, config))


@dataclass(frozen=True)
class OrdersReport:
    nmax: int
    threshold_exponent: float
    rows: tuple[PrimeRecord, ...]
    z_fraction: float          # share of primes with z(p) > p^threshold
    t_fraction: Optional[float]  # same for ord_p(2); p = 2 excluded


def orders_survey(nmax: int, threshold_exponent: float = 0.5) -> OrdersReport:
    """How often are z(p) and ord_p(2) large? Exact boundary comparisons:
    z > p^(a/b) is tested as z^b > p^a."""
    thr = exact_fraction(threshold_exponent)
    if thr < 0:
        raise ConfigError("threshold must be >= 0")
    primes = sieve_primes(nmax)
    if not primes:
        raise ConfigError(f"no primes <= {nmax}")
    rows = tuple(prime_record(p) for p in primes)

    def large(order: int, p: int) -> bool:
        return order**thr.denominator > p**thr.numerator

    t_rows = [r for r in rows if r.t_p is not None]
    return OrdersReport(
        nmax=nmax, threshold_exponent=float(thr), rows=rows,
        z_fraction=sum(large(r.z_p, r.p) for r in rows) / len(rows),
        t_fraction=(sum(large(r.t_p, r.p) for r in t_rows) / len(t_rows)
                    if t_rows else None))


def _config_dict(config: SurveyConfig) -> dict:
    d = dataclasses.asdict(config)
    d["sequence"] = config.resolved_sequence().label()
    # worker count changes scheduling, never results; keep it out of the output
    del d["workers"]
    return d


def survey_csv(report: SurveyReport) -> str:
    """Render the rows; one comment line pins the schema version."""
    buf = io.StringIO()
    buf.write(f"# {report.schema}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report.rows:
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                    for v in dataclasses.astuple(r)])
    return buf.getvalue()


def survey_json(report: SurveyReport) -> str:
    payload = {
        "schema": report.schema,
        "config": _config_dict(report.config),
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "aggregates": report.aggregates,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(report: SurveyReport, path: str, fmt: str) -> None:
    if fmt == "csv":
        text = survey_csv(report)
    elif fmt == "json":
        text = survey_json(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)
