"""Sparse integer sequences modulo primes, at desk scale.

Collision counts J(N) across all primes p <= N, value-set sizes of
Fibonacci-like blocks mod p, Waring-type representations by 16 (or s = 4k
short-index) Fibonacci numbers, and L1 norms of the associated incomplete
exponential sums, each backed by an independent exact oracle.
"""

from .errors import (ConfigError, ConstructionError, GuardError,
                     InvariantError)
from .numtheory import (PrimeRecord, fib_mod, ipow_floor,
                        is_prime, is_primitive_root, least_primitive_root,
                        legendre, legendre5, lucas_mod, mult_order,
                        order_of_appearance, order_of_appearance_scan,
                        prime_record, sieve_primes)
from .valueset import (CollisionStats, JTotal, ResidueMultiset, SequenceSpec,
                       collision_stats, digit_magnitude,
                       j_total, j_total_pairscan, value_set_survey)
from .sumsets import (CoverResult, EpsRepresentation, GlibichukResult,
                      ResidueSet, TernaryReport, WaringEpsParams,
                      WaringRepresentation, glibichuk_check, k_fold_sumset,
                      product_set, ternary_count, waring_constructive,
                      waring_eps_params, waring_eps_verify, waring_fib_direct)
from .expsums import (FibLittlewood, NormReport, PowLittlewood,
                      additive_energy_direct, l1_full_scan, littlewood_fib,
                      littlewood_pow, norm_report)
from .survey import (OrdersReport, SurveyConfig, SurveyReport, orders_survey,
                     run_survey, survey_csv, survey_json, write_report)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConstructionError", "GuardError", "InvariantError",
    "PrimeRecord", "fib_mod", "ipow_floor", "is_prime",
    "is_primitive_root", "least_primitive_root", "legendre", "legendre5",
    "lucas_mod", "mult_order", "order_of_appearance",
    "order_of_appearance_scan", "prime_record", "sieve_primes",
    "CollisionStats", "JTotal", "ResidueMultiset", "SequenceSpec",
    "collision_stats", "digit_magnitude", "j_total", "j_total_pairscan",
    "value_set_survey",
    "CoverResult", "EpsRepresentation", "GlibichukResult", "ResidueSet",
    "TernaryReport", "WaringEpsParams", "WaringRepresentation",
    "glibichuk_check", "k_fold_sumset", "product_set",
    "ternary_count", "waring_constructive", "waring_eps_params",
    "waring_eps_verify", "waring_fib_direct",
    "FibLittlewood", "NormReport", "PowLittlewood",
    "additive_energy_direct", "l1_full_scan", "littlewood_fib",
    "littlewood_pow", "norm_report",
    "OrdersReport", "SurveyConfig", "SurveyReport", "orders_survey",
    "run_survey", "survey_csv", "survey_json", "write_report",
]
