"""Divisibility-order topology on finite fragments of integral domains."""

from .checks import (
    CheckReport,
    check_nested,
    check_t0,
    dense_open_check,
    density_check,
    isolated_points,
    maximal_basic_open,
    no_disjoint_nbhd_witness,
    noetherian_chain,
    non_compact_witness,
    non_regular_witness,
    t1_failure_witness,
    ultraconnected_witness,
)
from .formats import (
    fragment_from_json,
    fragment_to_dot,
    fragment_to_json,
    report_to_json,
)
from .primes import prime_stream
from .rings import (
    ClassId,
    Gauss,
    Poly,
    PPow,
    Ring,
    Root5,
    make_ring,
)
from .topology import Fragment, PointSet, build_fragment

__all__ = [
    "CheckReport",
    "ClassId",
    "Fragment",
    "Gauss",
    "PPow",
    "PointSet",
    "Poly",
    "Ring",
    "Root5",
    "build_fragment",
    "check_nested",
    "check_t0",
    "dense_open_check",
    "density_check",
    "fragment_from_json",
    "fragment_to_dot",
    "fragment_to_json",
    "isolated_points",
    "make_ring",
    "maximal_basic_open",
    "no_disjoint_nbhd_witness",
    "noetherian_chain",
    "non_compact_witness",
    "non_regular_witness",
    "prime_stream",
    "report_to_json",
    "t1_failure_witness",
    "ultraconnected_witness",
]

__version__ = "0.1.0"
