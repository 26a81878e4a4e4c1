"""Exact-arithmetic computations with strongly regular partitions and
generalised orbit algebras on the powerset of a finite ground set.

The names below are loaded on first access (PEP 562), so importing one
submodule, as each CLI command does, does not import the others."""

import importlib

_HOMES = {
    "subsets": ("GroundSet",),
    "poly": ("Poly", "from_function", "format_poly"),
    "partition": ("Partition", "coeff_matrix", "merge_blocks", "partition_from_polys",
                  "structure_constants", "verify_goa_closure", "verify_strongly_regular"),
    "perms": ("PermGroup", "close_generators", "orbit_partition", "parse_permutation",
              "partition_stabilizer"),
    "srp": ("build_counterexample", "enumerate_strongly_regular", "is_orbit_partition"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"goa.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
