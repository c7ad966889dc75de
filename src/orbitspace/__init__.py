"""Exact computation with finite group actions.

Orbits, stabilizers, and fixed-point counts; the space of invariant
functions with its indicator basis and exact Hermitian inner product;
orbit-average Fourier projection and Bessel's inequality; restriction and
induction across invariant subsets with Frobenius reciprocity; and the
converse construction realizing any partition as the orbits of a
permutation group. All arithmetic is over the Gaussian rationals, so every
identity is checked exactly.

Each name in ``__all__`` is read from its submodule on first access (PEP 562),
so ``import orbitspace`` loads no layer until one of its names is used.
"""

from importlib import import_module

# public name -> submodule that defines it
_EXPORTS = {
    "GroupAction": "actions",
    "Partition": "actions",
    "are_equivalent": "actions",
    "validate_action": "actions",
    "CorpusEntry": "corpus",
    "NON_FREE_FAMILIES": "corpus",
    "automorphism_group": "corpus",
    "build": "corpus",
    "conjugation_action": "corpus",
    "corpus_names": "corpus",
    "coset_action": "corpus",
    "cyclic_group": "corpus",
    "default_entries": "corpus",
    "direct_product": "corpus",
    "group_by_name": "corpus",
    "small_group_catalog": "corpus",
    "translation_action": "corpus",
    "trivial_action": "corpus",
    "OrbitspaceError": "errors",
    "DEFAULT_CLOSURE_CAP": "groups",
    "FiniteGroup": "groups",
    "Subgroup": "groups",
    "from_generators": "groups",
    "group_from_table": "groups",
    "whole_group": "groups",
    "cell_transpositions": "partitions",
    "group_from_partition": "partitions",
    "preserves_cells": "partitions",
    "realized_order": "partitions",
    "InvariantSubset": "resind",
    "SubsetFunction": "resind",
    "extend_by_zero": "resind",
    "induce": "resind",
    "invariant_subset": "resind",
    "reciprocity_check": "resind",
    "restrict": "resind",
    "subset_inner_product": "resind",
    "GaussianRational": "scalars",
    "Rational": "scalars",
    "parse_rational": "scalars",
    "Decomposition": "spaces",
    "FourierCoefficient": "spaces",
    "InvariantCertificate": "spaces",
    "PointFunction": "spaces",
    "act_on_function": "spaces",
    "bessel_check": "spaces",
    "decompose": "spaces",
    "fourier_coefficients": "spaces",
    "fourier_projection": "spaces",
    "indicator_basis": "spaces",
    "inner_product": "spaces",
    "is_invariant": "spaces",
    "norm_squared": "spaces",
    "perp_zero_sum_check": "spaces",
    "strict_bessel_witness": "spaces",
    "unitarity_check": "spaces",
    "value_sum": "spaces",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
