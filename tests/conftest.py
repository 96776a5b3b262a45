import functools
import math

import pytest

from cubicperiods import Kind, conductors_up_to, match_fields, unit_group

BOUND = 10_000


@functools.lru_cache(maxsize=4)
def _units_by_label(cond) -> dict[tuple[int, ...], list[int]]:
    """The units mod f grouped by label, built as products of powers of the
    CRT-lifted generators of unit_group: a = prod g_i^e_i has label
    (e_i mod 3)."""
    f = cond.value
    gens = unit_group(cond).generators
    classes = {(): [1 % f]}
    for g, order in gens:
        powers = [pow(g, e, f) for e in range(order)]
        grown: dict[tuple[int, ...], list[int]] = {}
        for label, units in classes.items():
            for e, p in enumerate(powers):
                grown.setdefault(label + (e % 3,), []).extend(a * p % f for a in units)
        classes = grown
    # distinct units, phi(f) of them (unit_group checks the orders against phi)
    units = [a for group in classes.values() for a in group]
    assert len(set(units)) == len(units) == math.prod(o for _, o in gens)
    return classes


def coset_sets(cond, vector) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The kernel of the coefficient vector and its two cosets, as residue
    sets: coset j holds the units whose label l satisfies vector . l = j mod 3."""
    cosets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label, units in _units_by_label(cond).items():
        cosets[sum(c * e for c, e in zip(vector, label)) % 3].extend(units)
    return tuple(frozenset(c) for c in cosets)


@pytest.fixture(scope="session")
def residue_sets():
    """coset_sets(cond, vector): the kernel and cosets of a vector as residue sets."""
    return coset_sets


@pytest.fixture(scope="session")
def conductors_10k():
    return conductors_up_to(BOUND)


@pytest.fixture(scope="session")
def all_records_10k(conductors_10k):
    """Field records for every conductor up to 10^4, computed once per run."""
    return {cond.value: match_fields(cond) for cond in conductors_10k}


@pytest.fixture(scope="session")
def wild_records_10k(conductors_10k, all_records_10k):
    return [
        rec
        for cond in conductors_10k
        if cond.kind is Kind.WILD
        for rec in all_records_10k[cond.value]
    ]
