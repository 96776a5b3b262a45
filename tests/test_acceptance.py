"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy artifacts (all field records for every conductor up to 10^4) are
computed once per session and shared across criteria.
"""

import contextlib
import random
import time
from fractions import Fraction

from conftest import (
    ConjugateVector,
    ShanksRootRing,
    apply,
    irreducibility_criterion,
    is_irreducible_cubic,
    kernel_labels,
    paper_relation,
    period_poly_mod_ell,
    shanks_poly,
    sieve_moebius,
    unit_list_p3,
)

from cubicperiods import (
    RationalCubic,
    moebius,
    numeric_period_poly,
    period_poly_formula,
    primitive_cubic_kernels,
    representations,
    shanks_params,
    substitute_affine,
    verify_main_identity,
    verify_sign_congruences,
)
from cubicperiods.cli import main

BOUND = 10_000
TOLERANCE = 1e-6


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {description} ... FAIL")
        raise
    print(f"ACCEPTANCE {num}: {description} ... PASS")


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "reference table for conductor 819, byte-exact, < 1 s"):
        main(["enumerate", "--conductor", "819"])  # warm the parser and caches
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["table", "--format", "md"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"
        for pair in ("(-30, 1)", "(18, 5)", "(-3, 10)", "(-18, 11)"):
            assert pair in out
        assert "X^3 - 18/5*X^2 - 33/5*X - 1" in out
        for poly in (
            "X^3 - 273*X + 1729",
            "X^3 - 273*X - 1547",
            "X^3 - 273*X - 728",
            "X^3 - 273*X + 91",
        ):
            assert poly in out
        # byte-exact determinism across invocations
        main(["table", "--format", "md"])
        assert capsys.readouterr().out == out


def test_criterion_2_main_identity_wild(conductors_10k):
    with criterion(2, f"exact affine identity, every wild conductor <= {BOUND}"):
        start = time.perf_counter()
        count = 0
        for cond in conductors_10k:
            if cond.kind != "wild":
                continue
            for rep in representations(cond):
                poly = period_poly_formula(cond, rep.M)
                assert verify_main_identity(cond, shanks_params(rep), poly) == 0.0
                count += 1
        elapsed = time.perf_counter() - start
        assert count > 0
        assert elapsed < 30.0, f"wild identity sweep took {elapsed:.1f}s"


def test_criterion_3_main_identity_tame(conductors_10k):
    with criterion(3, f"exact affine identity, every tame conductor <= {BOUND}"):
        start = time.perf_counter()
        count = 0
        for cond in conductors_10k:
            if cond.kind != "tame":
                continue
            for rep in representations(cond):
                poly = period_poly_formula(cond, rep.M)
                assert verify_main_identity(cond, shanks_params(rep), poly) == 0.0
                count += 1
        elapsed = time.perf_counter() - start
        assert count > 0
        assert elapsed < 30.0, f"tame identity sweep took {elapsed:.1f}s"


def test_criterion_4_period_relation(all_records_10k):
    with criterion(4, f"period relation within 1e-6, every conductor <= {BOUND}"):
        for records in all_records_10k.values():
            for rec in records:
                assert rec.verdicts["period_relation"] < TOLERANCE


def test_criterion_5_oracle_equivalence(all_records_10k):
    with criterion(5, "numeric period polynomial equals the closed form"):
        for records in all_records_10k.values():
            for rec in records:
                assert "oracle_equivalence" in rec.verdicts
                assert numeric_period_poly(rec.conductor, rec.periods) == rec.period_poly


def test_criterion_6_counting(conductors_10k, all_records_10k):
    with criterion(6, "2^(nu-1) / 2^nu counting and bijective matching"):
        for cond in conductors_10k:
            expected = 2 ** (cond.nu - 1) if cond.kind == "tame" else 2**cond.nu
            reps = representations(cond)
            kernels = primitive_cubic_kernels(cond)
            records = all_records_10k[cond.value]
            assert len(reps) == len(kernels) == len(records) == expected
            assert {rec.periods.kernel for rec in records} == set(kernels)
            assert {rec.representation for rec in records} == set(reps)
            # the kernels cut out distinct fields: from the definition of the
            # periods, in F_ell, one period polynomial per kernel and per pair
            polys = {period_poly_mod_ell(cond, kernel_labels(cond, v)) for v in kernels}
            assert polys == {rec.period_poly for rec in records}
            assert len(polys) == expected


def test_criterion_7_sign_congruences(conductors_10k, all_records_10k):
    with criterion(7, f"exact sign congruences on every wild record <= {BOUND}"):
        count = 0
        for cond in conductors_10k:
            if cond.kind != "wild":
                continue
            for rec in all_records_10k[cond.value]:
                verify_sign_congruences(rec)
                count += 1
        assert count > 0


def test_criterion_8_group_ring_suite(all_records_10k):
    with criterion(8, "group-ring units and generator action on wild records <= 10^3"):
        tame_units = unit_list_p3(wild=False)
        wild_units = unit_list_p3(wild=True)
        assert len(tame_units) == 6 and len(wild_units) == 12
        signs = [(s, t) for s in (1, -1) for t in (1, -1)]
        checked = 0
        for value, records in all_records_10k.items():
            if value > 1000 or not records[0].conductor.is_wild:
                continue
            for rec in records:
                # the twelve units on alpha + 1 in Q[rho]/(f_n), alpha_j =
                # n2*rho_j + shift: exactly the twelve +-alpha^(i) +- 1
                sp = rec.shanks_params
                ring = ShanksRootRing(sp.n1, sp.n2)
                _, shift = paper_relation(rec.conductor, sp.n1)
                alphas = [ring.add(ring.scale(sp.n2, r), ring.const(shift)) for r in ring.roots()]
                plus_one = [ring.add(a, ring.const(1)) for a in alphas]
                # the action on each coordinate over 1, rho, rho^2
                coordinates = [ConjugateVector(*(v[k] for v in plus_one)) for k in range(3)]
                images = {tuple(apply(u, c).x0 for c in coordinates) for u in wild_units}
                expected = {
                    ring.add(ring.scale(s, a), ring.const(t)) for a in alphas for s, t in signs
                }
                assert len(expected) == 12 and images == expected, (value, sp)
                checked += 1
        assert checked > 0


def test_criterion_9a_moebius_sieve():
    with criterion(9, "Moebius agrees with an independent sieve up to 10^6"):
        limit = 1_000_000
        mu = sieve_moebius(limit)
        for m in range(1, limit + 1):
            assert moebius(m) == mu[m], m


def test_criterion_9b_irreducibility_implication(conductors_10k):
    with criterion(9, f"irreducibility criterion implies no rational root, pairs <= {BOUND}"):
        for cond in conductors_10k:
            for rep in representations(cond):
                sp = shanks_params(rep)
                if irreducibility_criterion(sp.n1, sp.n2):
                    assert is_irreducible_cubic(shanks_poly(Fraction(sp.n1, sp.n2)))


def test_criterion_9c_affine_round_trip():
    with criterion(9, "affine substitution round trip on 1000 random cubics"):
        rng = random.Random(819)
        for _ in range(1000):
            poly = RationalCubic(
                *[Fraction(rng.randint(-60, 60), rng.randint(1, 15)) for _ in range(4)]
            )
            a = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            assert substitute_affine(substitute_affine(poly, a, b), 1 / a, -b / a) == poly
