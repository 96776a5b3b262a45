"""Invariants that guard the mathematics are raised exceptions, never
`assert` statements, which `python -O` strips."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubicperiods
from cubicperiods import match_fields, validate_conductor

PACKAGE = Path(cubicperiods.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_value_type_is_immutable():
    wild = validate_conductor(819)
    rec = match_fields(wild)[0]
    values = [
        wild,
        rec.representation,
        rec.shanks_params,
        rec.period_poly,
        rec.periods.cube,
        rec.periods,
        rec,
    ]
    assert len({type(v) for v in values}) == 7
    assert all(type(v) is float for v in rec.verdicts.values())
    mapped, bound = rec.relation
    assert type(rec.relation) is tuple and type(mapped) is tuple and len(mapped) == 3
    assert all(type(v) is float for v in (*mapped, bound))
    for value in values:
        for name in (*type(value).__annotations__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)


def test_moved_checks_raise_under_optimization():
    # The constructors check nothing: factorize, validate_conductor and
    # representations check what they build with `if ... raise`, which
    # python -O keeps.  Each check is fed a wrong intermediate here.
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(PACKAGE.parent)!r})
        from cubicperiods import arith, quadform
        from cubicperiods.eisenstein import EisensteinInt

        def outcome(call, *args):
            try:
                call(*args)
            except Exception as exc:
                return f"{{type(exc).__name__}}: {{exc}}"
            return "no error"

        print(sys.flags.optimize)
        # a p-1 step that returns a non-divisor of 1000003 * 1000033, above
        # the gate
        pm1 = arith._pollard_pm1
        arith._pollard_pm1 = lambda n: 7
        print(outcome(arith.factorize, 1000003 * 1000033))
        arith._pollard_pm1 = pm1
        # a rho step that returns a non-divisor of 1009 * 1013, below the gate
        arith._brent_rho = lambda n: 7
        print(outcome(arith.factorize, 1009 * 1013))
        # a factorization of 7 as 13
        arith.factorize = lambda m, trial=None: ((13, 1),)
        print(outcome(arith.validate_conductor, 7))
        # 4 + 3*zeta3 gives (M, N) = (5, 1), and 25 + 27 is not 4*7
        f = arith.Conductor(7, (7,))
        quadform.rhs_elements = lambda f, primes: [EisensteinInt(4, 3)]
        print(outcome(quadform.representations, f))
        # 28 + 21*zeta3 gives (M, N) = (35, 7) and n1 = n2 = 7 for 637 = 7^2*13
        f = arith.Conductor(637, (7, 13))
        quadform.rhs_elements = lambda f, primes: [EisensteinInt(28, 21)]
        print(outcome(quadform.representations, f))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "ValueError: factor product does not equal value",
        "ValueError: factor product does not equal value",
        "ValueError: inconsistent Conductor fields",
        "FactorizationMismatch: conductor 7: EisensteinInt(a=4, b=3) gives no "
        "normalized pair ((M, N) does not solve 4f = M^2 + 27N^2)",
        "FactorizationMismatch: conductor 637: EisensteinInt(a=28, b=21) gives no "
        "normalized pair (n1 and n2 are not coprime)",
    ]
