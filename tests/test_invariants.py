"""Invariants that guard the mathematics are raised exceptions, never
`assert` statements, which `python -O` strips."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubicperiods
from cubicperiods import (
    ConjugateVector,
    GroupRingElement,
    factorize,
    match_fields,
    validate_conductor,
)

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
        factorize(819),
        wild,
        rec.representation,
        rec.shanks_params,
        rec.predicted_poly,
        rec.representation.unit,
        GroupRingElement(1, 0, 0),
        ConjugateVector(1.0, 2.0, 3.0),
        rec.periods,
        rec,
        rec.verdicts["main_identity"],
    ]
    assert len({type(v) for v in values}) == 11
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
        from cubicperiods.eisenstein import ONE, EisensteinInt

        def outcome(call, *args):
            try:
                call(*args)
            except Exception as exc:
                return f"{{type(exc).__name__}}: {{exc}}"
            return "no error"

        print(sys.flags.optimize)
        # a rho step that returns a non-divisor of 1009 * 1013
        arith._brent_rho = lambda n: 7
        print(outcome(arith.factorize, 1009 * 1013))
        # a factorization of 7 as 13
        arith.factorize = lambda m: arith.Factorization(m, ((13, 1),))
        print(outcome(arith.validate_conductor, 7))
        # 4 + 3*zeta3 gives (M, N) = (5, 1), and 25 + 27 is not 4*7
        f = arith.Conductor(7, arith.Kind.TAME, (7,), 1)
        quadform.rhs_elements = lambda f: [(EisensteinInt(4, 3), ONE, ())]
        print(outcome(quadform.representations, f))
        # 28 + 21*zeta3 gives (M, N) = (35, 7) and n1 = n2 = 7 for 637 = 7^2*13
        f = arith.Conductor(637, arith.Kind.TAME, (7, 13), 2)
        quadform.rhs_elements = lambda f: [(EisensteinInt(28, 21), ONE, ())]
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
        "ValueError: inconsistent Conductor fields",
        "FactorizationMismatch: conductor 7: EisensteinInt(a=4, b=3) gives no "
        "normalized pair ((M, N) does not solve 4f = M^2 + 27N^2)",
        "FactorizationMismatch: conductor 637: EisensteinInt(a=28, b=21) gives no "
        "normalized pair (n1 and n2 are not coprime)",
    ]
