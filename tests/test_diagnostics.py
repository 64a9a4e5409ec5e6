"""The self-test property suite, including a fault-injection probe showing
the suite actually detects a broken invariant."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import conewalk
import conewalk.diagnostics as diagnostics
import conewalk.linsys as linsys
from conewalk import Poly, ValidationError, make_cone, pivot_identity_residual, self_test
from conewalk.diagnostics import _PROPERTIES


def test_self_test_exact_properties_fast():
    results = self_test(seed=0, float_bits=64)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(results) >= 20
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_self_test_refuses_a_precision_below_8_bits(monkeypatch):
    """A precision no float field takes raises before any property runs,
    rather than coming back as failed properties."""
    calls = []
    monkeypatch.setattr(diagnostics, "_PROPERTIES", [("probe", lambda rng, bits: calls.append(bits))])
    with pytest.raises(ValidationError, match="float_bits 4"):
        self_test(float_bits=4)
    assert calls == []
    self_test(float_bits=8)
    assert calls == [8]


def test_fault_injection_detected(monkeypatch):
    """Sabotaging the classical wedge polynomial must break the pivot
    identity; a check that still passes would be vacuous."""
    good = pivot_identity_residual(5, make_cone(4))
    assert good == 0

    def wrong_im_power(n):
        return Poly({(n - 1, 1): Fraction(n + 1)})  # wrong leading coefficient

    monkeypatch.setattr(linsys, "im_power", wrong_im_power)
    assert pivot_identity_residual(5, make_cone(4)) != 0


def test_self_test_draws_do_not_depend_on_hash_seed():
    """`self-test --seed 0` must draw the same cases in every process.  The
    real properties do not print their draws, so each is swapped for one
    that prints its first draw, and the CLI output is compared under two
    str-hash salts."""
    code = (
        "import sys\n"
        "from conewalk import diagnostics\n"
        "from conewalk.cli import main\n"
        "diagnostics._PROPERTIES[:] = [(n, lambda rng, bits: repr(rng.random()))\n"
        "                              for n, _ in diagnostics._PROPERTIES]\n"
        "sys.exit(main(['self-test', '--seed', '0']))\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    outs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=salt)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    draws = [line.split(": ")[1] for line in outs[0].splitlines()]
    assert len(draws) == len(_PROPERTIES) and all(0 <= float(d) < 1 for d in draws)
