"""The frozen-record base class of the package's value types."""

import pytest

from conewalk import (
    CheckResult,
    ConeSpec,
    MomentTable,
    RATIONAL,
    SimConfig,
    ValidationError,
    diagonal_walk,
    make_cone,
)


def test_record_construction_equality_and_repr():
    by_position = ConeSpec(4, (1, 1), RATIONAL)
    by_keyword = ConeSpec(backend=RATIONAL, m=4, ray=(1, 1))
    assert by_position == by_keyword == make_cone(4)
    assert hash(by_position) == hash(make_cone(4))
    assert list(vars(by_keyword)) == ["m", "ray", "backend"]
    assert by_position != ConeSpec(4, (1, 2), RATIONAL) and by_position != (4, (1, 1), RATIONAL)
    assert repr(make_cone(4)) == ("ConeSpec(m=4, ray=(Fraction(1, 1), Fraction(1, 1)), "
                                  "backend=<backend rational>)")

    cfg = SimConfig(diagonal_walk(), (1, 1), 10, 0)
    assert (cfg.max_steps, cfg.checks) == (SimConfig.max_steps, SimConfig.checks) == (10_000_000, ("tau-mean",))
    assert CheckResult("tau-mean", 1.0, 0.1, 1.0, 0.0, True).note == ""
    with pytest.raises(ValidationError, match=r"missing entry \(0,2\)"):  # __post_init__
        MomentTable(2, {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 1, (1, 1): 0}, RATIONAL)

    for args, kwargs in (((4, 1), {}),                      # backend missing
                         ((4, 1, RATIONAL, 4), {}),         # one too many
                         ((4, 1, RATIONAL), {"slope": 1}),  # no such field
                         ((4, 1, RATIONAL), {"m": 4})):     # m given twice
        with pytest.raises(TypeError):
            ConeSpec(*args, **kwargs)
    with pytest.raises(AttributeError):
        by_position.m = 5
    with pytest.raises(AttributeError):
        del by_position.ray
    assert by_position.m == 4
