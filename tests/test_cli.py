"""Command-line interface: output contracts and exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import conewalk
from conewalk.cli import EXIT_CHECK, EXIT_OK, EXIT_VALIDATION, main
from conftest import W_A, W_B, W_C


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_matrix_frozen(capsys):
    rc, out, _ = run(capsys, "matrix", "--n", "3", "--b", "1")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["rows"] == [
        ["3", "0", "1", "0"],
        ["0", "1", "0", "3"],
        ["1", "0", "0", "0"],
        ["1", "1", "1", "1"],
    ]


def test_harmonic_m2(capsys):
    rc, out, _ = run(capsys, "harmonic", "--m", "2", "--walk", "simple")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["h"]["terms"] == [{"c": "2", "i": 1, "j": 1}]
    assert obj["boundary_ok"] and obj["residual_max"] == 0.0


def test_harmonic_lifts_the_walk_moments_into_the_float_cone(capsys):
    rc, out, _ = run(capsys, "harmonic", "--m", "5", "--walk", "simple")
    assert rc == EXIT_OK and json.loads(out)["boundary_ok"] is True


#: a walk whose transform needs sqrt(2) and sqrt(3), so it runs on float:256
W_ATOMS = [((1, 0), "1/4"), ((-1, 0), "1/4"), ((0, 1), "1/6"), ((0, -1), "1/6"), ((0, 0), "1/6")]


def write_walk(tmp_path, atoms):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"atoms": [{"dy": list(dy), "p": p} for dy, p in atoms]}))
    return str(path)


def test_harmonic_m2_on_a_float_table(tmp_path, capsys):
    for argv in (("--walk", "skewed", "--backend", "float:256"),
                 ("--walk", write_walk(tmp_path, W_ATOMS))):
        rc, out, _ = run(capsys, "harmonic", "--m", "2", *argv)
        assert rc == EXIT_OK, argv
        assert json.loads(out)["boundary_ok"] is True, argv


def test_verify_a_float_transform_walk(tmp_path, capsys):
    path = write_walk(tmp_path, W_ATOMS)
    for argv in (("--m", "4"), ()):
        rc, out, _ = run(capsys, "verify", "--walk", path, *argv)
        assert rc == EXIT_OK, argv
        assert json.loads(out)["failures"] == 0, argv


def test_verify_a_float_cone_over_an_exact_walk(capsys):
    """The simple walk maps through sqrt(2); its pi/5 h is float:256."""
    rc, out, _ = run(capsys, "verify", "--walk", "simple", "--m", "5", "--points", "20")
    obj = json.loads(out)
    assert rc == EXIT_OK and obj["failures"] == 0 and obj["boundary_ok"] is True
    assert 0 < obj["worst_residual"] < 1e-60


def test_harmonic_across_quadratic_fields(capsys):
    """The diagonal walk's moments lie in Q(sqrt 3), tan(pi/8) in Q(sqrt 2)."""
    for cmd in ("harmonic", "verify"):
        rc, out, _ = run(capsys, cmd, "--m", "8", "--walk", "diagonal")
        assert rc == EXIT_OK and json.loads(out)["boundary_ok"] is True, cmd


def test_backend_converts_the_walk_table_or_refuses_it(capsys):
    """--backend puts the walk's moments into the named field: the diagonal
    walk's Q(sqrt 3) moments are not in Q (exit 2), and in Q(sqrt 3) the
    output is the one without --backend."""
    argv = ("harmonic", "--m", "6", "--walk", "diagonal")
    rc, out, err = run(capsys, *argv, "--backend", "rational")
    assert rc == EXIT_VALIDATION and out == ""
    assert "validation" in err and "quad:3" in err and "rational" in err
    rc, want, _ = run(capsys, *argv)
    assert rc == EXIT_OK
    rc, out, _ = run(capsys, *argv, "--backend", "quad:3")
    assert rc == EXIT_OK and out == want


#: rho = -1/6: the transform needs sqrt(35) and sqrt(6), so it is float:256
FLOAT_ATOMS = [((1, -1), "1/10"), ((-1, 1), "1/10"), ((1, 0), "1/5"), ((-1, 0), "1/5"),
               ((0, 1), "1/5"), ((0, -1), "1/5")]


def test_an_exact_backend_refuses_a_float_walk_table(tmp_path, capsys):
    """A float:256 moment table is not in Q or Q(sqrt 3): --backend
    refuses it (exit 2) instead of failing in Fraction(mpf)."""
    path = write_walk(tmp_path, FLOAT_ATOMS)
    for argv in (("exit-moments", "--k", "1", "--backend", "rational"),
                 ("exit-moments", "--k", "1", "--backend", "quad:3"),
                 ("harmonic", "--m", "3", "--backend", "quad:3")):
        rc, out, err = run(capsys, *argv, "--walk", path)
        assert rc == EXIT_VALIDATION and out == "", argv
        assert "float:256 moments are not in" in err, argv


def test_a_non_integer_jump_or_moment_index_exits_2(tmp_path, capsys):
    """A jump of 1.5, a moment order of 4.5 or a moment index k of 1.5 is
    invalid input, never truncated to an integer."""
    from conewalk import push_moments, skewed_walk
    from conewalk.jsonio import moments_to_obj

    atoms = [((1.5, 0), "1/4"), ((-1, 0), "1/4"), ((0, 1), "1/4"), ((0, -1), "1/4")]
    rc, out, err = run(capsys, "transform", "--walk", write_walk(tmp_path, atoms))
    assert rc == EXIT_VALIDATION and out == "" and "jump must be an integer" in err
    for key, edit in (("order", lambda obj: obj.update(order=4.5)),
                      ("k", lambda obj: obj["mu"].append({"k": 1.5, "l": 2, "v": "7"}))):
        obj = moments_to_obj(push_moments(skewed_walk(), 4))
        edit(obj)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "harmonic", "--m", "3", "--moments", str(path))
        assert rc == EXIT_VALIDATION and out == "", key
        assert f"{key} must be an integer" in err, key


def test_harmonic_refuses_a_backend_that_cannot_hold_the_slope(capsys):
    """--backend quad:2 cannot hold tan(pi/3): harmonic refuses it as
    exit-moments does, instead of building in float:256."""
    for argv in (("harmonic",), ("exit-moments", "--k", "1")):
        rc, out, err = run(capsys, *argv, "--m", "3", "--walk", "diagonal", "--backend", "quad:2")
        assert rc == EXIT_VALIDATION and out == "", argv
        assert "tan(pi/3) not representable in quad:2" in err, argv


def test_m_other_than_the_walk_opening_warns(tmp_path, capsys, caplog):
    from conewalk import push_moments, skewed_walk
    from conewalk.jsonio import moments_to_obj

    path = tmp_path / "skewed8.json"
    path.write_text(json.dumps(moments_to_obj(push_moments(skewed_walk(), 8))))
    rc, want, _ = run(capsys, "harmonic", "--m", "8", "--moments", str(path))
    assert rc == EXIT_OK and not caplog.records
    rc, out, _ = run(capsys, "harmonic", "--m", "8", "--walk", "skewed")
    assert rc == EXIT_OK and out == want  # the skewed walk's wedge is pi/4
    for argv in (("exit-moments", "--k", "1", "--m", "8", "--walk", "skewed"),
                 ("verify", "--walk", "skewed", "--m", "8", "--points", "3")):
        run(capsys, *argv)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 3 and all("pi/4, not pi/8" in w for w in warnings)
    caplog.clear()
    run(capsys, "harmonic", "--m", "4", "--walk", "skewed")
    assert not caplog.records


def test_exit_moments_value(capsys):
    rc, out, _ = run(capsys, "exit-moments", "--k", "1", "--m", "3",
                     "--walk", "diagonal", "--at", "1,1")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["value_at"] == "-1+1*sqrt(3)"  # sqrt(3) - 1


def test_exit_moments_across_quadratic_fields(capsys):
    """The diagonal walk's order-4 moments lie in Q(sqrt 3), tan(pi/8) in
    Q(sqrt 2): the pi/8 cone is the float one the table runs over."""
    argv = ("exit-moments", "--k", "3", "--m", "8", "--walk", "diagonal", "--at", "3,1")
    rc, out, _ = run(capsys, *argv)
    assert rc == EXIT_OK
    rc, want, _ = run(capsys, *argv, "--backend", "float:256")
    assert rc == EXIT_OK and out == want


def test_exit_moments_without_cone_uses_the_walk_cone(capsys):
    rc, out, _ = run(capsys, "exit-moments", "--walk", "skewed", "--k", "1", "--at", "1,1")
    rc4, out4, _ = run(capsys, "exit-moments", "--walk", "skewed", "--k", "1", "--at", "1,1",
                       "--m", "4")
    assert rc == rc4 == EXIT_OK and out == out4


def test_exit_moments_general_angle_walk(tmp_path, capsys):
    import mpmath

    atoms = [((1, -1), "1/10"), ((-1, 1), "1/10"), ((1, 0), "1/5"), ((-1, 0), "1/5"),
             ((0, 1), "1/5"), ((0, -1), "1/5")]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"atoms": [{"dy": list(dy), "p": p} for dy, p in atoms]}))
    with mpmath.workprec(256):  # floats print with as many digits as the ambient precision
        rc, out, _ = run(capsys, "exit-moments", "--walk", str(path), "--k", "1")
    assert rc == EXIT_OK
    terms = {(t["i"], t["j"]): t["c"] for t in json.loads(out)["G"]["terms"]}
    assert set(terms) == {(1, 1), (0, 2)}  # G = x2*(b*x1 - x2)
    with mpmath.workprec(256):
        assert mpmath.mpf(terms[(0, 2)]) == -1
        b = mpmath.mpf(terms[(1, 1)])
        assert abs(b - 2 * mpmath.sqrt(2)) <= mpmath.mpf(2) ** -128


def test_exit_moments_admits_a_wedge_just_below_pi_over_2(capsys):
    """A slope of 1e12 makes pi/alpha = 2 + 1.3e-12, so E[tau] is finite:
    G = x2*(1e12 x1 - x2) with a zero drift residual.  The resonant
    openings pi/2 and pi/3 refuse it and E[tau^2], printing pi/alpha."""
    rc, out, _ = run(capsys, "exit-moments", "--k", "1", "--b", "1000000000000", "--walk", "skewed")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["G"]["terms"] == [{"i": 0, "j": 2, "c": "-1"}, {"i": 1, "j": 1, "c": "1000000000000"}]
    assert obj["residual_max"] == 0.0
    rc, _, err = run(capsys, "exit-moments", "--k", "1", "--m", "2", "--walk", "skewed")
    assert rc == EXIT_VALIDATION and "pi/alpha = 2 <= 2" in err
    rc, _, err = run(capsys, "exit-moments", "--k", "2", "--walk", "diagonal")
    assert rc == EXIT_VALIDATION and "pi/alpha = 3 <= 4" in err


def test_transform_skewed(capsys):
    rc, out, _ = run(capsys, "transform", "--walk", "skewed")
    obj = json.loads(out)
    assert rc == EXIT_OK
    assert (obj["t11"], obj["t12"], obj["t22"]) == ("2", "2", "2")
    assert obj["m"] == 4


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--walk", "skewed", "--points", "30")
    assert rc == EXIT_OK and json.loads(out)["failures"] == 0


def test_self_test_exit_codes(capsys, monkeypatch):
    from fractions import Fraction

    import conewalk.linsys as linsys
    from conewalk import Poly

    rc, out, _ = run(capsys, "self-test", "--float-bits", "64")
    assert rc == EXIT_OK and "FAIL" not in out
    # sabotage an invariant: the suite must notice and exit with the
    # check-failure code
    monkeypatch.setattr(linsys, "im_power", lambda n: Poly({(n - 1, 1): Fraction(n + 1)}))
    rc, out, _ = run(capsys, "self-test", "--float-bits", "64")
    assert rc == EXIT_CHECK and "FAIL" in out


def test_self_test_refuses_a_precision_below_8_bits(capsys):
    """A precision FloatBackend refuses is a validation error, exit 2,
    before any property runs: no property line is printed."""
    rc, out, err = run(capsys, "self-test", "--float-bits", "4")
    assert rc == EXIT_VALIDATION and out == ""
    assert "validation" in err and "--float-bits 4" in err


def test_verify_refuses_fewer_than_one_point(capsys):
    for points in ("0", "-5"):
        rc, out, err = run(capsys, "verify", "--walk", "skewed", "--points", points)
        assert rc == EXIT_VALIDATION and out == ""
        assert "validation" in err and "--points" in err


def test_backend_only_where_it_is_read(capsys):
    """transform, verify, simulate and alt-eliminate read no --backend, so
    they refuse it (exit 2) instead of ignoring it."""
    for argv in (("transform", "--walk", "skewed"), ("verify", "--walk", "skewed", "--points", "5"),
                 ("simulate", "--walk", "diagonal", "--paths", "100"),
                 ("alt-eliminate", "--j", "1", "--k", "0", "--m", "4")):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--backend", "float:64"])
        assert exit_.value.code == EXIT_VALIDATION, argv
        assert "unrecognized arguments: --backend" in capsys.readouterr().err, argv


def test_simulate_help_names_the_simulators_checks(capsys, monkeypatch):
    from conewalk.sim import KNOWN_CHECKS

    monkeypatch.setenv("COLUMNS", "200")  # no name broken at its hyphen
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert f"{', '.join(KNOWN_CHECKS)} (default tau-mean)" in capsys.readouterr().out


def test_simulate_json(capsys):
    rc, out, _ = run(capsys, "simulate", "--walk", "diagonal", "--paths", "20000",
                     "--seed", "1", "--check", "tau-mean")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["checks"][0]["name"] == "tau-mean"
    assert obj["checks"][0]["target"] == 2.0


def test_alt_eliminate(capsys):
    rc, out, _ = run(capsys, "alt-eliminate", "--j", "1", "--k", "0", "--m", "4")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["F"]["terms"]  # nonempty


def test_validation_exit_code(capsys):
    rc, _, err = run(capsys, "matrix", "--n", "1", "--b", "1")
    assert rc == EXIT_VALIDATION and "validation" in err
    rc, _, err = run(capsys, "harmonic", "--m", "3", "--walk", "/no/such/file.json")
    assert rc == EXIT_VALIDATION
    rc, _, err = run(capsys, "exit-moments", "--k", "2", "--m", "3", "--walk", "diagonal")
    assert rc == EXIT_VALIDATION and "moment-not-finite" in err


def test_a_zero_denominator_exits_2_in_every_field(tmp_path, capsys):
    """"1/0" as a slope, a point or a moment entry is invalid input, never
    a ZeroDivisionError."""
    for backend in ((), ("--backend", "quad:3"), ("--backend", "float:64")):
        rc, _, err = run(capsys, "matrix", "--n", "3", "--b", "1/0", *backend)
        assert rc == EXIT_VALIDATION and "zero denominator" in err, backend
    rc, _, err = run(capsys, "exit-moments", "--k", "1", "--m", "3", "--walk", "diagonal", "--at", "1/0,1")
    assert rc == EXIT_VALIDATION and "zero denominator" in err
    entries = {(0, 0): "1", (1, 0): "0", (0, 1): "0", (2, 0): "1/0", (1, 1): "0", (0, 2): "1"}
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"order": 2, "mu": [{"k": k, "l": l, "v": v} for (k, l), v in entries.items()]}))
    rc, _, err = run(capsys, "harmonic", "--m", "2", "--moments", str(path))
    assert rc == EXIT_VALIDATION and "zero denominator" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    rc, out, _ = run(capsys, "matrix", "--n", "3", "--b", "1", "--out", str(path))
    assert rc == EXIT_OK and out == ""
    assert json.loads(path.read_text())["n"] == 3


def test_walk_json_file(tmp_path, capsys):
    obj = {"atoms": [{"dy": [1, 0], "p": "1/4"}, {"dy": [-1, 0], "p": "1/4"},
                     {"dy": [0, 1], "p": "1/4"}, {"dy": [0, -1], "p": "1/4"}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "transform", "--walk", str(path))
    assert rc == EXIT_OK and json.loads(out)["m"] == 2


def test_pretty_format(capsys):
    rc, out, _ = run(capsys, "matrix", "--n", "2", "--b", "1", "--format", "pretty")
    assert rc == EXIT_OK and out.startswith("n: 2")


#: the exact commands of the cold-CLI benchmark, then its float:256 one
EXACT_COMMANDS = (
    ["harmonic", "--m", "4", "--walk", "skewed"],
    ["exit-moments", "--k", "1", "--m", "3", "--walk", "diagonal", "--at", "1,1"],
    ["exit-moments", "--k", "3", "--m", "8", "--walk", "skewed"],
    ["matrix", "--n", "8", "--m", "12"],
    ["transform", "--walk", "skewed"],
    ["verify", "--walk", "skewed", "--points", "200"],
    ["simulate", "--walk", "diagonal", "--paths", "20000"],
)
FLOAT_COMMAND = ["harmonic", "--m", "8", "--walk", "skewed", "--backend", "float:256"]


def test_exact_work_leaves_mpmath_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "import conewalk, conewalk.cli\n"
        "assert 'mpmath' not in sys.modules, 'mpmath loaded by import conewalk'\n"
        f"for argv in {list(EXACT_COMMANDS)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert conewalk.cli.main(argv) == 0, argv\n"
        "    assert 'mpmath' not in sys.modules, f'mpmath loaded by {argv}'\n"
        "assert conewalk.converse_angle_test(3, conewalk.make_cone(3)).resonant\n"
        "assert 'mpmath' not in sys.modules, 'mpmath loaded by an exact slope test'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert conewalk.cli.main({FLOAT_COMMAND!r}) == 0\n"
        "assert 'mpmath' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cone_log_through_the_entry_point():
    """In a fresh interpreter, where the CLI imports logging only when it
    is used: CONE_LOG=debug prints the solver's degree-pass lines on stderr
    and leaves stdout as it is, and without CONE_LOG a warning and a
    ConewalkError's error line still print."""
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = {k: v for k, v in os.environ.items() if k != "CONE_LOG"}
    env["PYTHONPATH"] = src

    def cli(*argv, **extra):
        return subprocess.run([sys.executable, "-m", "conewalk.cli", *argv],
                              env=dict(env, **extra), capture_output=True, text=True)

    argv = ("harmonic", "--m", "6", "--walk", "diagonal")
    plain, debug = cli(*argv), cli(*argv, CONE_LOG="debug")
    assert plain.returncode == debug.returncode == EXIT_OK
    assert debug.stdout == plain.stdout and "DEBUG" not in plain.stderr
    passes = re.findall(r"^DEBUG conewalk\.exits: degree (\d+) pass: ", debug.stderr, re.M)
    assert passes == ["5", "4", "3", "2"]
    warned = cli("harmonic", "--m", "8", "--walk", "skewed")
    assert warned.returncode == EXIT_OK
    assert warned.stderr.startswith("WARNING conewalk: --m 8: ")
    refused = cli("exit-moments", "--k", "2", "--m", "3", "--walk", "diagonal")
    assert refused.returncode == EXIT_VALIDATION
    error, message = refused.stderr.splitlines()
    assert error.startswith("ERROR conewalk: moment-not-finite: ")
    assert message.startswith("error [moment-not-finite]: ")


def walk_file(directory, atoms):
    """A walk JSON file of (dy1, dy2, p) atoms."""
    path = directory / "walk.json"
    obj = {"atoms": [{"dy": [a, b], "p": str(p)} for a, b, p in atoms]}
    path.write_text(json.dumps(obj))
    return str(path)


def test_simulate_walks_whose_wedge_field_is_not_the_transforms(tmp_path, capsys):
    """E tau = y1*y2/(-sigma12) = 3 at (1,1): W_A in the float pi/3 wedge over
    a float transform, W_B in a general float wedge over a Q(sqrt 2) one."""
    for atoms, close in ((W_A, 1e-12), (W_B, 0)):
        rc, out, _ = run(capsys, "simulate", "--walk", walk_file(tmp_path, atoms),
                         "--paths", "2000")
        assert rc in (EXIT_OK, EXIT_CHECK)
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "tau-mean" and abs(check["target"] - 3) <= close


def test_a_walk_just_off_pi_over_3_keeps_its_own_wedge(tmp_path, capsys):
    """rho = -1/2 + 10^-13 is not pi/3: its slope is sqrt(1 - rho^2)/(-rho)."""
    import mpmath

    path = walk_file(tmp_path, W_C)
    rc, out, _ = run(capsys, "transform", "--walk", path)
    assert rc == EXIT_OK and json.loads(out)["m"] is None
    with mpmath.workprec(256):  # floats print with as many digits as the ambient precision
        rc, out, _ = run(capsys, "exit-moments", "--k", "1", "--walk", path)
        assert rc == EXIT_OK
        terms = {(t["i"], t["j"]): t["c"] for t in json.loads(out)["G"]["terms"]}
        rho = mpmath.mpf(-4999999999999) / 10**13
        slope = mpmath.sqrt(1 - rho * rho) / -rho
        assert abs(mpmath.mpf(terms[(1, 1)]) - slope) <= mpmath.mpf(2) ** -128
    rc, out, _ = run(capsys, "simulate", "--walk", path, "--paths", "2000")
    assert rc in (EXIT_OK, EXIT_CHECK)
    (check,) = json.loads(out)["checks"]
    assert abs(check["target"] - 2.0000000000004) < 1e-12


def test_overshooting_walk_warns_once(tmp_path, capsys, caplog):
    """The (2,-2) step can jump past the boundary; stdout is unchanged."""
    atoms = [(1, -1, Fraction(1, 4)), (-1, 1, Fraction(1, 4)), (2, -2, Fraction(1, 16)),
             (-2, 2, Fraction(1, 16)), (1, 1, Fraction(3, 16)), (-1, -1, Fraction(3, 16))]
    path = walk_file(tmp_path, atoms)
    for argv in (("harmonic", "--m", "3"), ("exit-moments", "--k", "1"),
                 ("verify", "--m", "3", "--points", "3"), ("simulate", "--paths", "500")):
        caplog.clear()
        rc, out, _ = run(capsys, *argv, "--walk", path)
        assert rc in (EXIT_OK, EXIT_CHECK) and json.loads(out), argv
        jumps = [r for r in caplog.records if "jump over the boundary" in r.getMessage()]
        assert len(jumps) == 1 and jumps[0].levelname == "WARNING", argv
    caplog.clear()
    run(capsys, "exit-moments", "--k", "1", "--walk", "diagonal")
    run(capsys, "simulate", "--walk", "diagonal", "--paths", "500")
    assert not caplog.records


#: the steps +-v of the random symmetric walks below
PAIRS = ((1, 0), (0, 1), (1, 1), (1, -1))


def symmetric_walk(weights, lazy):
    """Atoms of the walk that steps +-v with weight w_v each, or stays put
    with weight lazy."""
    total = 2 * sum(weights) + lazy
    atoms = [(s * a, s * b, Fraction(p, total))
             for (a, b), p in zip(PAIRS, weights) if p for s in (1, -1)]
    return atoms + ([(0, 0, Fraction(lazy, total))] if lazy else [])


EXIT_CODE_COMMANDS = (
    ("transform",),
    ("exit-moments", "--k", "1"),
    ("verify", "--points", "20"),
    ("simulate", "--paths", "2000", "--max-steps", "1000"),
)


@settings(max_examples=12, deadline=None)
@given(atoms=st.builds(symmetric_walk, st.lists(st.integers(0, 3), min_size=4, max_size=4)
                       .filter(any), st.integers(0, 2)))
@example(atoms=W_A)
@example(atoms=W_B)
@example(atoms=W_C)
def test_every_walk_gets_an_exit_code(tmp_path_factory, atoms):
    """A result (0), an invalid input (2) or a failed check (3); never a
    traceback."""
    path = walk_file(tmp_path_factory.mktemp("walk"), atoms)
    for argv in EXIT_CODE_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*argv, "--walk", path])
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK), (argv, atoms)
