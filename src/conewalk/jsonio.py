"""Canonical JSON round-trips for polynomials, walks, moment tables and
matrices.  Output is deterministic (sorted keys, fixed scalar string forms)
so emitted artifacts are diffable golden files."""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationError, integer
from .poly import Poly
from .scalars import Backend, RATIONAL, format_scalar
from .walks import MomentTable, WalkSpec


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def poly_to_obj(p: Poly) -> dict:
    terms = [
        {"i": i, "j": j, "c": format_scalar(c)}
        for (i, j), c in sorted(p.terms.items())
    ]
    return {"terms": terms}


def poly_from_obj(obj: dict, backend: Backend = RATIONAL) -> Poly:
    try:
        terms = obj["terms"]
    except (KeyError, TypeError):
        raise ValidationError("polynomial object must have a 'terms' list")
    out = {}
    for t in terms:
        try:
            i, j, c = integer(t["i"], "i", 0), integer(t["j"], "j", 0), backend.parse(t["c"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"bad polynomial term {t!r}: {e}")
        out[(i, j)] = c
    return Poly(out)


def walk_to_obj(w: WalkSpec) -> dict:
    atoms = [
        {"dy": [a, b], "p": str(p)} for a, b, p in sorted(w.atoms, key=lambda t: (t[0], t[1]))
    ]
    return {"atoms": atoms}


def walk_from_obj(obj: dict) -> WalkSpec:
    try:
        atoms = obj["atoms"]
    except (KeyError, TypeError):
        raise ValidationError("walk object must have an 'atoms' list")
    triples = []
    for a in atoms:
        try:
            dy = a["dy"]
            triples.append((dy[0], dy[1], Fraction(a["p"])))
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as e:
            raise ValidationError(f"bad walk atom {a!r}: {e}")
    return WalkSpec(triples)


def moments_to_obj(mu: MomentTable) -> dict:
    entries = [
        {"k": k, "l": l, "v": format_scalar(v)} for (k, l), v in sorted(mu.mu.items())
    ]
    return {"order": mu.order, "mu": entries}


def moments_from_obj(obj: dict, backend: Backend) -> MomentTable:
    try:
        order = obj["order"]
        entries = obj["mu"]
    except (KeyError, TypeError):
        raise ValidationError("moment object must have 'order' and 'mu'")
    mu = {}
    for e in entries:
        try:
            mu[(integer(e["k"], "k", 0), integer(e["l"], "l", 0))] = backend.parse(e["v"])
        except (KeyError, TypeError, ValueError) as err:
            raise ValidationError(f"bad moment entry {e!r}: {err}")
    return MomentTable(order=order, mu=mu, backend=backend)


def matrix_to_obj(rows) -> list:
    return [[format_scalar(v) for v in row] for row in rows]
