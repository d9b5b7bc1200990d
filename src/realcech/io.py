"""JSON interchange for groupoids, coefficients, cochains, twists,
bundles, representations, covers, and coefficient sequences.

The groupoid format is
  {"objects": N, "arrows": [{"src": i, "tgt": j}, ...],
   "comp": [[g, h, gh], ...]  (or a full N_arr x N_arr table, -1/null = undefined),
   "inv": [...], "rho_obj": [...], "rho_arr": [...]}
Unit arrows are recovered from the composition data.  Every emitted
object re-parses to an equal value; list orderings are fixed so output
is byte-deterministic.
"""

import json
import os

import numpy as np

from .coefficients import RealCoefficientGroup, RealRepresentation, make_standard
from .groupoids import FiniteRealGroupoid, RealCover, _indices, max_arrows
from .cochains import RealComplex


class FormatError(ValueError):
    pass


def _resolve(ref):
    """A 'ref' is an inline JSON object or a file path."""
    return load_json(ref) if isinstance(ref, str) else ref


def _int(value):
    """int(value); FormatError for a number that is not an integer, which
    int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise FormatError(f"{value!r} is not an integer")
    return int(value)


def _ints(values):
    """_int of each entry of nested lists, in the same nesting."""
    return [_ints(v) for v in values] if isinstance(values, list) else _int(values)


def _fields(data, what, names):
    """The values of the keys names of a JSON object."""
    try:
        return [data[name] for name in names]
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad {what} JSON: {e}")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot parse {path}: {e}")


# -- groupoids -----------------------------------------------------------

def groupoid_from_json(data):
    """The groupoid of the JSON; FormatError if it is malformed or if its
    involution is not a 2-periodic functor (validate() then names how)."""
    g = _groupoid_from_json(data)
    bad = g.involution_failures()
    if bad:
        raise FormatError(f"bad groupoid JSON: {bad[0]}")
    return g


def _groupoid_from_json(data):
    """The groupoid of the JSON, whatever its involution (for validate)."""
    data = _resolve(data)
    try:
        n_obj = _int(data["objects"])
        arrows = data["arrows"]
        src = np.array([_int(a["src"]) for a in arrows], dtype=np.int64)
        tgt = np.array([_int(a["tgt"]) for a in arrows], dtype=np.int64)
        inv = [_int(v) for v in data["inv"]]
        rho_obj = [_int(v) for v in data["rho_obj"]]
        rho_arr = [_int(v) for v in data["rho_arr"]]
        m = len(src)
        if m > max_arrows():
            raise FormatError(f"too many arrows ({m} > RGC_MAX_ARROWS)")
        table = _comp_table(data["comp"], m, data.get("comp_format"))
        unit = _derive_units(n_obj, src, tgt, table)
        return FiniteRealGroupoid(n_obj, src, tgt, unit, table, inv,
                                  rho_obj, rho_arr)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad groupoid JSON: {e}")


def _comp_table(comp, m, comp_format):
    """The m x m table of comp: a list of [g, h, g*h] triples or a full
    table (-1/null = undefined).  A 3-arrow groupoid is ambiguous; triples
    win unless comp_format is "table"."""
    is_table = (bool(comp) and isinstance(comp[0], list)
                and len(comp) == m and all(len(r) == m for r in comp))
    if is_table and (m != 3 or comp_format == "table"):
        cells = np.array(comp, dtype=object)
        cells[np.equal(cells, None)] = -1
        table = np.array(_ints(cells.tolist()), dtype=np.int64)
        if table.shape != (m, m):
            raise ValueError("comp table is not m x m")
        return table
    triples = np.array(_ints(comp), dtype=np.int64)
    if triples.size and triples.shape[1:] != (3,):
        raise ValueError("comp entries must be [g, h, g*h] triples")
    triples = triples.reshape(-1, 3)
    pairs = triples[:, :2]
    if ((pairs < 0) | (pairs >= m)).any():
        raise ValueError("comp triple has an arrow index out of range")
    table = np.full((m, m), -1, dtype=np.int64)
    table[pairs[:, 0], pairs[:, 1]] = triples[:, 2]
    return table


def _derive_units(n_obj, src, tgt, table):
    """At each object, the first endo-arrow that acts as an identity
    wherever it composes; refused before any array of n_obj entries is
    made when there are fewer arrows than objects."""
    if n_obj > len(src):
        raise FormatError("could not locate a unit arrow for every object")
    arrows = np.arange(len(src))
    defined = table >= 0
    identity = ~((defined & (table != arrows)).any(axis=1)
                 | (defined & (table != arrows[:, None])).any(axis=0))
    found = arrows[identity & (src == tgt) & (src >= 0) & (src < n_obj)]
    unit = np.full(n_obj, len(src))
    np.minimum.at(unit, src[found], found)
    if (unit == len(src)).any():
        raise FormatError("could not locate a unit arrow for every object")
    return unit


def groupoid_to_json(g):
    first, second = np.nonzero(g.comp >= 0)
    return {
        "objects": g.n_objects,
        "arrows": [{"src": s, "tgt": t}
                   for s, t in zip(g.src.tolist(), g.tgt.tolist())],
        "comp": np.stack([first, second, g.comp[first, second]],
                         axis=1).tolist(),
        "inv": g.inv.tolist(),
        "rho_obj": g.rho_obj.tolist(),
        "rho_arr": g.rho_arr.tolist(),
    }


# -- coefficients --------------------------------------------------------

def coefficients_from_json(data):
    if isinstance(data, str) and os.path.exists(data):
        # preset names win over file paths; a name that is no file names
        # a preset
        try:
            return make_standard(data)
        except ValueError:
            data = _resolve(data)
    if isinstance(data, dict) and "preset" in data:
        data = data["preset"]
        if not isinstance(data, str):
            raise FormatError(f"bad coefficient JSON: preset {data!r} is not a name")
    if isinstance(data, str):
        try:
            return make_standard(data)
        except ValueError as e:
            raise FormatError(e)
    try:
        return RealCoefficientGroup(
            _int(data["free_rank"]),
            [_int(d) for d in data.get("torsion", [])],
            None if data.get("tau") is None else _ints(data["tau"]),
            data.get("mode", "integral"))
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad coefficient JSON: {e}")


def coefficients_to_json(S):
    if S.name:
        return {"preset": S.name}
    return {
        "free_rank": S.free_rank,
        "torsion": list(S.invariant_factors),
        "tau": [[int(v) for v in row] for row in S.tau],
        "mode": S.mode,
    }


def presentation_to_json(pres_like):
    """{"free_rank": r, "torsion": [...]} for anything with group_key()."""
    rank, torsion = pres_like.group_key()
    return {"free_rank": rank, "torsion": list(torsion)}


# -- cochains ------------------------------------------------------------

def cochain_from_json(cx, data):
    data = _resolve(data)
    try:
        n = _int(data["degree"])
        if n < 0:
            raise ValueError(f"degree {n} is negative")
        values = [(_int(oid), [_int(v) for v in coeffs]) for oid, coeffs in data["values"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad cochain JSON: {e}")
    basis = cx.basis(n)
    vec = [0] * basis.total
    for oid, coeffs in values:
        if not (0 <= oid < len(basis.reps)):
            raise FormatError(f"orbit index {oid} out of range in degree {n}")
        off, w = basis.offsets[oid], int(basis.widths[oid])
        if len(coeffs) != w:
            raise FormatError(
                f"orbit {oid} expects {w} coordinates, got {len(coeffs)}")
        vec[off:off + w] = coeffs
    return cx.cochain(n, vec)


def cochain_to_json(c):
    return c.serialize()


# -- twists / bundles ----------------------------------------------------

def twist_from_json(data):
    from .extensions import GradedTwist, Z2
    data = _resolve(data)
    base, S, omega = _fields(data, "twist", ("base", "S", "omega"))
    delta = data.get("delta")
    base, S = groupoid_from_json(base), coefficients_from_json(S)
    omega = cochain_from_json(RealComplex(base, S), omega)
    if delta is not None:
        delta = cochain_from_json(RealComplex(base, Z2), delta)
    return GradedTwist(base, S, omega, delta)


def twist_to_json(t):
    return {
        "base": groupoid_to_json(t.base),
        "S": coefficients_to_json(t.S),
        "omega": cochain_to_json(t.omega),
        "delta": cochain_to_json(t.delta),
    }


def bundle_from_json(data):
    from .bundles import RealPrincipalBundle
    base, S, c = _fields(_resolve(data), "bundle", ("base", "S", "cocycle"))
    base, S = groupoid_from_json(base), coefficients_from_json(S)
    return RealPrincipalBundle(base, S, cochain_from_json(RealComplex(base, S), c))


def bundle_to_json(b):
    return {
        "base": groupoid_to_json(b.groupoid),
        "S": coefficients_to_json(b.S),
        "cocycle": cochain_to_json(b.cocycle),
    }


# -- representations -----------------------------------------------------

def representation_from_json(groupoid, data):
    """The representation of a JSON object; its matrix entries are read by
    Fraction, so integers, floats and strings such as "1/2" are taken."""
    data = _resolve(data)
    try:
        return RealRepresentation(groupoid, _int(data["p"]), _int(data["q"]),
                                  data["action"], data["nu"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad representation JSON: {e}")


def representation_to_json(rep):
    def mat(M):
        return [[str(v) if v.denominator != 1 else int(v) for v in row]
                for row in M]
    return {"p": rep.p, "q": rep.q,
            "action": [mat(a) for a in rep.action],
            "nu": [mat(v) for v in rep.nu]}


# -- covers / surjections / sequences -------------------------------------

def cover_from_json(groupoid, data):
    data = _resolve(data)
    try:
        blocks = [[_int(x) for x in b] for b in data["blocks"]]
        bar = data.get("bar")
        if bar is not None:
            bar = _indices("bar", _ints(bar), (len(blocks),), len(blocks))
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad cover JSON: {e}")
    return RealCover(groupoid, blocks, bar)


def surjection_from_json(data, n_base):
    """(pi, rho_total) of a surjection onto a base with n_base objects."""
    data = _resolve(data)
    try:
        pi = [_int(v) for v in data["pi"]]
        pi = _indices("pi", pi, (len(pi),), n_base).tolist()
        rho_total = _indices("rho_total", _ints(data["rho_total"]), (len(pi),), len(pi)).tolist()
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad surjection JSON: {e}")
    return pi, rho_total


def sequence_from_json(data):
    from .les import CoefficientSES
    data = _resolve(data)
    try:
        left = coefficients_from_json(data["left"])
        mid = coefficients_from_json(data["middle"])
        right = coefficients_from_json(data["right"])
        i, p = _ints(data["i"]), _ints(data["p"])
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad sequence JSON: {e}")
    try:
        return CoefficientSES(left, mid, right, i, p)
    except TypeError as e:
        raise FormatError(f"bad sequence JSON: {e}")


def dumps(obj):
    """Canonical JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"
