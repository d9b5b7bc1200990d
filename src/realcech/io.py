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
from fractions import Fraction

import numpy as np

from .coefficients import RealCoefficientGroup, RealRepresentation, make_standard
from .groupoids import FiniteRealGroupoid, RealCover, max_arrows
from .cochains import RealComplex


class FormatError(ValueError):
    pass


def _resolve(ref, base_dir="."):
    """A 'ref' is an inline JSON object or a file path."""
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        with open(path) as fh:
            return json.load(fh)
    return ref


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot parse {path}: {e}")


# -- groupoids -----------------------------------------------------------

def groupoid_from_json(data, base_dir="."):
    data = _resolve(data, base_dir)
    try:
        n_obj = int(data["objects"])
        arrows = data["arrows"]
        src = [int(a["src"]) for a in arrows]
        tgt = [int(a["tgt"]) for a in arrows]
        inv = [int(v) for v in data["inv"]]
        rho_obj = [int(v) for v in data["rho_obj"]]
        rho_arr = [int(v) for v in data["rho_arr"]]
        comp = data["comp"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad groupoid JSON: {e}")
    m = len(src)
    if m > max_arrows():
        raise FormatError(f"too many arrows ({m} > RGC_MAX_ARROWS)")
    table = np.full((m, m), -1, dtype=np.int64)
    # comp is either a list of [g, h, g*h] triples or a full m x m table
    # (-1/null = undefined).  A 3-arrow groupoid is ambiguous; triples win
    # unless "comp_format": "table" says otherwise.
    is_table = (bool(comp) and isinstance(comp[0], list)
                and len(comp) == m and all(len(r) == m for r in comp))
    if is_table and m == 3 and data.get("comp_format") != "table":
        is_table = False
    if is_table:
        for g in range(m):
            for h in range(m):
                v = comp[g][h]
                table[g, h] = -1 if v is None else int(v)
    else:
        for triple in comp:
            g, h, k = (int(v) for v in triple)
            table[g, h] = k
    unit = _derive_units(n_obj, src, tgt, table)
    return FiniteRealGroupoid(n_obj, src, tgt, unit, table, inv,
                              rho_obj, rho_arr)


def _derive_units(n_obj, src, tgt, table):
    m = len(src)
    unit = [-1] * n_obj
    for u in range(m):
        if src[u] != tgt[u]:
            continue
        acts_as_identity = True
        for h in range(m):
            if table[u, h] >= 0 and table[u, h] != h:
                acts_as_identity = False
                break
            if table[h, u] >= 0 and table[h, u] != h:
                acts_as_identity = False
                break
        if acts_as_identity:
            x = src[u]
            if unit[x] == -1:
                unit[x] = u
    if any(u < 0 for u in unit):
        raise FormatError("could not locate a unit arrow for every object")
    return unit


def groupoid_to_json(g):
    triples = []
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            k = g.comp[a, b]
            if k >= 0:
                triples.append([int(a), int(b), int(k)])
    return {
        "objects": g.n_objects,
        "arrows": [{"src": int(g.src[a]), "tgt": int(g.tgt[a])}
                   for a in range(g.n_arrows)],
        "comp": triples,
        "inv": [int(v) for v in g.inv],
        "rho_obj": [int(v) for v in g.rho_obj],
        "rho_arr": [int(v) for v in g.rho_arr],
    }


# -- coefficients --------------------------------------------------------

def coefficients_from_json(data, base_dir="."):
    if isinstance(data, str):
        # preset names win over file paths
        try:
            return make_standard(data)
        except ValueError:
            pass
    data = _resolve(data, base_dir)
    if isinstance(data, str):
        return make_standard(data)
    if "preset" in data:
        return make_standard(data["preset"])
    try:
        return RealCoefficientGroup(
            int(data["free_rank"]),
            [int(d) for d in data.get("torsion", [])],
            data.get("tau"),
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

def cochain_from_json(cx, data, base_dir="."):
    data = _resolve(data, base_dir)
    try:
        n = int(data["degree"])
        values = data["values"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad cochain JSON: {e}")
    basis = cx.basis(n)
    vec = [0] * basis.total
    for orbit_index, coeffs in values:
        oid = int(orbit_index)
        if not (0 <= oid < len(basis.orbits)):
            raise FormatError(f"orbit index {oid} out of range in degree {n}")
        off = basis.offsets[oid]
        w = basis.width(oid)
        if len(coeffs) != w:
            raise FormatError(
                f"orbit {oid} expects {w} coordinates, got {len(coeffs)}")
        for i, v in enumerate(coeffs):
            vec[off + i] = int(v)
    return cx.cochain(n, vec)


def cochain_to_json(c):
    return c.serialize()


# -- twists / bundles ----------------------------------------------------

def twist_from_json(data, base_dir="."):
    from .extensions import GradedTwist
    data = _resolve(data, base_dir)
    base = groupoid_from_json(data["base"], base_dir)
    S = coefficients_from_json(data["S"], base_dir)
    cx = RealComplex(base, S)
    omega = cochain_from_json(cx, data["omega"], base_dir)
    delta = None
    if data.get("delta") is not None:
        from .extensions import Z2
        zcx = RealComplex(base, Z2)
        delta = cochain_from_json(zcx, data["delta"], base_dir)
    return GradedTwist(base, S, omega, delta)


def twist_to_json(t):
    return {
        "base": groupoid_to_json(t.base),
        "S": coefficients_to_json(t.S),
        "omega": cochain_to_json(t.omega),
        "delta": cochain_to_json(t.delta),
    }


def bundle_from_json(data, base_dir="."):
    from .bundles import RealPrincipalBundle
    data = _resolve(data, base_dir)
    base = groupoid_from_json(data["base"], base_dir)
    S = coefficients_from_json(data["S"], base_dir)
    cx = RealComplex(base, S)
    c = cochain_from_json(cx, data["cocycle"], base_dir)
    return RealPrincipalBundle(base, S, c)


def bundle_to_json(b):
    return {
        "base": groupoid_to_json(b.groupoid),
        "S": coefficients_to_json(b.S),
        "cocycle": cochain_to_json(b.cocycle),
    }


# -- representations -----------------------------------------------------

def _frac(v):
    if isinstance(v, str):
        return Fraction(v)
    return Fraction(v)


def representation_from_json(groupoid, data, base_dir="."):
    data = _resolve(data, base_dir)
    try:
        p, q = int(data["p"]), int(data["q"])
        action = [[[_frac(v) for v in row] for row in mat]
                  for mat in data["action"]]
        nu = [[[_frac(v) for v in row] for row in mat] for mat in data["nu"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad representation JSON: {e}")
    return RealRepresentation(groupoid, p, q, action, nu)


def representation_to_json(rep):
    def mat(M):
        return [[str(v) if v.denominator != 1 else int(v) for v in row]
                for row in M]
    return {"p": rep.p, "q": rep.q,
            "action": [mat(a) for a in rep.action],
            "nu": [mat(v) for v in rep.nu]}


# -- covers / surjections / sequences -------------------------------------

def cover_from_json(groupoid, data, base_dir="."):
    data = _resolve(data, base_dir)
    try:
        blocks = [[int(x) for x in b] for b in data["blocks"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad cover JSON: {e}")
    bar = data.get("bar")
    return RealCover(groupoid, blocks, bar)


def surjection_from_json(data, base_dir="."):
    data = _resolve(data, base_dir)
    try:
        pi = [int(v) for v in data["pi"]]
        rho_total = [int(v) for v in data["rho_total"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad surjection JSON: {e}")
    return pi, rho_total


def sequence_from_json(data, base_dir="."):
    from .les import CoefficientSES
    data = _resolve(data, base_dir)
    try:
        left = coefficients_from_json(data["left"], base_dir)
        mid = coefficients_from_json(data["middle"], base_dir)
        right = coefficients_from_json(data["right"], base_dir)
        return CoefficientSES(left, mid, right, data["i"], data["p"])
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad sequence JSON: {e}")


def dumps(obj):
    """Canonical JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"
