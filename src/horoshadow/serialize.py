"""JSON interchange for families, geodesics and tree configurations.

Numbers travel as decimal strings (repr round-trips floats bit-exactly)
with an optional exact rational "p/q" companion field.  Exact mode reads
the companions, so exact families survive a round trip unhurt; float
mode reads the decimal strings alone, so it computes in floats whether
or not the companions are present.  A family document is written from
the family's columns and read into columns in one pass over its
entries; no member object is built for a tangent entry.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from .halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    VerticalGeodesic,
)
from .packings import HoroballFamily, Ratios, check_shape, int_column
from .trees import MetricTree, TreeHoroball


def _exact_out(x) -> Optional[str]:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return None


def _num_in(decimal: str, exact: Optional[str], want_exact: bool):
    if not want_exact:
        return float(decimal)
    if exact is None:
        raise ValueError(f"no exact form for {decimal!r} in exact mode")
    return Fraction(exact)


def _ratio_in(decimal: str, exact: Optional[str]) -> tuple:
    """(num, den), den > 0, of the value _num_in reads in exact mode:
    "n/d" and "n", the forms this module writes, through int(), which
    reads their digits as Fraction does; any other form through
    Fraction."""
    if exact is None:
        raise ValueError(f"no exact form for {decimal!r} in exact mode")
    num, slash, den = exact.partition("/") if isinstance(exact, str) else ("", "", "")
    if (num[1:] if num[:1] == "-" else num).isdecimal() and \
            (not slash or den.isdecimal() and int(den)):
        return int(num), int(den or 1)
    f = Fraction(exact)  # any other form Fraction reads, or its error
    return f.numerator, f.denominator


@contextmanager
def _reading(kind: str):
    """A document that lacks a field or holds one of the wrong shape, as
    a ValueError that names the kind of document."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


@contextmanager
def bulk():
    """Cyclic garbage collection paused for the block.  A document and
    its family are acyclic, so the collections that their hundreds of
    thousands of containers would trigger find nothing, and each scans
    the whole heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _rows(strings: list, width: int) -> list:
    return [strings[k:k + width] for k in range(0, len(strings), width)]


def family_to_document(fam: HoroballFamily, metadata: Optional[dict] = None) -> dict:
    """The document of a family, its tangent entries written from the
    columns: the decimals from the float columns, the companions from
    the exact columns (Ratios), which a float family has none of."""
    with bulk():
        cols, ex = fam.columns, fam.exact
        width = fam.dim - 1
        entries = [None] * len(fam.horoballs)
        tangent = cols.tangent.tolist()
        bases = _rows(list(map(repr, cols.base.ravel().tolist())), width)
        radii = map(repr, cols.radius.tolist())
        if ex is not None:
            base_ex = _rows([f"{n}/{d}" for n, d in zip(ex.base_num.ravel().tolist(),
                                                        ex.base_den.ravel().tolist())], width)
            radius_ex = [f"{n}/{d}" for n, d in zip(ex.radius_num.tolist(), ex.radius_den.tolist())]
            for i, b, r, bx, rx in zip(tangent, bases, radii, base_ex, radius_ex):
                entries[i] = {"type": "tangent", "base": b, "radius": r,
                              "base_exact": bx, "radius_exact": rx}
        else:
            for i, b, r in zip(tangent, bases, radii):
                entries[i] = {"type": "tangent", "base": b, "radius": r}
        for i, height in zip(cols.infinity.tolist(), cols.height.tolist()):
            entries[i] = {"type": "at_infinity", "height": repr(height)}
            hx = _exact_out(fam.horoballs[i].height)
            if hx is not None:
                entries[i]["height_exact"] = hx
        doc = {
            "model": "upper_half_space",
            "dim": fam.dim,
            "entries": entries,
            "metadata": dict(metadata or {}),
        }
        if fam.labels:
            doc["metadata"]["labels"] = list(fam.labels)
        return doc


def document_to_family(doc: dict, exact: bool = False) -> HoroballFamily:
    """The family of a document, read in one pass over its entries into
    columns, with the checks and messages of building its members in
    entry order.  Float mode reads the decimals; exact mode reads the
    companions into exact columns (Ratios), which the float columns then
    round."""
    import numpy as np
    with bulk(), _reading("family"):
        if doc.get("model") != "upper_half_space":
            raise ValueError(f"not an upper_half_space document: {doc.get('model')!r}")
        tangent, base, radius, members = [], [], [], {}
        for i, e in enumerate(doc["entries"]):
            kind = e["type"]
            if kind == "at_infinity":
                members[i] = AtInfinityHoroball(
                    _num_in(e["height"], e.get("height_exact"), exact))
            elif kind == "tangent":
                if exact:
                    exs = e.get("base_exact")
                    row = [_ratio_in(d, exs[k] if exs else None) for k, d in enumerate(e["base"])]
                    r = _ratio_in(e["radius"], e.get("radius_exact"))
                    positive = r[0] > 0
                else:
                    row = list(map(float, e["base"]))
                    r = float(e["radius"])
                    positive = r > 0
                if not positive:
                    raise ValueError("radius must be positive")
                tangent.append(i)
                base.append(row)
                radius.append(r)
            else:
                raise ValueError(f"unknown horoball entry type {kind!r}")
        dim = doc["dim"]
        labels = doc.get("metadata", {}).get("labels")
        check_shape(dim, map(len, base))
        tangent, shape = np.array(tangent, dtype=np.intp), (len(base), dim - 1)
        if not exact:
            return HoroballFamily.from_columns(
                dim, tangent, np.array(base, dtype=float).reshape(shape),
                np.array(radius, dtype=float), None, members, labels)
        pairs = [c for row in base for c in row]
        ratios = Ratios.lowest_terms(int_column([n for n, _ in pairs]).reshape(shape),
                                     int_column([d for _, d in pairs]).reshape(shape),
                                     int_column([n for n, _ in radius]),
                                     int_column([d for _, d in radius]))
        return HoroballFamily.from_columns(dim, tangent, *ratios.floats(), ratios, members, labels)


def tree_to_document(tree: MetricTree, balls: list[TreeHoroball],
                     metadata: Optional[dict] = None) -> dict:
    edges = []
    for u, nbrs in sorted(tree.adj.items()):
        for v, length in sorted(nbrs.items()):
            if u < v:
                edges.append([u, v, length])
    return {
        "model": "tree",
        "dim": 0,
        "entries": {
            "edges": edges,
            "stubs": sorted(tree.stubs),
            "root": tree.root,
            "horoballs": [[b.end, b.level] for b in balls],
        },
        "metadata": dict(metadata or {}),
    }


def document_to_tree(doc: dict) -> tuple[MetricTree, list[TreeHoroball]]:
    if doc.get("model") != "tree":
        raise ValueError("not a tree document")
    with _reading("tree"):
        e = doc["entries"]
        tree = MetricTree([tuple(x) for x in e["edges"]], e["stubs"], e.get("root"))
        balls = [TreeHoroball(end, level) for end, level in e["horoballs"]]
    return tree, balls


def _range_out(rng: tuple) -> list:
    return [None if abs(x) == INF else x for x in rng]


def _range_in(rng) -> tuple:
    if rng is None:
        return (-INF, INF)
    lo = -INF if rng[0] is None else float(rng[0])
    hi = INF if rng[1] is None else float(rng[1])
    return (lo, hi)


def geodesic_to_json(g: Geodesic) -> dict:
    if isinstance(g, VerticalGeodesic):
        return {"type": "vertical", "foot": [float(c) for c in g.foot],
                "range": _range_out(g.param_range)}
    return {"type": "arc", "a": [float(c) for c in g.a],
            "b": [float(c) for c in g.b], "range": _range_out(g.param_range)}


def json_to_geodesic(obj: dict) -> Geodesic:
    with _reading("geodesic"):
        rng = _range_in(obj.get("range"))
        if obj["type"] == "vertical":
            return VerticalGeodesic(tuple(obj["foot"]), rng)
        if obj["type"] == "arc":
            return ArcGeodesic(tuple(obj["a"]), tuple(obj["b"]), rng)
        raise ValueError(f"unknown geodesic type {obj['type']!r}")


def dumps(doc: dict) -> str:
    """Compact single-line JSON with sorted keys (json's C encoder)."""
    return json.dumps(doc, sort_keys=True)
