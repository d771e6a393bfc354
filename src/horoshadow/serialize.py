"""JSON interchange for families, geodesics and tree configurations.

Numbers travel as decimal strings (repr round-trips floats bit-exactly)
with an optional exact rational "p/q" companion field that wins when
present, so exact families survive a round trip unhurt.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    Horoball,
    TangentHoroball,
    VerticalGeodesic,
)
from .packings import HoroballFamily
from .trees import MetricTree, TreeHoroball


def _num_out(x) -> str:
    return repr(float(x))


def _exact_out(x) -> Optional[str]:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return None


def _num_in(decimal: str, exact: Optional[str], want_exact: bool):
    if exact is not None:
        return Fraction(exact)
    if want_exact:
        raise ValueError(f"no exact form for {decimal!r} in exact mode")
    return float(decimal)


def horoball_to_entry(h: Horoball) -> dict:
    if isinstance(h, AtInfinityHoroball):
        entry = {"type": "at_infinity", "height": _num_out(h.height)}
        ex = _exact_out(h.height)
        if ex is not None:
            entry["height_exact"] = ex
        return entry
    entry = {"type": "tangent",
             "base": [_num_out(c) for c in h.base],
             "radius": _num_out(h.radius)}
    exs = [_exact_out(c) for c in h.base]
    exr = _exact_out(h.radius)
    if exr is not None and all(e is not None for e in exs):
        entry["base_exact"] = exs
        entry["radius_exact"] = exr
    return entry


def entry_to_horoball(entry: dict, exact: bool = False) -> Horoball:
    if entry["type"] == "at_infinity":
        return AtInfinityHoroball(
            _num_in(entry["height"], entry.get("height_exact"), exact))
    if entry["type"] == "tangent":
        exs = entry.get("base_exact")
        base = tuple(_num_in(d, exs[i] if exs else None, exact)
                     for i, d in enumerate(entry["base"]))
        radius = _num_in(entry["radius"], entry.get("radius_exact"), exact)
        return TangentHoroball(base, radius)
    raise ValueError(f"unknown horoball entry type {entry['type']!r}")


def family_to_document(fam: HoroballFamily, metadata: Optional[dict] = None) -> dict:
    doc = {
        "model": "upper_half_space",
        "dim": fam.dim,
        "entries": [horoball_to_entry(h) for h in fam.horoballs],
        "metadata": dict(metadata or {}),
    }
    if fam.labels:
        doc["metadata"]["labels"] = list(fam.labels)
    return doc


def document_to_family(doc: dict, exact: bool = False) -> HoroballFamily:
    if doc.get("model") != "upper_half_space":
        raise ValueError(f"not an upper_half_space document: {doc.get('model')!r}")
    entries = [entry_to_horoball(e, exact) for e in doc["entries"]]
    labels = doc.get("metadata", {}).get("labels")
    return HoroballFamily(doc["dim"], entries, labels)


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
    rng = _range_in(obj.get("range"))
    if obj["type"] == "vertical":
        return VerticalGeodesic(tuple(obj["foot"]), rng)
    if obj["type"] == "arc":
        return ArcGeodesic(tuple(obj["a"]), tuple(obj["b"]), rng)
    raise ValueError(f"unknown geodesic type {obj['type']!r}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
