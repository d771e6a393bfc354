"""JSON interchange for families, geodesics and tree configurations.

A family document lists its members in `entries`, in member order: a
tangent member is one string of its row values separated by single
spaces, a member at infinity a small object {"type": "at_infinity",
"height": ...}.  The field `rows` names the row form.  An exact document
("exact") holds decimal integers only: the row "n_1..n_k d_1..d_k rn rd"
of a member's exact values (its Ratios row) and the height [num, den] as
JSON integers.  A float document ("float") holds the floats
"b_1..b_k r", written with repr, and the height, which json writes with
repr too, so they round-trip bit for bit (+-inf and -0.0 included).  A
family is written as an exact document where its tangent values are
exact and every height is exact or, beside exact tangent rows, a finite
float (its binary value as [num, den]); else as a float document.
Exact mode reads exact documents only; float mode reads an exact
document's floats rounded correctly from its integers.  A document is
written from the family's columns, one format per row, and its rows are
read back into them by one numpy parse of their joined text, checked,
not coerced; no member object is built for a row.  A list-row document
(a row as a JSON array: the format before text rows) and a per-entry
document (one object per member, decimal strings with "p/q" companions:
the format before rows) are refused.  Tree documents keep JSON rows.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import TYPE_CHECKING, Optional

from . import numeric
from .halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    VerticalGeodesic,
)
from .packings import HoroballFamily, Ratios, check_shape, int_column

if TYPE_CHECKING:  # annotations; document_to_tree imports trees when it runs
    from .trees import MetricTree, TreeFamily


@contextmanager
def _reading(kind: str):
    """A document that lacks a field or holds one of the wrong shape, as
    a ValueError that names the kind of document."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
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


#: the row forms of a family document: the types a row may hold, and
#: their name in messages
_ROW_TYPES = {"exact": ({int}, "integers"), "float": ({int, float}, "numbers")}

#: the text of a row of each form: the numpy type of its values, and the
#: characters a value may hold (repr writes a float in those of "float")
_ROW_TEXT = {"exact": ("int64", b"-0123456789"), "float": ("float64", b"+-.0123456789aefin")}


def _check_types(values, form: str, what: Optional[str] = None) -> None:
    """Refuse values of a type that the row form does not hold; what
    begins the message (by default "<form> document holds")."""
    allowed, name = _ROW_TYPES[form]
    found = set(map(type, values)) - allowed
    if found:
        raise ValueError(f"{what or form + ' document holds'} {name} only, not "
                         f"{', '.join(sorted(t.__name__ for t in found))}")


def _is_value(token: str, form: str) -> bool:
    """Whether token is a row value of the form: a decimal integer
    (-?[0-9]+ in ASCII) in an exact row, one float that numpy reads from
    the characters repr writes in a float row."""
    import numpy as np
    dtype, chars = _ROW_TEXT[form]
    if not token.isascii() or token.encode().translate(None, chars):
        return False
    if form == "exact":
        return token.removeprefix("-").isdigit()
    try:
        return np.fromstring(token, dtype=dtype, sep=" ").size == 1
    except ValueError:
        return False


def _row_fault(rows: list, form: str, width: int) -> str:
    """The message of the first fault of text rows that do not read: a
    row whose values are not separated by single spaces, then a row that
    does not hold width values, then a value that is not one of the
    form."""
    split = [row.split(" ") for row in rows]
    for row, values in zip(rows, split):
        if values != row.split():
            return f"row values are separated by single spaces, not as in {row!r}"
    if any(len(values) != width for values in split):
        return "horoball base dimension does not match family"
    bad = next(v for v in chain.from_iterable(split) if not _is_value(v, form))
    return f"{form} document holds {_ROW_TYPES[form][1]} only, not {bad!r}"


def _well_formed(text: str, form: str, width: int, count: int) -> bool:
    """Whether text, count rows joined by newlines, holds width values a
    row separated by single spaces, in the ASCII characters of the form,
    and in an exact row a minus sign only at the start of a value (numpy
    reads a lone "-" as 0 and "- 2" as -2)."""
    import numpy as np
    if not text.isascii():
        return False
    data = text.encode()
    if data.translate(None, _ROW_TEXT[form][1] + b" \n"):
        return False
    # the separators: width - 1 spaces a row, a newline between rows,
    # none at an end and no two adjacent (an empty value)
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(b <= 32)
    want = np.full(count * width - 1, 32, dtype=np.uint8)
    want[width - 1::width] = 10
    if not (np.array_equal(b[seps], want) and 0 < seps[0] and seps[-1] < b.size - 1
            and np.diff(seps).min(initial=2) > 1):
        return False
    minus = np.flatnonzero(b == 45) if form == "exact" else ()
    if not len(minus):
        return True
    around = np.concatenate(([32], b, [32]))
    after = around[minus + 2]
    return bool((around[minus] <= 32).all() and ((48 <= after) & (after <= 57)).all())


def _row_values(rows: list, form: str, width: int):
    """The values of the text rows of a form, row-major, parsed by one
    np.fromstring of their text joined by newlines: a float64 array for
    float rows; an int64 array for exact rows, or an object array of
    Python ints where a value meets a bound of int64 (numpy saturates a
    value beyond them to 2^63 - 1).  The rows must be well formed
    (_well_formed), hold width values each, rows x width in all, each
    one of the form (_is_value); the message of a fault is _row_fault's.
    A float value beyond the float range, which numpy reads as +-inf, is
    an OverflowError."""
    import numpy as np
    dtype = _ROW_TEXT[form][0]
    if not rows:
        return np.empty(0, dtype=dtype)
    text = "\n".join(rows)
    try:
        if not _well_formed(text, form, width, len(rows)):
            raise ValueError
        values = np.fromstring(text, dtype=dtype, sep=" ")
        if values.size != len(rows) * width:
            raise ValueError
    except ValueError:
        raise ValueError(_row_fault(rows, form, width)) from None
    if form == "float":
        inf = np.flatnonzero(np.isinf(values))
        if len(inf):
            tokens = text.split()
            big = [tokens[i] for i in inf.tolist() if tokens[i].lstrip("+-") != "inf"]
            if big:
                raise OverflowError(f"row value {big[0]} lies beyond the float range")
        return values
    bound = np.iinfo(np.int64)
    if values.max() == bound.max or values.min() == bound.min:
        return np.array(list(map(int, text.split())), dtype=object)
    return values


def _merge(rows: list, at: list, objects: list) -> list:
    """rows with objects[j] inserted so that it lands at index at[j]
    (increasing)."""
    out, taken = [], 0
    for i, obj in zip(at, objects):
        step = i - len(out)
        out += rows[taken:taken + step]
        out.append(obj)
        taken += step
    return out + rows[taken:] if out else rows


def family_to_document(fam: HoroballFamily, metadata: Optional[dict] = None) -> dict:
    """The row document of a family, written from its columns in one
    pass, a row as one %d or %r format of its values: an exact document
    where the tangent values are exact and every height is exact or,
    beside exact tangent rows, a finite float (the integers of its
    Ratios, the heights as [num, den]), else a float document (the float
    columns)."""
    import numpy as np
    with bulk():
        cols, ex = fam.columns, fam.exact
        heights = [fam.horoballs[i].height for i in cols.infinity.tolist()]
        exact = (ex is not None or not len(cols.tangent)) and all(
            isinstance(h, (int, Fraction)) or ex is not None and math.isfinite(h) for h in heights)
        if exact:
            parts = () if ex is None else (ex.base_num, ex.base_den,
                                           ex.radius_num[:, None], ex.radius_den[:, None])
            heights = [list(Fraction(h).as_integer_ratio()) for h in heights]
            line = " ".join(["%d"] * 2 * fam.dim)
        else:
            parts, heights = (cols.base, cols.radius[:, None]), cols.height.tolist()
            line = " ".join(["%r"] * fam.dim)
        rows = list(map(line.__mod__, map(tuple, np.hstack(parts).tolist()))) if parts else []
        doc = {
            "model": "upper_half_space",
            "dim": fam.dim,
            "rows": "exact" if exact else "float",
            "entries": _merge(rows, cols.infinity.tolist(),
                              [{"type": "at_infinity", "height": h} for h in heights]),
            "metadata": dict(metadata or {}),
        }
        if fam.labels is not None:
            doc["metadata"]["labels"] = list(fam.labels)
        return doc


def _at_infinity(entry: dict, form: str, exact: bool) -> AtInfinityHoroball:
    """The member of an entry that is not a row: a member at infinity,
    its height a number in a float document and [num, den] in an exact
    one."""
    if entry["type"] != "at_infinity":
        raise ValueError(f"unknown horoball entry type {entry['type']!r}")
    h = entry["height"]
    if form == "float":
        _check_types([h], form)
        return AtInfinityHoroball(float(h))
    if type(h) is not list or len(h) != 2:
        raise ValueError("a height in an exact document is [num, den]")
    _check_types(h, form)
    if h[1] <= 0:
        raise ValueError("denominators must be positive")
    h = Fraction(*h)
    return AtInfinityHoroball(h if exact else numeric.to_float(h))


def document_to_family(doc: dict, exact: bool = False) -> HoroballFamily:
    """The family of a row document, its text rows parsed into columns
    in one pass (_row_values), checked and not coerced.  Float mode reads
    a float document's floats, or an exact document's integers rounded
    correctly (Ratios.floats); exact mode reads an exact document into
    exact columns (Ratios, in lowest terms).  A list-row document and a
    per-entry document, the formats before text rows, are refused."""
    import numpy as np
    with bulk(), _reading("family"):
        if doc.get("model") != "upper_half_space":
            raise ValueError(f"not an upper_half_space document: {doc.get('model')!r}")
        form = doc.get("rows")
        if form not in _ROW_TYPES:
            raise ValueError("per-entry family document (the format before row documents): "
                             "re-run pack to write it again" if form is None
                             else f"unknown row form {form!r}")
        if exact and form == "float":
            raise ValueError("no exact form in exact mode: the document's rows are floats")
        dim, entries = doc["dim"], doc["entries"]
        if type(entries) is not list:
            raise TypeError(f"entries is a {type(entries).__name__}, not a list")
        is_row = np.fromiter(map(isinstance, entries, repeat(str)), dtype=bool,
                             count=len(entries))
        at = np.flatnonzero(~is_row).tolist()
        if any(type(entries[i]) is list for i in at):
            raise ValueError("list-row family document (the format before text rows): "
                             "re-run pack to write it again")
        members = {i: _at_infinity(entries[i], form, exact) for i in at}
        rows = list(compress(entries, is_row)) if at else entries
        check_shape(dim, ())
        width = dim if form == "float" else 2 * dim
        values = _row_values(rows, form, width)
        tangent, labels, k = np.flatnonzero(is_row), doc.get("metadata", {}).get("labels"), dim - 1
        if form == "float":
            table = values.reshape(len(rows), dim)
            return HoroballFamily.from_columns(dim, tangent, table[:, :k].copy(), table[:, k].copy(),
                                               None, members, labels)
        table = int_column(values).reshape(len(rows), width)
        cols = table[:, :k], table[:, k:2 * k], table[:, 2 * k], table[:, 2 * k + 1]
        if not ((cols[1] > 0).all() and (cols[3] > 0).all()):
            raise ValueError("denominators must be positive")
        ratios = Ratios.lowest_terms(*cols) if exact else Ratios(*cols)
        return HoroballFamily.from_columns(dim, tangent, *ratios.floats(),
                                           ratios if exact else None, members, labels)


def tree_to_document(tree: MetricTree, balls: TreeFamily,
                     metadata: Optional[dict] = None) -> dict:
    """The document of a tree and its horoballs, written as
    [end, level] rows from the family's columns in one tolist() pass."""
    edges = [[u, v, length] for u, nbrs in sorted(tree.adj.items())
             for v, length in sorted(nbrs.items()) if u < v]
    return {
        "model": "tree",
        "dim": 0,
        "entries": {
            "edges": edges,
            "stubs": sorted(tree.stubs),
            "root": tree.root,
            "horoballs": list(map(list, zip(balls.end.tolist(), balls.level.tolist()))),
        },
        "metadata": dict(metadata or {}),
    }


def document_to_tree(doc: dict) -> tuple[MetricTree, TreeFamily]:
    """The tree of a document and its horoballs as a TreeFamily, whose
    [end, level] rows are checked, not coerced: an end is a JSON integer
    and a level a finite number (not a bool, string, null, NaN or inf).
    A row of another shape, type or value is a ValueError that names it."""
    from .trees import MetricTree, TreeFamily
    if doc.get("model") != "tree":
        raise ValueError("not a tree document")
    with _reading("tree"):
        e = doc["entries"]
        tree = MetricTree([tuple(x) for x in e["edges"]], e["stubs"], e.get("root"))
        rows = e["horoballs"]
        if type(rows) is not list or set(map(len, rows)) - {2}:
            raise TypeError("horoballs are [end, level] rows")
        ends, levels = [r[0] for r in rows], [r[1] for r in rows]
        for values, form, what in ((ends, "exact", "ends"), (levels, "float", "levels")):
            _check_types(values, form, f"malformed tree document: horoball {what} are")
        if not all(map(math.isfinite, levels)):
            raise ValueError("malformed tree document: horoball levels must be finite")
        balls = TreeFamily(ends, levels)
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


#: the document encoding, in `numeric` so that cli._emit loads no layer
dumps = numeric.dumps
