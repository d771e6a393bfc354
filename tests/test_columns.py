"""The columnar family against the code it replaced, which is kept here
as two oracles: the entry-by-entry loader and writer of the per-entry
family documents that preceded row documents, and the reader and writer
of list-row documents (a tangent row as a JSON array) that preceded text
rows.  A text-row document read back gives the family that each oracle's
document gives through that oracle's loader, bit for bit on every column
and with the same Ratios dtypes, in float and exact mode; the loader
checks rows without coercing them and raises the oracles' errors; and
the solvers build member objects only for the members a scalar test
reads."""

import json
import math
import re
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import numeric, serialize
from horoshadow.cli import main
from horoshadow.halfspace import AtInfinityHoroball, Point, TangentHoroball
from horoshadow.numeric import to_float
from horoshadow.packings import (
    HoroballFamily,
    Ratios,
    check_shape,
    extremal,
    farey,
    geometric,
    int_column,
    random_disjoint,
)
from horoshadow.rays import biinfinite_line, ray_from_point
from horoshadow.sharp2d import solve_2d
from horoshadow.sharpnd import solve_hnr
from test_halfspace import invert_horoball
from test_packing_oracles import old_farey, transform

# ---------------------------------------------------------------------------
# oracles: the writer and the loader before the columns, verbatim up to names


def old_num_out(x):
    return repr(float(x))


def old_exact_out(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return None


def old_num_in(decimal, exact, want_exact):
    if not want_exact:
        return float(decimal)
    if exact is None:
        raise ValueError(f"no exact form for {decimal!r} in exact mode")
    return Fraction(exact)


def old_horoball_to_entry(h):
    if isinstance(h, AtInfinityHoroball):
        entry = {"type": "at_infinity", "height": old_num_out(h.height)}
        ex = old_exact_out(h.height)
        if ex is not None:
            entry["height_exact"] = ex
        return entry
    entry = {"type": "tangent",
             "base": [old_num_out(c) for c in h.base],
             "radius": old_num_out(h.radius)}
    exs = [old_exact_out(c) for c in h.base]
    exr = old_exact_out(h.radius)
    if exr is not None and all(e is not None for e in exs):
        entry["base_exact"] = exs
        entry["radius_exact"] = exr
    return entry


def old_entry_to_horoball(entry, exact=False):
    if entry["type"] == "at_infinity":
        return AtInfinityHoroball(
            old_num_in(entry["height"], entry.get("height_exact"), exact))
    if entry["type"] == "tangent":
        exs = entry.get("base_exact")
        base = tuple(old_num_in(d, exs[i] if exs else None, exact)
                     for i, d in enumerate(entry["base"]))
        radius = old_num_in(entry["radius"], entry.get("radius_exact"), exact)
        return TangentHoroball(base, radius)
    raise ValueError(f"unknown horoball entry type {entry['type']!r}")


def old_family_to_document(fam, metadata=None):
    doc = {
        "model": "upper_half_space",
        "dim": fam.dim,
        "entries": [old_horoball_to_entry(h) for h in fam.horoballs],
        "metadata": dict(metadata or {}),
    }
    if fam.labels:
        doc["metadata"]["labels"] = list(fam.labels)
    return doc


def old_document_to_family(doc, exact=False):
    if doc.get("model") != "upper_half_space":
        raise ValueError(f"not an upper_half_space document: {doc.get('model')!r}")
    entries = [old_entry_to_horoball(e, exact) for e in doc["entries"]]
    labels = doc.get("metadata", {}).get("labels")
    return HoroballFamily(doc["dim"], entries, labels)


# ---------------------------------------------------------------------------
# oracles: the list-row writer and reader that text rows replaced, verbatim
# up to names (a tangent member as a JSON array of its row values)

#: the row forms of a family document: the types a row may hold, and
#: their name in messages
LIST_ROW_TYPES = {"exact": ({int}, "integers"), "float": ({int, float}, "numbers")}


def list_check_types(values, form: str, what: Optional[str] = None) -> None:
    """Refuse values of a type that the row form does not hold; what
    begins the message (by default "<form> document holds")."""
    allowed, name = LIST_ROW_TYPES[form]
    found = set(map(type, values)) - allowed
    if found:
        raise ValueError(f"{what or form + ' document holds'} {name} only, not "
                         f"{', '.join(sorted(t.__name__ for t in found))}")


def list_merge(rows: list, at: list, objects: list) -> list:
    """rows with objects[j] inserted so that it lands at index at[j]
    (increasing)."""
    out, taken = [], 0
    for i, obj in zip(at, objects):
        step = i - len(out)
        out += rows[taken:taken + step]
        out.append(obj)
        taken += step
    return out + rows[taken:] if out else rows


def list_family_to_document(fam: HoroballFamily, metadata: Optional[dict] = None) -> dict:
    """The row document of a family, written from its columns in one
    pass: an exact document where the tangent values are exact and every
    height is exact or, beside exact tangent rows, a finite float (the
    integers of its Ratios, the heights as [num, den]), else a float
    document (the float columns)."""
    import numpy as np
    with serialize.bulk():
        cols, ex = fam.columns, fam.exact
        heights = [fam.horoballs[i].height for i in cols.infinity.tolist()]
        exact = (ex is not None or not len(cols.tangent)) and all(
            isinstance(h, (int, Fraction)) or ex is not None and math.isfinite(h) for h in heights)
        if exact:
            parts = () if ex is None else (ex.base_num, ex.base_den,
                                           ex.radius_num[:, None], ex.radius_den[:, None])
            heights = [list(Fraction(h).as_integer_ratio()) for h in heights]
        else:
            parts, heights = (cols.base, cols.radius[:, None]), cols.height.tolist()
        rows = np.hstack(parts).tolist() if parts else []
        doc = {
            "model": "upper_half_space",
            "dim": fam.dim,
            "rows": "exact" if exact else "float",
            "entries": list_merge(rows, cols.infinity.tolist(),
                              [{"type": "at_infinity", "height": h} for h in heights]),
            "metadata": dict(metadata or {}),
        }
        if fam.labels is not None:
            doc["metadata"]["labels"] = list(fam.labels)
        return doc


def list_at_infinity(entry: dict, form: str, exact: bool) -> AtInfinityHoroball:
    """The member of an entry that is not a row: a member at infinity,
    its height a number in a float document and [num, den] in an exact
    one."""
    if entry["type"] != "at_infinity":
        raise ValueError(f"unknown horoball entry type {entry['type']!r}")
    h = entry["height"]
    if form == "float":
        list_check_types([h], form)
        return AtInfinityHoroball(float(h))
    if type(h) is not list or len(h) != 2:
        raise ValueError("a height in an exact document is [num, den]")
    list_check_types(h, form)
    if h[1] <= 0:
        raise ValueError("denominators must be positive")
    h = Fraction(*h)
    return AtInfinityHoroball(h if exact else numeric.to_float(h))


def list_document_to_family(doc: dict, exact: bool = False) -> HoroballFamily:
    """The family of a row document, its rows read into columns in one
    pass, checked and not coerced.  Float mode reads a float document's
    floats, or an exact document's integers rounded correctly
    (Ratios.floats); exact mode reads an exact document into exact
    columns (Ratios, in lowest terms).  A per-entry document, the format
    before rows, is refused."""
    import numpy as np
    with serialize.bulk(), serialize._reading("family"):
        if doc.get("model") != "upper_half_space":
            raise ValueError(f"not an upper_half_space document: {doc.get('model')!r}")
        form = doc.get("rows")
        if form not in LIST_ROW_TYPES:
            raise ValueError("per-entry family document (the format before row documents): "
                             "re-run pack to write it again" if form is None
                             else f"unknown row form {form!r}")
        if exact and form == "float":
            raise ValueError("no exact form in exact mode: the document's rows are floats")
        dim, entries = doc["dim"], doc["entries"]
        if type(entries) is not list:
            raise TypeError(f"entries is a {type(entries).__name__}, not a list")
        is_row = np.fromiter(map(isinstance, entries, repeat(list)), dtype=bool,
                             count=len(entries))
        at = np.flatnonzero(~is_row).tolist()
        members = {i: list_at_infinity(entries[i], form, exact) for i in at}
        rows = list(compress(entries, is_row)) if at else entries
        lengths = set(map(len, rows))
        check_shape(dim, {n - 1 for n in lengths} if form == "float" else
                    {n / 2 - 1 for n in lengths})
        flat = list(chain.from_iterable(rows))
        list_check_types(flat, form)
        tangent, labels, k = np.flatnonzero(is_row), doc.get("metadata", {}).get("labels"), dim - 1
        if form == "float":
            table = np.array(flat, dtype=float).reshape(len(rows), dim)
            return HoroballFamily.from_columns(dim, tangent, table[:, :k].copy(), table[:, k].copy(),
                                               None, members, labels)
        table = int_column(flat).reshape(len(rows), 2 * dim)
        cols = table[:, :k], table[:, k:2 * k], table[:, 2 * k], table[:, 2 * k + 1]
        if not ((cols[1] > 0).all() and (cols[3] > 0).all()):
            raise ValueError("denominators must be positive")
        ratios = Ratios.lowest_terms(*cols) if exact else Ratios(*cols)
        return HoroballFamily.from_columns(dim, tangent, *ratios.floats(),
                                           ratios if exact else None, members, labels)


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError, IndexError, KeyError) as exc:
        return "raised", (type(exc), str(exc))


def bits(array):
    return array.shape, array.dtype, array.tobytes()


def assert_same_family(got, want):
    assert got == want
    assert list(got.horoballs) == list(want.horoballs)
    assert [type(c) for h in got.horoballs for c in vars(h).values() if not isinstance(c, tuple)] \
        == [type(c) for h in want.horoballs for c in vars(h).values() if not isinstance(c, tuple)]
    assert_same_columns(got, want)


def assert_same_columns(got, want):
    assert (got.dim, got.labels) == (want.dim, want.labels)
    a, b = got.columns, want.columns
    assert np.array_equal(a.tangent, b.tangent) and np.array_equal(a.infinity, b.infinity)
    for name in ("base", "radius", "height"):
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name
    assert (got.exact is None) == (want.exact is None)
    if got.exact is not None:
        for key in Ratios.__slots__:
            x, y = getattr(got.exact, key), getattr(want.exact, key)
            assert (x.dtype, x.tolist()) == (y.dtype, y.tolist()), key


#: the error of reading a float document in exact mode
NO_EXACT = "no exact form in exact mode: the document's rows are floats"


def same_error(new, old):
    """The new reader's error against the oracle's: the same type, and
    the same message but where the oracle names a missing companion,
    which a row document has no place for."""
    assert new[0] is old[0], (new, old)
    assert new[1] == old[1] or old[1].startswith("no exact form for "), (new, old)


def assert_docs_read_alike(new_doc, old_doc, modes=(False, True)):
    """The row document through the reader and the per-entry document
    through the oracle's reader give the same family, bit for bit on
    every column, or the same error, in the modes given (float mode
    False, exact mode True)."""
    assert new_doc["metadata"] == old_doc.get("metadata", {})
    assert len(new_doc["entries"]) == len(old_doc["entries"])
    for exact in modes:
        new = outcome(serialize.document_to_family, new_doc, exact)
        old = outcome(old_document_to_family, old_doc, exact)
        assert new[0] == old[0], (exact, new, old)
        if new[0] == "raised":
            same_error(new[1], old[1])
        else:
            assert_same_family(new[1], old[1])


def assert_reads_like_oracle(fam, metadata=None, modes=(False, True)):
    """The document of a family reads as the oracle's document of it, and
    as the list-row oracle's (assert_reads_like_list_rows); returns the
    document, after a JSON round trip.  The oracle wrote no empty labels,
    which then read back as None; they are written now."""
    new_doc = json.loads(serialize.dumps(serialize.family_to_document(fam, metadata)))
    old_doc = old_family_to_document(fam, metadata)
    if fam.labels == []:
        old_doc["metadata"]["labels"] = []
    assert_docs_read_alike(new_doc, old_doc, modes)
    assert_reads_like_list_rows(fam, metadata)
    return new_doc


def row_text(row):
    """A row given as a list, as a text row: its values joined by single
    spaces, an int as str and a float as repr (as the writer formats
    them), a bool and None as JSON writes them, a string as it is."""
    def token(x):
        if isinstance(x, bool) or x is None:
            return json.dumps(x)
        return x if isinstance(x, str) else repr(x)
    return " ".join(map(token, row))


def text_rows(doc):
    """A list-row document with its rows as text rows (row_text)."""
    if type(doc["entries"]) is not list:
        return doc
    return {**doc, "entries": [row_text(e) if type(e) is list else e for e in doc["entries"]]}


#: the beginnings of the errors that name a row value: the reader names
#: it as it is written, the list-row oracle by its JSON type
VALUE_ERRORS = ("exact document holds ", "float document holds ",
                "malformed family document: OverflowError: ")


def assert_list_rows_read_alike(text_doc, list_doc):
    """The text-row document through the reader and the list-row document
    through the list-row oracle give the same family, bit for bit on every
    column and with the same Ratios dtypes, or the same error, in float
    and exact mode (up to the value an error names, VALUE_ERRORS)."""
    for exact in (False, True):
        new = outcome(serialize.document_to_family, text_doc, exact)
        old = outcome(list_document_to_family, list_doc, exact)
        assert new[0] == old[0], (exact, new, old)
        if new[0] == "ok":
            assert_same_family(new[1], old[1])
        elif new[1] != old[1]:
            assert new[1][0] is old[1][0] and any(
                new[1][1].startswith(b) and old[1][1].startswith(b) for b in VALUE_ERRORS), \
                (exact, new, old)


def assert_reads_like_list_rows(fam, metadata=None):
    """The document of a family holds the list-row oracle's document of
    it with each row as its text row, and reads as it (both after a JSON
    round trip)."""
    new_doc = json.loads(serialize.dumps(serialize.family_to_document(fam, metadata)))
    list_doc = json.loads(serialize.dumps(list_family_to_document(fam, metadata)))
    assert new_doc == text_rows(list_doc)
    assert_list_rows_read_alike(new_doc, list_doc)


def float_document(fam):
    """The float document of a family's float columns, which need not
    make a family (radii that round to 0.0)."""
    cols = fam.columns
    entries = list(map(row_text, np.hstack([cols.base, cols.radius[:, None]]).tolist()))
    for i, h in zip(cols.infinity.tolist(), cols.height.tolist()):
        entries.insert(i, {"type": "at_infinity", "height": h})
    return json.loads(serialize.dumps({
        "model": "upper_half_space", "dim": fam.dim, "rows": "float", "entries": entries,
        "metadata": {"labels": list(fam.labels)} if fam.labels else {}}))


def float_image(fam):
    """The float family of a family's float columns."""
    cols = fam.columns
    return HoroballFamily.from_columns(
        fam.dim, cols.tangent, cols.base, cols.radius, None,
        {i: AtInfinityHoroball(h) for i, h in zip(cols.infinity.tolist(), cols.height.tolist())},
        fam.labels)


def without_companions(doc):
    doc = json.loads(json.dumps(doc))
    for e in doc["entries"]:
        for key in ("base_exact", "radius_exact", "height_exact"):
            e.pop(key, None)
    return doc


# ---------------------------------------------------------------------------
# round trips


floats = st.floats(allow_nan=False, width=64)
positive = st.floats(min_value=0, exclude_min=True, allow_nan=False)


@st.composite
def float_families(draw):
    dim = draw(st.integers(2, 4))
    balls = [TangentHoroball(tuple(draw(floats) for _ in range(dim - 1)), draw(positive))
             for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        balls.insert(draw(st.integers(0, len(balls))), AtInfinityHoroball(draw(positive)))
    labels = [str(i) for i in range(len(balls))] if draw(st.booleans()) else None
    return HoroballFamily(dim, balls, labels)


EXACT = {"farey": farey(6, (0, 1), include_infinity=True),
         "farey-wide": farey(4, (-2, Fraction(7, 3))),
         "geometric": geometric(-3, 3),
         "extremal": extremal(3, Fraction(1, 3))}

#: families whose values the row forms must carry exactly: Farey with
#: and without a range and the member at infinity, the other generators,
#: the float edge cases, and families mixing exact and float values
NAMED = {"farey": farey(9),
         "farey+inf": farey(9, include_infinity=True),
         "farey-range": farey(7, (Fraction(-3, 2), 4)),
         "farey-range+inf": farey(7, (Fraction(1, 3), Fraction(2, 5)), include_infinity=True),
         "geometric": geometric(-4, 4),
         "extremal-float": extremal(3),
         "extremal-fraction": extremal(3, Fraction(2, 7)),
         "float-edges": HoroballFamily(3, [
             TangentHoroball((-0.0, math.inf), 5e-324), AtInfinityHoroball(math.inf),
             TangentHoroball((-math.inf, 2.2250738585072014e-308), math.inf),
             TangentHoroball((1e-310, -0.0), 0.1)]),
         "exact-rows-float-height": HoroballFamily(2, [
             TangentHoroball((Fraction(1, 3),), Fraction(1, 8)), AtInfinityHoroball(2.5)]),
         "float-rows-exact-height": HoroballFamily(2, [
             AtInfinityHoroball(Fraction(3, 2)), TangentHoroball((0.5,), 0.25)]),
         "heights-only": HoroballFamily(2, [AtInfinityHoroball(1), AtInfinityHoroball(Fraction(1, 3))]),
         "empty": HoroballFamily(3, [])}

#: families that read back unequal to themselves: empty labels read back
#: as None, and exact rows beside a float height were written as a float
#: document, which exact mode cannot read
FALSIFIED = {"empty-labels": HoroballFamily(2, [], labels=[]),
             "exact-rows-float-height": NAMED["exact-rows-float-height"]}


def is_value(token, form):
    """Whether a token is a value of the row form, decided without numpy:
    -?[0-9]+ in an exact row; in a float row, a token of the characters
    repr writes that float() reads."""
    if form == "exact":
        return re.fullmatch(r"-?[0-9]+", token) is not None
    try:
        float(token)
    except ValueError:
        return False
    return re.fullmatch(r"[-+.0-9aefin]+", token) is not None


@st.composite
def text_rows_of(draw):
    """(form, rows): text rows, mostly of values of the form (integers
    beyond int64 among them) separated by single spaces, else with other
    separators, and other tokens drawn from the characters of both forms."""
    form = draw(st.sampled_from(["exact", "float"]))
    width = 4 if form == "exact" else 2
    value = st.integers(-2 ** 64, 2 ** 64).map(str) if form == "exact" else \
        st.floats(width=64).map(repr)
    other = st.one_of(st.integers(-2 ** 64, 2 ** 64).map(str), st.floats(width=64).map(repr),
                      st.text(st.sampled_from("-+.0123456789aefinx\u0661"), max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = [draw(other if draw(st.integers(0, 15)) == 0 else value)
                  for _ in range(draw(st.sampled_from([width] * 6 + [1, 3, 5])))]
        seps = [draw(st.sampled_from([" "] * 30 + ["  ", "\t", "\n", ""])) for _ in tokens[1:]]
        rows.append(tokens[0] + "".join(map("".join, zip(seps, tokens[1:]))))
    return form, rows


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(float_families())
    def test_float_families(self, fam):
        doc = assert_reads_like_oracle(fam, {"k": 1})
        assert doc["rows"] == ("float" if len(fam.horoballs) else "exact")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 60), st.integers(0, 99))
    def test_random_families(self, dim, count, seed):
        fam = random_disjoint(count, dim, seed)
        assert_reads_like_oracle(fam)
        assert_same_family(serialize.document_to_family(
            json.loads(serialize.dumps(serialize.family_to_document(fam)))), fam)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_families(self, name):
        # the oracle has no exact form for a float height, which the row
        # document holds as [num, den]: its exact mode is pinned below
        modes = (False,) if name == "exact-rows-float-height" else (False, True)
        assert_reads_like_oracle(NAMED[name], {"generator": name}, modes)

    @pytest.mark.parametrize("name", sorted(FALSIFIED))
    @pytest.mark.parametrize("exact", [False, True])
    def test_falsified_round_trips(self, name, exact):
        # the family in exact mode, its float image in float mode
        fam = FALSIFIED[name]
        want = fam if exact else float_image(fam)
        doc = json.loads(serialize.dumps(serialize.family_to_document(fam)))
        assert doc["rows"] == "exact"
        back = serialize.document_to_family(doc, exact)
        assert back == want
        assert_same_columns(back, want)
        assert_reads_like_list_rows(fam)

    @pytest.mark.parametrize("name", sorted(EXACT))
    @pytest.mark.parametrize("k", [Fraction(2) ** 1100, Fraction(1, 2 ** 1100), Fraction(1)],
                             ids=["2^1100", "2^-1100", "1"])
    @pytest.mark.parametrize("companions", [True, False])
    def test_exact_families(self, name, k, companions):
        """The exact document, and without companions the float document
        of the same columns: in float mode each reads as the float image
        of the family, and where the oracle writes the family (not
        beyond the float range) as the oracle's document, stripped of
        its companions for the float document; the exact document reads
        in exact mode as the family, bit for bit."""
        fam = EXACT[name] if k == 1 else transform(EXACT[name], k)
        if companions:
            doc = json.loads(serialize.dumps(serialize.family_to_document(fam, {"g": name})))
            assert doc["rows"] == "exact"
            back = serialize.document_to_family(doc, exact=True)
            assert back == fam  # an int height reads as a Fraction, as in the oracle
            assert_same_columns(back, fam)
            assert_reads_like_list_rows(fam, {"g": name})
        else:
            doc = float_document(fam)
            assert outcome(serialize.document_to_family, doc, True) == \
                ("raised", (ValueError, NO_EXACT))
        got, want = outcome(serialize.document_to_family, doc), outcome(float_image, fam)
        assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
        if got[0] == "ok":
            assert_same_family(got[1], want[1])
        if k == 1:
            old = old_family_to_document(fam, doc["metadata"])
            assert_docs_read_alike(doc, old if companions else without_companions(old))

    def test_columns_beyond_the_float_range(self):
        doc = serialize.family_to_document(transform(EXACT["farey"], Fraction(2) ** 1100))
        cols = serialize.document_to_family(doc, exact=True).columns
        assert np.isinf(cols.radius).all() and (cols.radius > 0).all()
        assert doc["entries"][0] == f"0 1 {2 ** 1099} 1"
        assert serialize.document_to_family(doc).columns.radius[0] == math.inf
        tiny = serialize.document_to_family(
            serialize.family_to_document(transform(EXACT["farey"], Fraction(1, 2 ** 1100))), True)
        assert (tiny.columns.radius == 0).all()  # 2^-1101 rounds to 0.0, and passes
        assert tiny.horoballs[0].radius == Fraction(1, 2 ** 1101)
        assert {tiny.exact.radius_den.dtype, tiny.exact.radius_num.dtype} == {np.dtype(object),
                                                                              np.dtype(np.int64)}

    def test_float_mode_rounds_exact_rows(self):
        # unreduced rows read in lowest terms; float mode rounds them
        # correctly, as float(Fraction) does
        doc = doc_of([2, 6, 2, 20], [10 ** 17 + 1, 3 * 10 ** 17, 1, 2 ** 60],
                     {"type": "at_infinity", "height": [6, 2]})
        exact = serialize.document_to_family(doc, exact=True)
        assert exact.horoballs[0] == TangentHoroball((Fraction(1, 3),), Fraction(1, 10))
        assert (exact.exact.base_num.tolist(), exact.exact.radius_den.tolist()) == \
            ([[1], [10 ** 17 + 1]], [10, 2 ** 60])
        floats_ = serialize.document_to_family(doc)
        assert floats_.exact is None
        assert floats_.columns.base[:, 0].tolist() == [1 / 3, float(Fraction(10 ** 17 + 1,
                                                                             3 * 10 ** 17))]
        assert floats_.columns.radius.tolist() == [0.1, 2.0 ** -60]
        assert floats_.horoballs[2] == AtInfinityHoroball(3.0)
        for name in ("base", "radius"):
            assert bits(getattr(floats_.columns, name)) == bits(getattr(exact.columns, name))

    def test_values_beyond_int64_are_objects(self):
        for big in (2 ** 53, 2 ** 63, 2 ** 200):
            fam = serialize.document_to_family(doc_of([big, 1, 1, 2], [1, 2, 1, 8]), exact=True)
            assert fam.exact.base_num.dtype == object and fam.exact.base_den.dtype == np.int64
            assert fam.horoballs[0].base == (Fraction(big),)
        fam = serialize.document_to_family(doc_of([2 ** 53 - 1, 1, 1, 2]), exact=True)
        assert fam.exact.base_num.dtype == np.int64

    @pytest.mark.parametrize("value", [2 ** 63 - 1, 2 ** 63, 10 ** 30, -2 ** 63, -2 ** 63 - 1,
                                       -10 ** 30])
    def test_values_at_and_beyond_the_int64_bounds_read_exactly(self, value):
        # numpy reads an integer beyond int64 as 2^63 - 1 or -2^63 (both
        # 9223372036854775808 and -9223372036854775809 as 2^63 - 1), so a
        # value at a bound sends the document down the Python-int path
        doc = doc_of([1, 1, 1, 8], [value, 1, 1, 2])
        fam = serialize.document_to_family(doc, exact=True)
        assert fam.exact.base_num.dtype == object
        assert fam.exact.base_num[:, 0].tolist() == [1, value]
        assert fam.exact.radius_den.dtype == np.int64
        assert fam.columns.base[1, 0] == float(value)
        assert_list_rows_read_alike(doc, list_doc_of([1, 1, 1, 8], [value, 1, 1, 2]))

    @settings(max_examples=300, deadline=None)
    @given(text_rows_of())
    def test_one_parse_reads_as_the_rows_one_by_one(self, drawn):
        """The joined parse accepts text rows exactly when each row holds
        width values separated by single spaces, each a value of the form
        (is_value), and reads each value as int() or float() reads it."""
        form, rows = drawn
        width = 2 if form == "float" else 4
        split = [row.split(" ") for row in rows]
        values = list(chain.from_iterable(split))
        got = outcome(serialize._row_values, rows, form, width)
        if not all(len(v) == width for v in split) or \
                not all(is_value(v, form) for v in values):
            assert got[0] == "raised" and got[1][0] is ValueError, (rows, got)
        elif form == "exact":
            assert got[0] == "ok" and got[1].tolist() == list(map(int, values))
        elif any(math.isinf(float(v)) and v.lstrip("+-") != "inf" for v in values):
            assert got[0] == "raised" and got[1][0] is OverflowError, (rows, got)
        else:
            # bit for bit, but for the sign of a NaN
            want = np.array(list(map(float, values)))
            real = ~np.isnan(want)
            assert got[0] == "ok" and np.array_equal(np.isnan(got[1]), ~real) \
                and bits(got[1][real]) == bits(want[real]), (rows, got)


# ---------------------------------------------------------------------------
# the loader's errors


def list_doc_of(*entries, dim=2, rows="exact"):
    return {"model": "upper_half_space", "dim": dim, "rows": rows, "entries": list(entries)}


def doc_of(*entries, dim=2, rows="exact"):
    """A row document of the entries, a row given as a list written as
    its text row (row_text)."""
    return text_rows(list_doc_of(*entries, dim=dim, rows=rows))


def old_doc_of(*entries, dim=2):
    return {"model": "upper_half_space", "dim": dim, "entries": list(entries)}


#: a member at 1/2 of radius 1/4 as an exact row, a float row and an
#: entry of the per-entry oracle
ROW, FLOAT_ROW = [1, 2, 1, 4], [0.5, 0.25]
TANGENT = {"type": "tangent", "base": ["0.5"], "base_exact": ["1/2"],
           "radius": "0.25", "radius_exact": "1/4"}
CUSP = {"type": "cusp"}


def tangent(radius=None, base=None):
    """(exact row, float row, oracle entry) of a member at 1/2 of radius
    1/4, or of the radius n/d and base coordinates n/d given."""
    (rn, rd), base = radius or (1, 4), base or [(1, 2)]
    row = [n for n, _ in base] + [d for _, d in base] + [rn, rd]
    flt = [n / d for n, d in base] + [rn / rd]
    return row, flt, {"type": "tangent", "base": [repr(x) for x in flt[:-1]],
                      "base_exact": [f"{n}/{d}" for n, d in base],
                      "radius": repr(flt[-1]), "radius_exact": f"{rn}/{rd}"}


def height(num, den=1):
    """(exact entry, float entry, oracle entry) of a member at infinity."""
    return ({"type": "at_infinity", "height": [num, den]},
            {"type": "at_infinity", "height": num / den},
            {"type": "at_infinity", "height": repr(num / den), "height_exact": f"{num}/{den}"})


def ported(*members, dim=2):
    """The exact document, the float document and the oracle's document
    of the members given as the triples of tangent() and height()."""
    return tuple(make(*(m[k] for m in members), dim=dim) for k, make in
                 ((0, doc_of), (1, lambda *e, dim: doc_of(*e, dim=dim, rows="float")),
                  (2, old_doc_of)))


ZERO, NEG = tangent((0, 1)), tangent((-1, 2))
TWO = tangent(base=[(1, 2), (1, 1)])
PORTED = {
    "unknown-type": ported(tangent(), (CUSP,) * 3),
    "radius-zero": ported(ZERO),
    "radius-negative": ported(NEG),
    "height-zero": ported(height(0)),
    "height-negative": ported(height(-1)),
    "base-length": ported(tangent(), TWO),
    "dim-mismatch": ported(tangent(), dim=3),
    "dim-one": ported(tangent(), dim=1),
    "type-before-radius": ported(tangent(), (CUSP,) * 3, ZERO),
    "base-length-after-type": ported(TWO, (CUSP,) * 3),
    "empty": ported(),
    "radius-nan": (None, doc_of([0.5, math.nan], rows="float"),
                   old_doc_of({**TANGENT, "radius": "nan"})),
    "radius-minus-zero": (None, doc_of([0.5, -0.0], rows="float"),
                          old_doc_of({**TANGENT, "radius": "-0.0", "radius_exact": "-0"})),
    "float-rows-in-exact-mode": (None, doc_of(FLOAT_ROW, rows="float"),
                                 old_doc_of({**TANGENT, "radius_exact": None})),
    "not-upper-half-space": ({"model": "tree", "dim": 0, "rows": "exact", "entries": []}, None,
                             {"model": "tree", "dim": 0, "entries": []}),
}

#: where the row reader names another error than the oracle: it reads
#: the rows after the other entries, so an unknown type is named
#: wherever it stands, and an exact row refuses a float in either mode
DIFFERS = {
    "radius-before-type": (ported(ZERO, (CUSP,) * 3)[:2], "unknown horoball entry type 'cusp'"),
    "float-in-exact-row": ((doc_of([0.5, 1, 1, 4]),),
                           "exact document holds integers only, not '0.5'"),
}


#: a list-row document, the message of the reader on its text rows
#: (text_rows) and an id: each is refused, and by the same error as the
#: list-row oracle gives on the list-row document (a message that names a
#: row value names it as written, where the oracle names its JSON type)
CHECKED = [
    (list_doc_of([0.5, 1, 1, 4]), "exact document holds integers only, not '0.5'", "float-base"),
    (list_doc_of([1, 2, 1.0, 4]), "exact document holds integers only, not '1.0'", "float-radius"),
    (list_doc_of(["1/2", 1, 1, 4]), "exact document holds integers only, not '1/2'", "string"),
    (list_doc_of([True, 2, 1, 4]), "exact document holds integers only, not 'true'", "bool"),
    (list_doc_of([None, 2, 1, 4]), "exact document holds integers only, not 'null'", "null"),
    (list_doc_of([1, 0, 1, 4]), "denominators must be positive", "zero-den"),
    (list_doc_of([1, -2, 1, 4]), "denominators must be positive", "negative-den"),
    (list_doc_of([1, 2, 1, 0]), "denominators must be positive", "zero-radius-den"),
    (list_doc_of([1, 2, -1, -4]), "denominators must be positive", "negative-radius"),
    (list_doc_of({"type": "at_infinity", "height": [1, 0]}), "denominators must be positive",
     "zero-height-den"),
    (list_doc_of({"type": "at_infinity", "height": [1.5, 1]}), "integers only, not float",
     "float-height"),
    (list_doc_of({"type": "at_infinity", "height": [1]}),
     r"height in an exact document is \[num, den\]", "short-height"),
    (list_doc_of({"type": "at_infinity", "height": 2}),
     r"height in an exact document is \[num, den\]", "number-height"),
    (list_doc_of(['"0.5"', 0.25], rows="float"), "float document holds numbers only, not '\"0.5\"'",
     "float-string"),
    (list_doc_of([0.5, True], rows="float"), "float document holds numbers only, not 'true'",
     "float-bool"),
    (list_doc_of([None, 0.25], rows="float"), "float document holds numbers only, not 'null'",
     "float-null"),
    (list_doc_of({"type": "at_infinity", "height": "2.0"}, rows="float"), "numbers only, not str",
     "float-string-height"),
    (list_doc_of([1, 2, 1, 4, 1]), "horoball base dimension does not match family", "odd-row"),
    (list_doc_of([1, 2, 1, 4], [0.5, 0.25], rows="float"), "base dimension does not match",
     "float-long-row"),
    (list_doc_of({"height": [1, 1]}), "malformed family document: KeyError", "no-type"),
    (list_doc_of(None), "malformed family document: TypeError", "null-entry"),
    ({**list_doc_of(), "entries": {"a": 1}}, "malformed family document: TypeError",
     "entries-object"),
    (list_doc_of([10 ** 400, 0.25], rows="float"), "malformed family document: OverflowError",
     "huge-int"),
]


def not_a(form, token):
    name = "integers" if form == "exact" else "numbers"
    return re.escape(f"{form} document holds {name} only, not {token!r}")


SPACING = "row values are separated by single spaces"
WIDTH = "horoball base dimension does not match family"

#: text rows that no list row can write, each refused with its message:
#: tokens that are not values of the row form, and rows whose values are
#: not width values separated by single spaces, also where another row
#: would make up the count of values or spaces
TEXT_FAULTS = {
    **{f"exact-{name}": (doc_of(f"{token} 2 1 4"), not_a("exact", token)) for name, token in [
        ("exponent", "1e3"), ("underscore", "1_0"), ("arabic-digit", "\u0661"),
        ("fullwidth-digit", "\uff11"), ("plus", "+1"), ("lone-minus", "-"), ("inner-minus", "2-3"),
        ("double-minus", "--2"), ("nan", "nan"), ("quoted", '"1"')]},
    **{f"float-{name}": (doc_of(f"{token} 0.25", rows="float"), not_a("float", token))
       for name, token in [("json-infinity", "Infinity"), ("json-nan", "NaN"), ("hex", "0x1"),
                           ("bare-exponent", "1e"), ("double-minus", "--1"), ("comma", "1,5"),
                           ("underscore", "1_0"), ("arabic-digit", "\u0661")]},
    # numpy reads a "-" that ends the text as 0
    "exact-trailing-lone-minus": (doc_of("1 2 1 4", "1 2 1 -"), not_a("exact", "-")),
    "float-beyond-range": (doc_of("1e400 0.25", rows="float"), "OverflowError: row value 1e400"),
    "float-nan-radius": (doc_of("0.5 nan", rows="float"), "radius must be positive"),
    "double-space": (doc_of("1  2 1 4"), SPACING),
    "leading-space": (doc_of(" 1 2 1 4"), SPACING),
    "trailing-space": (doc_of("1 2 1 4 "), SPACING),
    "tab": (doc_of("1\t2 1 4"), SPACING),
    "carriage-return": (doc_of("1 2 1 4\r"), SPACING),
    "no-break-space": (doc_of("1\u00a02 1 4"), SPACING),
    "empty-row": (doc_of("1 2 1 4", ""), SPACING),
    "tab-made-up-by-a-short-row": (doc_of("0 1 1 2\t7", "1 1 2"), SPACING),
    "newline-made-up-by-a-short-row": (doc_of("0 1 1 2\n7", "1 1 2"), SPACING),
    "double-space-made-up-by-a-missing-one": (doc_of("0 1 1  2", "1 1 12"), SPACING),
    "short-row-made-up-by-a-long-one": (doc_of("0 1 1", "2 1 1 2 8"), WIDTH),
    "float-short-row-made-up-by-a-long-one": (doc_of("0.5", "0.5 0.25 0.25", rows="float"),
                                              WIDTH),
    "type-before-row-fault": (doc_of("1 x 1 4", CUSP),
                              "unknown horoball entry type 'cusp'"),
}


class TestErrors:
    @pytest.mark.parametrize("case", list(PORTED) + list(DIFFERS))
    def test_same_error_as_oracle(self, case):
        """Each case as an exact and a float row document against the
        oracle's per-entry document, in both modes.  Exact mode reads no
        float document, as the oracle read no entry without companions."""
        if case in DIFFERS:
            docs, message = DIFFERS[case]
            for doc in docs:
                for exact in (False, True) if doc["rows"] == "exact" else (False,):
                    with pytest.raises(ValueError, match=message):
                        serialize.document_to_family(doc, exact)
            return
        exact_doc, float_doc, old = PORTED[case]
        for doc in (exact_doc, float_doc):
            for exact in (False, True) if doc is not None else ():
                new = outcome(serialize.document_to_family, doc, exact)
                if exact and doc is float_doc:
                    assert new == ("raised", (ValueError, NO_EXACT))
                    continue
                want = outcome(old_document_to_family, old, exact)
                assert new[0] == want[0], (case, exact, new, want)
                if new[0] == "raised":
                    same_error(new[1], want[1])
                else:
                    assert_same_family(new[1], want[1])

    def test_messages(self):
        cases = {"unknown horoball entry type 'cusp'": doc_of(CUSP),
                 "radius must be positive": doc_of([1, 2, 0, 1]),
                 "height must be positive": doc_of({"type": "at_infinity", "height": [0, 1]}),
                 "horoball base dimension does not match family": doc_of(ROW, dim=3),
                 "ambient dimension must be at least 2": doc_of(ROW, dim=1)}
        for message, doc in cases.items():
            for exact in (False, True):
                with pytest.raises(ValueError, match=message):
                    serialize.document_to_family(doc, exact)
        with pytest.raises(ValueError, match=NO_EXACT):
            serialize.document_to_family(doc_of(FLOAT_ROW, rows="float"), True)
        with pytest.raises(ValueError, match="not an upper_half_space document: 'tree'"):
            serialize.document_to_family({"model": "tree", "entries": []})

    def test_per_entry_documents_are_refused(self, tmp_path, capsys):
        old = old_family_to_document(farey(4, include_infinity=True))
        for exact in (False, True):
            with pytest.raises(ValueError, match="per-entry family document .* re-run pack"):
                serialize.document_to_family(old, exact)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        assert main(["verify", "packing", "--family", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: per-entry family document")
        with pytest.raises(ValueError, match="unknown row form 'columns'"):
            serialize.document_to_family(doc_of(ROW, rows="columns"))

    def test_list_row_documents_are_refused(self, tmp_path, capsys):
        # the row documents before text rows held a row as a JSON array
        for fam in (farey(4, include_infinity=True), farey(4), random_disjoint(5, 3, 0)):
            old = json.loads(serialize.dumps(list_family_to_document(fam)))
            for exact in (False, True) if old["rows"] == "exact" else (False,):
                with pytest.raises(ValueError, match="list-row family document .* re-run pack"):
                    serialize.document_to_family(old, exact)
            path = tmp_path / "old.json"
            path.write_text(json.dumps(old))
            assert main(["verify", "packing", "--family", str(path)]) == 1
            assert capsys.readouterr().err == "error: list-row family document (the format " \
                "before text rows): re-run pack to write it again\n"

    @pytest.mark.parametrize("doc,message", [c[:2] for c in CHECKED], ids=[c[2] for c in CHECKED])
    def test_rows_are_checked_not_coerced(self, doc, message):
        # np.fromstring(..., dtype=np.int64) would read "- 2" as -2, and a
        # list row's np.array(..., dtype=np.int64) read 0.5 as 0 and True
        # as 1
        doc = text_rows(doc)
        for exact in (False, True):
            if exact and doc["rows"] == "float":
                continue  # NO_EXACT, before the rows are read
            with pytest.raises(ValueError, match=message):
                serialize.document_to_family(doc, exact)

    @pytest.mark.parametrize("doc", [c[0] for c in CHECKED], ids=[c[2] for c in CHECKED])
    def test_same_error_as_list_row_oracle(self, doc):
        assert_list_rows_read_alike(text_rows(doc), doc)

    @pytest.mark.parametrize("doc,message", list(TEXT_FAULTS.values()), ids=list(TEXT_FAULTS))
    def test_text_rows_are_checked(self, tmp_path, capsys, doc, message):
        for exact in (False, True) if doc["rows"] == "exact" else (False,):
            with pytest.raises(ValueError, match=message):
                serialize.document_to_family(doc, exact)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "packing", "--family", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and re.search(message, err)


# ---------------------------------------------------------------------------
# one constructor: a family given as member objects is from_columns on
# their values, exact exactly when every tangent value is an int or a
# Fraction


def value_of(kind):
    return {"float": st.floats(-1e6, 1e6, allow_nan=False),
            "int": st.integers(-10 ** 20, 10 ** 20),
            "fraction": st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 12)}[kind]


def positive_of(kind):
    return {"float": st.floats(1e-9, 1e6),
            "int": st.integers(1, 10 ** 20),
            "fraction": st.fractions(0, 10 ** 6, max_denominator=10 ** 12)
            .filter(lambda f: f > 0)}[kind]


@st.composite
def member_lists(draw):
    """(dim, members): tangent values of one kind, or of kinds drawn per
    value (mixed), with members at infinity of any kind among them."""
    dim = draw(st.integers(2, 4))
    kinds = ["float", "int", "fraction"]
    mode = draw(st.sampled_from(kinds + ["mixed"]))
    pick = (lambda: draw(st.sampled_from(kinds))) if mode == "mixed" else (lambda: mode)
    hs = [TangentHoroball(tuple(draw(value_of(pick())) for _ in range(dim - 1)),
                          draw(positive_of(pick())))
          for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2))):
        hs.insert(draw(st.integers(0, len(hs))),
                  AtInfinityHoroball(draw(positive_of(draw(st.sampled_from(kinds))))))
    return dim, hs


class TestOneConstructor:
    @settings(max_examples=200, deadline=None)
    @given(member_lists())
    def test_members_are_columns(self, drawn):
        dim, hs = drawn
        fam = HoroballFamily(dim, hs)
        idx = [i for i, h in enumerate(hs) if isinstance(h, TangentHoroball)]
        tangents = [hs[i] for i in idx]
        exact = bool(tangents) and all(isinstance(c, (int, Fraction))
                                       for h in tangents for c in h.base + (h.radius,))
        assert (fam.exact is not None) == exact
        # the members rebuilt from the columns: the given ones, or their
        # float images in a float family
        number = Fraction if exact else to_float
        want = [TangentHoroball(tuple(map(number, h.base)), number(h.radius))
                if isinstance(h, TangentHoroball) else h for h in hs]
        assert list(fam.horoballs) == want
        if all(type(c) is float for h in tangents for c in h.base + (h.radius,)) or exact:
            assert list(fam.horoballs) == hs
        rows = np.arange(len(idx))
        assert fam.bases(rows) == [want[i].base for i in idx]
        assert fam.radii(rows) == [want[i].radius for i in idx]
        # bit for bit the family from_columns builds on the same values
        if exact:
            ratios = Ratios.of([h.base for h in tangents], [h.radius for h in tangents], dim - 1)
            base, radius = ratios.floats()
        else:
            ratios = None
            base = np.array([[to_float(c) for c in h.base] for h in tangents],
                            dtype=float).reshape(len(idx), dim - 1)
            radius = np.array([to_float(h.radius) for h in tangents], dtype=float)
        infs = {i: h for i, h in enumerate(hs) if isinstance(h, AtInfinityHoroball)}
        assert_same_family(fam, HoroballFamily.from_columns(dim, np.array(idx, dtype=np.intp),
                                                            base, radius, ratios, infs))
        if exact:
            for key in Ratios.__slots__:
                a, b = getattr(fam.exact, key), getattr(ratios, key)
                assert (a.dtype, a.tolist()) == (b.dtype, b.tolist())

    def test_mixed_and_integer_families(self):
        # floats mixed with ints or Fractions make a float family
        mixed = HoroballFamily(2, [TangentHoroball((Fraction(1, 4),), 1),
                                   TangentHoroball((2.0,), 0.5)])
        assert mixed.exact is None
        assert [type(c) for h in mixed.horoballs for c in h.base + (h.radius,)] == [float] * 4
        assert mixed.horoballs == [TangentHoroball((0.25,), 1.0), TangentHoroball((2.0,), 0.5)]
        # ints come back as equal Fractions, written "n/d"
        ints = HoroballFamily(2, [TangentHoroball((0,), 1), AtInfinityHoroball(3)])
        assert ints.exact is not None and ints.horoballs[0] == TangentHoroball((0,), 1)
        assert [type(c) for c in ints.horoballs[0].base + (ints.horoballs[0].radius,)] == \
            [Fraction, Fraction]
        doc = serialize.family_to_document(ints)
        assert (doc["rows"], doc["entries"]) == \
            ("exact", ["0 1 1 1", {"type": "at_infinity", "height": [3, 1]}])
        # no tangent rows: no exact columns
        assert HoroballFamily(2, [AtInfinityHoroball(1)]).exact is None
        assert HoroballFamily(3, []).exact is None

    def test_inverted_height_stays_exact(self):
        h = invert_horoball(AtInfinityHoroball(1), (0.0,))
        assert h.radius == Fraction(1, 2) and type(h.radius) is Fraction
        assert invert_horoball(AtInfinityHoroball(Fraction(2, 3)), (0,)).radius == Fraction(3, 4)
        assert invert_horoball(AtInfinityHoroball(3.0), (0.0,)).radius == 1 / (2 * 3.0)


# ---------------------------------------------------------------------------
# documents the CLI writes


def pack(tmp_path, *argv):
    """The document `pack` writes; it exits 1 on an overlapping family."""
    out = tmp_path / "fam.json"
    assert main(["pack", *argv, "--out", str(out)]) in (0, 1)
    return out.read_text()


class TestPackDocuments:
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
    @pytest.mark.parametrize("qmax,rng,inf", [(1, "0..1", False), (12, "0..1", True),
                                              (9, "-3..4", True), (30, "1/3..2/5", False)])
    def test_farey_as_the_oracle_writes_it(self, tmp_path, exact, qmax, rng, inf):
        argv = ["farey", "--qmax", str(qmax), f"--range={rng}"] + (["--infinity"] if inf else [])
        text = pack(tmp_path, *argv, *exact)
        lo, _, hi = rng.partition("..")
        want = old_family_to_document(old_farey(qmax, (Fraction(lo), Fraction(hi)), inf),
                                      {"generator": "farey", "qmax": qmax, "range": rng})
        doc = json.loads(text)
        assert doc["rows"] == "exact"
        assert_docs_read_alike(doc, want)
        # compact: one line with sorted keys
        assert text.count("\n") == 1 and text == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,fam,meta", [
        (["geometric", "--nmin", "-3", "--nmax", "4"], geometric(-3, 4),
         {"generator": "geometric", "nmin": -3, "nmax": 4}),
        (["extremal", "--generations", "3", "--s", "1/3", "--exact"],
         extremal(3, Fraction(1, 3)), {"generator": "extremal", "generations": 3, "s": 1 / 3}),
        (["random", "--count", "25", "--dim", "3"], random_disjoint(25, 3, 0),
         {"generator": "random", "count": 25, "dim": 3, "seed": 0}),
    ], ids=["geometric", "extremal", "random"])
    def test_other_packs(self, tmp_path, argv, fam, meta):
        assert_docs_read_alike(json.loads(pack(tmp_path, *argv)), old_family_to_document(fam, meta))


# ---------------------------------------------------------------------------
# laziness: member objects only where a scalar test reads one


@pytest.fixture
def constructions(monkeypatch):
    count = [0]
    init = TangentHoroball.__post_init__

    def counted(self):
        count[0] += 1
        init(self)
    monkeypatch.setattr(TangentHoroball, "__post_init__", counted)
    return count


class TestLaziness:
    @pytest.mark.parametrize("run", [
        lambda fam: solve_2d(fam, 0.23),
        lambda fam: solve_hnr(fam, 0.23),
        lambda fam: biinfinite_line(fam, 1.5),
        lambda fam: ray_from_point(fam, Point((0.43,), 0.9), 1.88),
        lambda fam: ray_from_point(fam, Point((0.61,), 0.85), 1.95),
    ], ids=["solve_2d", "solve_hnr", "biinfinite_line", "ray_from_point", "ray-other-side"])
    @pytest.mark.parametrize("read", ["generated", "float-document", "exact-document"])
    def test_solvers_build_few_members(self, constructions, run, read):
        fam = farey(200, (0, 1), include_infinity=True)
        if read != "generated":
            doc = json.loads(serialize.dumps(serialize.family_to_document(fam)))
            fam = serialize.document_to_family(doc, read == "exact-document")
        n = len(fam.horoballs)
        constructions[0] = 0
        run(fam)
        assert constructions[0] < n / 10

    def test_generate_dump_load_build_none(self, constructions):
        fam = farey(200, (0, 1), include_infinity=True)
        doc = json.loads(serialize.dumps(serialize.family_to_document(fam)))
        back = [serialize.document_to_family(doc, exact) for exact in (False, True)]
        assert len(fam.horoballs) == len(back[0].horoballs) == len(back[1].horoballs) > 12000
        assert constructions[0] == 0
        assert math.isclose(back[0].columns.radius.sum(), fam.columns.radius.sum())
