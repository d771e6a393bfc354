"""The columnar family against the member-by-member code it replaced,
which is kept here as the oracle: the entry-by-entry loader and writer
of family documents.  Also: documents written from columns equal the
documents the oracle writes, exact columns come from the companions, the
loader raises the oracle's errors, and the solvers build member objects
only for the members a scalar test reads."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import serialize
from horoshadow.cli import main
from horoshadow.halfspace import AtInfinityHoroball, Point, TangentHoroball, invert_horoball
from horoshadow.numeric import to_float
from horoshadow.packings import (
    HoroballFamily,
    Ratios,
    extremal,
    farey,
    geometric,
    random_disjoint,
)
from horoshadow.rays import biinfinite_line, ray_from_point
from horoshadow.sharp2d import solve_2d
from horoshadow.sharpnd import solve_hnr
from test_packing_oracles import old_farey

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
    assert (got.dim, got.labels) == (want.dim, want.labels)
    assert list(got.horoballs) == list(want.horoballs)
    assert [type(c) for h in got.horoballs for c in vars(h).values() if not isinstance(c, tuple)] \
        == [type(c) for h in want.horoballs for c in vars(h).values() if not isinstance(c, tuple)]
    a, b = got.columns, want.columns
    assert np.array_equal(a.tangent, b.tangent) and np.array_equal(a.infinity, b.infinity)
    for name in ("base", "radius", "height"):
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name
    assert (got.exact is None) == (want.exact is None)


def assert_loads_like_oracle(doc):
    """Both modes: the same family, bit for bit, or the same error."""
    for exact in (False, True):
        new = outcome(serialize.document_to_family, doc, exact)
        old = outcome(old_document_to_family, doc, exact)
        assert new[0] == old[0], (exact, new, old)
        if new[0] == "raised":
            assert new == old
        else:
            assert_same_family(new[1], old[1])


def without_companions(doc):
    doc = json.loads(json.dumps(doc))
    for e in doc["entries"]:
        for key in ("base_exact", "radius_exact", "height_exact"):
            e.pop(key, None)
    return doc


def dilated(fam, k):
    return HoroballFamily(fam.dim, [
        TangentHoroball(tuple(k * c for c in h.base), k * h.radius)
        if isinstance(h, TangentHoroball) else AtInfinityHoroball(k * h.height)
        for h in fam.horoballs], fam.labels)


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


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(float_families())
    def test_float_families(self, fam):
        doc = serialize.family_to_document(fam, {"k": 1})
        assert doc == old_family_to_document(fam, {"k": 1})
        assert_loads_like_oracle(json.loads(serialize.dumps(doc)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 60), st.integers(0, 99))
    def test_random_families(self, dim, count, seed):
        fam = random_disjoint(count, dim, seed)
        doc = serialize.family_to_document(fam)
        assert doc == old_family_to_document(fam)
        assert_loads_like_oracle(doc)

    @pytest.mark.parametrize("name", sorted(EXACT))
    @pytest.mark.parametrize("k", [Fraction(2) ** 1100, Fraction(1, 2 ** 1100), Fraction(1)],
                             ids=["2^1100", "2^-1100", "1"])
    @pytest.mark.parametrize("companions", [True, False])
    def test_exact_families(self, name, k, companions):
        fam = EXACT[name] if k == 1 else dilated(EXACT[name], k)
        doc = serialize.family_to_document(fam, {"generator": name})
        if k == 1:
            assert doc == old_family_to_document(fam, {"generator": name})
        if not companions:
            doc = without_companions(doc)
        assert_loads_like_oracle(doc)
        if companions:
            back = serialize.document_to_family(doc, exact=True)
            assert back == fam
            for name in ("base", "radius", "height"):
                assert bits(getattr(back.columns, name)) == bits(getattr(fam.columns, name))

    def test_columns_beyond_the_float_range(self):
        doc = serialize.family_to_document(dilated(EXACT["farey"], Fraction(2) ** 1100))
        cols = serialize.document_to_family(doc, exact=True).columns
        assert np.isinf(cols.radius).all() and (cols.radius > 0).all()
        assert doc["entries"][0]["radius"] == "inf"
        tiny = serialize.document_to_family(
            serialize.family_to_document(dilated(EXACT["farey"], Fraction(1, 2 ** 1100))), True)
        assert (tiny.columns.radius == 0).all()  # 2^-1101 rounds to 0.0, and passes
        assert tiny.horoballs[0].radius == Fraction(1, 2 ** 1101)

    def test_companions_decide_under_exact(self):
        # decimals that disagree with their companions
        doc = {"model": "upper_half_space", "dim": 2, "entries": [
            {"type": "tangent", "base": ["0.25"], "base_exact": ["1/3"],
             "radius": "0.5", "radius_exact": "1/10"},
            {"type": "at_infinity", "height": "2.0", "height_exact": "3"}]}
        assert_loads_like_oracle(doc)
        exact = serialize.document_to_family(doc, exact=True)
        assert exact.horoballs[0] == TangentHoroball((Fraction(1, 3),), Fraction(1, 10))
        assert exact.columns.base[0, 0] == 1 / 3 and exact.columns.radius[0] == 0.1
        assert exact.columns.height[0] == 3.0
        floats_ = serialize.document_to_family(doc)
        assert floats_.horoballs[0] == TangentHoroball((0.25,), 0.5)
        assert floats_.columns.base[0, 0] == 0.25 and floats_.columns.height[0] == 2.0

    def test_companion_forms_fraction_reads(self):
        # forms beyond "n/d": decimals, signs, spaces, unreduced and zero
        for text in ["2/4", "+3/4", " 3/4 ", "0.5", "1e-3", "-6/8", "3/-4", "3 /4", "1_000/3",
                     "3/0", "abc"]:
            doc = {"model": "upper_half_space", "dim": 2, "entries": [
                {"type": "tangent", "base": ["0.0"], "base_exact": [text],
                 "radius": "0.5", "radius_exact": "1/2"}]}
            assert_loads_like_oracle(doc)


# ---------------------------------------------------------------------------
# the loader's errors


def doc_of(*entries, dim=2):
    return {"model": "upper_half_space", "dim": dim, "entries": list(entries)}


TANGENT = {"type": "tangent", "base": ["0.5"], "base_exact": ["1/2"],
           "radius": "0.25", "radius_exact": "1/4"}


class TestErrors:
    @pytest.mark.parametrize("doc", [
        doc_of(TANGENT, {"type": "cusp"}),
        doc_of({**TANGENT, "radius_exact": None}),
        doc_of({k: v for k, v in TANGENT.items() if k != "base_exact"}),
        doc_of({**TANGENT, "radius": "0.0", "radius_exact": "0/1"}),
        doc_of({**TANGENT, "radius": "-0.5", "radius_exact": "-1/2"}),
        doc_of({**TANGENT, "radius": "nan"}),
        doc_of({**TANGENT, "radius": "-0.0", "radius_exact": "-0"}),
        doc_of({"type": "at_infinity", "height": "0.0", "height_exact": "0"}),
        doc_of({"type": "at_infinity", "height": "-1.0"}),
        doc_of(TANGENT, {**TANGENT, "base": ["1", "2"], "base_exact": ["1", "2"]}),
        doc_of(TANGENT, dim=3),
        doc_of(TANGENT, dim=1),
        doc_of(TANGENT, {"type": "cusp"}, {**TANGENT, "radius": "0.0", "radius_exact": "0"}),
        doc_of({**TANGENT, "radius": "0.0", "radius_exact": "0"}, {"type": "cusp"}),
        doc_of({**TANGENT, "base": ["0.5", "1.0"], "base_exact": ["1/2", "1"]}, {"type": "cusp"}),
        doc_of(),
        {"model": "tree", "dim": 0, "entries": []},
    ], ids=["unknown-type", "missing-radius-companion", "missing-base-companions",
            "radius-zero", "radius-negative", "radius-nan",
            "radius-minus-zero", "height-zero", "height-negative", "base-length",
            "dim-mismatch", "dim-one", "type-before-radius", "radius-before-type",
            "base-length-after-type", "empty", "not-upper-half-space"])
    def test_same_error_as_oracle(self, doc):
        assert_loads_like_oracle(doc)

    def test_messages(self):
        cases = {"unknown horoball entry type 'cusp'": doc_of({"type": "cusp"}),
                 "radius must be positive": doc_of({**TANGENT, "radius": "0.0",
                                                    "radius_exact": "0"}),
                 "horoball base dimension does not match family": doc_of(TANGENT, dim=3)}
        for message, doc in cases.items():
            for exact in (False, True):
                with pytest.raises(ValueError, match=message):
                    serialize.document_to_family(doc, exact)
        with pytest.raises(ValueError, match="no exact form for '0.25' in exact mode"):
            serialize.document_to_family(doc_of({**TANGENT, "radius_exact": None}), True)


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
        entry = serialize.family_to_document(ints)["entries"][0]
        assert (entry["base_exact"], entry["radius_exact"]) == (["0/1"], "1/1")
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
        assert json.loads(text) == want
        # compact: one line with sorted keys
        assert text.count("\n") == 1 and text == json.dumps(want, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,fam,meta", [
        (["geometric", "--nmin", "-3", "--nmax", "4"], geometric(-3, 4),
         {"generator": "geometric", "nmin": -3, "nmax": 4}),
        (["extremal", "--generations", "3", "--s", "1/3", "--exact"],
         extremal(3, Fraction(1, 3)), {"generator": "extremal", "generations": 3, "s": 1 / 3}),
        (["random", "--count", "25", "--dim", "3"], random_disjoint(25, 3, 0),
         {"generator": "random", "count": 25, "dim": 3, "seed": 0}),
    ], ids=["geometric", "extremal", "random"])
    def test_other_packs(self, tmp_path, argv, fam, meta):
        assert json.loads(pack(tmp_path, *argv)) == old_family_to_document(fam, meta)


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
