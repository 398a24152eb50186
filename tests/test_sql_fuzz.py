"""Property-based fuzzing of the SQL front end.

Three layers, per the issue's test archetype:

* **Grammar round-trip** — random valid statement trees unparse to
  canonical SQL that re-parses to an equal tree (positions excluded from
  equality).
* **Differential execution** — random valid scripts (schema, inserts,
  mixed predicates, deletes, kNN) run through the full planner/cluster
  engine and the brute-force oracle; record-id sets and projected rows
  must be identical, whatever access path the planner picked.
* **Malformed input** — random mutations of valid scripts (and arbitrary
  text) must either parse or raise a typed :class:`SqlError` with integer
  line/column — never any other exception.

``REPRO_SQL_FUZZ`` scales the differential fuzz examples (each script
contains several SELECTs); the dedicated CI job sets it so that >= 500
fuzzed queries run per CI pass.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sql import NaiveDatabase, SqlEngine, SqlError, parse_script, parse_statement, unparse
from repro.sql.ast import (
    Between,
    ColumnDef,
    Comparison,
    CreateTable,
    Delete,
    Explain,
    Insert,
    Nearest,
    Select,
)

pytestmark = pytest.mark.sql

#: Differential fuzz example count; each example executes ~6 SELECTs, so
#: the CI setting REPRO_SQL_FUZZ=100 exceeds the 500-query acceptance bar.
FUZZ_EXAMPLES = int(os.environ.get("REPRO_SQL_FUZZ", "25"))

# ------------------------------------------------------------- strategies

_ident = st.sampled_from(["t", "pts", "data_1", "Tab", "x_y"])
_colname = st.sampled_from(["x", "y", "z", "a1", "val_2"])
_value = st.floats(
    min_value=-50.0, max_value=150.0, allow_nan=False, allow_infinity=False
)
_op = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])


@st.composite
def _columns(draw):
    names = draw(
        st.lists(_colname, min_size=1, max_size=3, unique=True)
    )
    cols = []
    for name in names:
        lo = draw(st.floats(min_value=-100, max_value=50, allow_nan=False))
        width = draw(st.floats(min_value=1.0, max_value=200.0, allow_nan=False))
        cols.append(ColumnDef(name=name, lo=lo, hi=lo + width))
    return tuple(cols)


@st.composite
def _predicate(draw, cols):
    col = draw(st.sampled_from(cols)).name
    if draw(st.booleans()):
        lo, hi = draw(_value), draw(_value)
        return Between(column=col, lo=lo, hi=hi)
    return Comparison(column=col, op=draw(_op), value=draw(_value))


@st.composite
def _select(draw, cols):
    table = draw(_ident)
    proj = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from([c.name for c in cols]), min_size=1, max_size=3).map(tuple),
        )
    )
    if draw(st.booleans()):
        point = tuple(draw(_value) for _ in cols)
        return Select(
            table=table,
            columns=proj,
            nearest=Nearest(k=draw(st.integers(1, 20)), point=point),
        )
    where = tuple(draw(st.lists(_predicate(cols), min_size=0, max_size=3)))
    return Select(table=table, columns=proj, where=where)


@st.composite
def _statement(draw):
    cols = draw(_columns())
    kind = draw(st.sampled_from(["create", "insert", "delete", "select", "explain"]))
    if kind == "create":
        idx = draw(st.sampled_from([("gridfile",), ("rtree",), ("gridfile", "rtree")]))
        cap = draw(st.one_of(st.none(), st.integers(1, 64)))
        return CreateTable(name=draw(_ident), columns=cols, indexes=idx, capacity=cap)
    if kind == "insert":
        d = len(cols)
        rows = draw(
            st.lists(
                st.tuples(*[_value for _ in range(d)]), min_size=1, max_size=5
            )
        )
        return Insert(table=draw(_ident), rows=tuple(rows))
    if kind == "delete":
        where = tuple(draw(st.lists(_predicate(cols), min_size=0, max_size=2)))
        return Delete(table=draw(_ident), where=where)
    sel = draw(_select(cols))
    return Explain(sel) if kind == "explain" else sel


# ------------------------------------------------------- grammar fuzzing


@settings(max_examples=200, deadline=None)
@given(_statement())
def test_parse_unparse_parse_round_trip(stmt):
    text = unparse(stmt)
    reparsed = parse_statement(text)
    assert reparsed == stmt
    assert unparse(reparsed) == text


@settings(max_examples=100, deadline=None)
@given(st.lists(_statement(), min_size=1, max_size=5))
def test_script_round_trip(stmts):
    text = ";\n".join(unparse(s) for s in stmts) + ";"
    assert parse_script(text) == stmts


# --------------------------------------------------- differential fuzzing


@st.composite
def _script(draw):
    """A coherent random script: one schema, in-domain inserts, mixed reads."""
    cols = draw(_columns())
    d = len(cols)
    cap = draw(st.integers(2, 16))
    idx = draw(st.sampled_from(["GRIDFILE", "RTREE", "GRIDFILE, RTREE"]))
    parts = [
        "CREATE TABLE t ("
        + ", ".join(f"{c.name} REAL({c.lo!r}, {c.hi!r})" for c in cols)
        + f") USING {idx} CAPACITY {cap}"
    ]
    in_domain = [
        st.floats(
            min_value=c.lo, max_value=c.hi, allow_nan=False, allow_infinity=False
        )
        for c in cols
    ]
    rows = draw(st.lists(st.tuples(*in_domain), min_size=1, max_size=30))
    parts.append(
        "INSERT INTO t VALUES "
        + ", ".join("(" + ", ".join(repr(v) for v in row) + ")" for row in rows)
    )

    def pred(draw):
        c = draw(st.integers(0, d - 1))
        col = cols[c]
        # Bias values toward stored data so equality/boundary hits occur.
        v = draw(
            st.one_of(
                st.sampled_from([row[c] for row in rows]),
                st.floats(min_value=col.lo, max_value=col.hi, allow_nan=False),
            )
        )
        if draw(st.booleans()):
            w = draw(st.floats(min_value=col.lo, max_value=col.hi, allow_nan=False))
            return f"{col.name} BETWEEN {min(v, w)!r} AND {max(v, w)!r}"
        op = draw(_op)
        return f"{col.name} {op} {v!r}"

    def select(draw):
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(1, 10))
            point = ", ".join(
                repr(draw(st.floats(min_value=c.lo, max_value=c.hi, allow_nan=False)))
                for c in cols
            )
            return f"SELECT * FROM t NEAREST {k} TO ({point})"
        preds = [pred(draw) for _ in range(draw(st.integers(0, 3)))]
        where = (" WHERE " + " AND ".join(preds)) if preds else ""
        return f"SELECT * FROM t{where}"

    for _ in range(3):
        parts.append(select(draw))
    if draw(st.booleans()):
        preds = [pred(draw) for _ in range(draw(st.integers(0, 2)))]
        where = (" WHERE " + " AND ".join(preds)) if preds else ""
        parts.append(f"DELETE FROM t{where}")
    for _ in range(3):
        parts.append(select(draw))
    return ";\n".join(parts) + ";"


@settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_script())
def test_fuzzed_scripts_match_oracle(script):
    _assert_matches_oracle(script)


def _assert_matches_oracle(script):
    eng = SqlEngine(n_disks=4)
    db = NaiveDatabase()
    results = eng.execute_script(script)
    oracle = db.execute_script(script)
    assert len(results) == len(oracle)
    for res, ref in zip(results, oracle):
        assert res.kind == ref.kind
        assert list(res.record_ids) == list(ref.record_ids), script
        if res.kind == "select":
            assert res.rows == ref.rows, script


@pytest.mark.parametrize("paths", ["GRIDFILE", "RTREE", "GRIDFILE, RTREE"])
def test_nearest_ranks_gaps_whose_squares_underflow(paths):
    """A gap of ~1e-215 squares to 0.0; it must still rank behind 0.0.

    A falsifying example of ``test_fuzzed_scripts_match_oracle``.
    """
    _assert_matches_oracle(
        f"CREATE TABLE t (x REAL(0.0, 1.0)) USING {paths} CAPACITY 2;\n"
        "INSERT INTO t VALUES (1.8754584434475986e-215), (0.0);\n"
        "SELECT * FROM t NEAREST 1 TO (0.0);"
    )


# ------------------------------------------------------ malformed inputs

_SEED_SCRIPTS = [
    "CREATE TABLE t (x REAL(0, 100), y REAL(0, 100)) USING GRIDFILE, RTREE CAPACITY 8;",
    "INSERT INTO t VALUES (1.5, 2.5), (3.5, 4.5);",
    "SELECT x, y FROM t WHERE x BETWEEN 1 AND 2 AND y != 0.5;",
    "SELECT * FROM t NEAREST 5 TO (50, 50);",
    "DELETE FROM t WHERE x >= 10;",
    "EXPLAIN SELECT * FROM t WHERE x = 1;",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_SEED_SCRIPTS),
    st.integers(0, 200),
    st.sampled_from(["delete", "insert", "truncate", "dup"]),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=3
    ),
)
def test_mutated_scripts_never_escape_sql_error(script, pos, mutation, junk):
    pos = min(pos, len(script) - 1)
    if mutation == "delete":
        mutated = script[:pos] + script[pos + 1 :]
    elif mutation == "insert":
        mutated = script[:pos] + junk + script[pos:]
    elif mutation == "truncate":
        mutated = script[:pos]
    else:  # duplicate a slice
        mutated = script[:pos] + script[pos : pos + 7] + script[pos:]
    try:
        parse_script(mutated)
    except SqlError as exc:
        assert isinstance(exc.line, int) and exc.line >= 1
        assert isinstance(exc.column, int) and exc.column >= 1
        assert str(exc).startswith(f"line {exc.line}:{exc.column}:")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_arbitrary_text_parses_or_raises_sql_error(text):
    try:
        parse_script(text)
    except SqlError as exc:
        assert exc.line >= 1 and exc.column >= 1


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="SELECT*FROMWHERE<>=!;() .0123456789xyt\n", max_size=60))
def test_keyword_soup_parses_or_raises_sql_error(text):
    try:
        parse_script(text)
    except SqlError:
        pass
