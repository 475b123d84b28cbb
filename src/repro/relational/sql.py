"""A small SQL SELECT dialect over the relational engine.

Supported grammar (keywords case-insensitive)::

    SELECT <item> [, <item>]*
    FROM <table>
    [JOIN <table> ON <table>.<col> = <table>.<col>]*
    [WHERE <cond> [AND <cond>]*]
    [GROUP BY <col>]
    [ORDER BY <col> [ASC|DESC]]
    [LIMIT <n>]

    <item> := <col> | <col> AS <name>
            | (COUNT(*) | COUNT|SUM|AVG|MIN|MAX(<col>)) [AS <name>]
    <cond> := <col> (= | != | < | <= | > | >=) <literal>
            | <col> IS [NOT] NULL

Column references may be qualified (``table.col``); after a join,
collided right-side columns follow the engine's ``_right`` suffix
convention.  This is deliberately the subset the predictive-query
workload needs — selections, equi-joins, filters, and group
aggregates — implemented completely rather than a partial sketch of
full SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace
from repro.relational import algebra
from repro.relational.column import Column
from repro.relational.database import Database
from repro.relational.schema import ColumnSpec, TableSchema
from repro.relational.table import Table
from repro.relational.types import DType

__all__ = ["execute_sql", "SQLError"]

_KEYWORDS = {
    "SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "GROUP", "ORDER", "BY",
    "LIMIT", "AS", "ASC", "DESC", "COUNT", "SUM", "AVG", "MIN", "MAX",
    "IS", "NOT", "NULL", "TRUE", "FALSE", "DISTINCT", "HAVING",
}
_AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_OPERATORS = {"=", "!=", "<", "<=", ">", ">="}


class SQLError(ValueError):
    """Raised on SQL syntax or semantic errors."""


@dataclass(frozen=True)
class _Token:
    kind: str  # KW, IDENT, NUM, STR, OP, PUNCT, EOF
    value: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        char = text[i]
        if char.isspace():
            i += 1
        elif char in "(),*.":
            tokens.append(_Token("PUNCT", char, i))
            i += 1
        elif char in "<>!=":
            two = text[i : i + 2]
            if two in _OPERATORS:
                tokens.append(_Token("OP", two, i))
                i += 2
            elif char in _OPERATORS:
                tokens.append(_Token("OP", char, i))
                i += 1
            else:
                raise SQLError(f"unexpected character {char!r} at {i}")
        elif char == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise SQLError(f"unterminated string at {i}")
            tokens.append(_Token("STR", text[i + 1 : end], i))
            i = end + 1
        elif char.isdigit() or (char == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            tokens.append(_Token("NUM", text[start:i], start))
        elif char.isalpha() or char == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.upper() in _KEYWORDS:
                tokens.append(_Token("KW", word.upper(), start))
            else:
                tokens.append(_Token("IDENT", word, start))
        else:
            raise SQLError(f"unexpected character {char!r} at {i}")
    tokens.append(_Token("EOF", "", n))
    return tokens


@dataclass
class _SelectItem:
    agg: Optional[str]  # None for plain columns; "count_star" for COUNT(*)
    column: Optional[str]
    alias: Optional[str]


@dataclass
class _JoinClause:
    table: str
    left_col: str
    right_col: str


@dataclass
class _WhereClause:
    column: str
    op: str
    literal: object


@dataclass
class _Query:
    items: List[_SelectItem]
    table: str
    joins: List[_JoinClause]
    where: List[_WhereClause]
    group_by: Optional[str]
    order_by: Optional[Tuple[str, bool]]  # (column, ascending)
    limit: Optional[int]
    distinct: bool = False
    having: List[_WhereClause] = None


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            raise SQLError(f"expected {value or kind} at {token.position}, got {token.value!r}")
        return self.advance()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def parse(self) -> _Query:
        self.expect("KW", "SELECT")
        distinct = self.accept("KW", "DISTINCT") is not None
        items = [self._select_item()]
        while self.accept("PUNCT", ","):
            items.append(self._select_item())
        self.expect("KW", "FROM")
        table = self.expect("IDENT").value
        joins = []
        while self.accept("KW", "JOIN"):
            joins.append(self._join())
        where = []
        if self.accept("KW", "WHERE"):
            where.append(self._condition())
            while self.accept("KW", "AND"):
                where.append(self._condition())
        group_by = None
        if self.accept("KW", "GROUP"):
            self.expect("KW", "BY")
            group_by = self._column_ref()
        having = []
        if self.accept("KW", "HAVING"):
            if group_by is None:
                raise SQLError("HAVING requires GROUP BY")
            having.append(self._condition())
            while self.accept("KW", "AND"):
                having.append(self._condition())
        order_by = None
        if self.accept("KW", "ORDER"):
            self.expect("KW", "BY")
            column = self._column_ref()
            ascending = True
            if self.accept("KW", "DESC"):
                ascending = False
            else:
                self.accept("KW", "ASC")
            order_by = (column, ascending)
        limit = None
        if self.accept("KW", "LIMIT"):
            limit = int(self.expect("NUM").value)
        self.expect("EOF")
        return _Query(
            items, table, joins, where, group_by, order_by, limit,
            distinct=distinct, having=having,
        )

    def _column_ref(self) -> str:
        first = self.expect("IDENT").value
        if self.accept("PUNCT", "."):
            second = self.expect("IDENT").value
            return f"{first}.{second}"
        return first

    def _select_item(self) -> _SelectItem:
        token = self.peek()
        if token.kind == "PUNCT" and token.value == "*":
            self.advance()
            return _SelectItem(agg=None, column="*", alias=None)
        if token.kind == "KW" and token.value in _AGG_FUNCS:
            func = self.advance().value
            self.expect("PUNCT", "(")
            if func == "COUNT" and self.accept("PUNCT", "*"):
                self.expect("PUNCT", ")")
                alias = self._alias()
                return _SelectItem(agg="count_star", column=None, alias=alias)
            column = self._column_ref()
            self.expect("PUNCT", ")")
            return _SelectItem(agg=func.lower(), column=column, alias=self._alias())
        column = self._column_ref()
        return _SelectItem(agg=None, column=column, alias=self._alias())

    def _alias(self) -> Optional[str]:
        if self.accept("KW", "AS"):
            return self.expect("IDENT").value
        return None

    def _join(self) -> _JoinClause:
        table = self.expect("IDENT").value
        self.expect("KW", "ON")
        left = self._column_ref()
        self.expect("OP", "=")
        right = self._column_ref()
        return _JoinClause(table=table, left_col=left, right_col=right)

    def _condition(self) -> _WhereClause:
        column = self._column_ref()
        if self.accept("KW", "IS"):
            negated = self.accept("KW", "NOT") is not None
            self.expect("KW", "NULL")
            return _WhereClause(column, "is_not_null" if negated else "is_null", None)
        op = self.expect("OP").value
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            value = float(token.value)
            literal: object = int(value) if value.is_integer() else value
        elif token.kind == "STR":
            self.advance()
            literal = token.value
        elif token.kind == "KW" and token.value in ("TRUE", "FALSE"):
            self.advance()
            literal = token.value == "TRUE"
        else:
            raise SQLError(f"expected a literal at {token.position}, got {token.value!r}")
        return _WhereClause(column, op, literal)


def _resolve(table: Table, ref: str, base_name: str) -> str:
    """Map a possibly-qualified column reference onto the working table."""
    if "." not in ref:
        if ref in table:
            return ref
        raise SQLError(f"unknown column {ref!r}")
    qualifier, column = ref.split(".", 1)
    # After a join, right-side duplicates carry the _right suffix.
    if qualifier != base_name and f"{column}_right" in table:
        return f"{column}_right"
    if column in table:
        return column
    raise SQLError(f"unknown column {ref!r}")


def _apply_where(table: Table, clause: _WhereClause, base_name: str) -> Table:
    column = table[_resolve(table, clause.column, base_name)]
    if clause.op == "is_null":
        return table.filter(column.null_mask())
    if clause.op == "is_not_null":
        return table.filter(~column.null_mask())
    ops = {
        "=": column.equals,
        "!=": column.not_equals,
        "<": column.less_than,
        "<=": column.less_equal,
        ">": column.greater_than,
        ">=": column.greater_equal,
    }
    return table.filter(ops[clause.op](clause.literal))


def execute_sql(db: Database, sql: str) -> Table:
    """Execute a SELECT statement against ``db``; returns a result table."""
    with obs_trace.span("sql.execute") as sql_span:
        query = _Parser(sql).parse()
        if query.table not in db:
            raise SQLError(f"unknown table {query.table!r}")
        working = db[query.table]
        base_name = query.table
        rows_scanned = working.num_rows
        rows_joined = 0

        for join in query.joins:
            if join.table not in db:
                raise SQLError(f"unknown table {join.table!r}")
            left_col = _resolve(working, join.left_col, base_name)
            right_table = db[join.table]
            right_col = join.right_col.split(".", 1)[-1]
            if not right_table.schema.has_column(right_col):
                raise SQLError(f"unknown column {join.right_col!r}")
            rows_scanned += right_table.num_rows
            working = algebra.inner_join(working, right_table, left_col, right_col)
            rows_joined += working.num_rows

        for clause in query.where:
            working = _apply_where(working, clause, base_name)

        has_aggs = any(item.agg is not None for item in query.items)
        if query.group_by is not None or has_aggs:
            working = _execute_aggregation(working, query, base_name)
            for clause in query.having or []:
                # HAVING conditions reference the aggregate output columns.
                working = _apply_where(working, clause, working.name)
            working = _order_and_limit(working, query, base_name)
            _record_sql_counters(sql_span, rows_scanned, rows_joined, working)
            return working

        # Plain select: ORDER BY / LIMIT run before projection so sorting
        # by a non-selected column works (standard SQL semantics).
        working = _order_and_limit(working, query, base_name)
        if not any(item.column == "*" for item in query.items):
            columns = {}
            specs = []
            for item in query.items:
                resolved = _resolve(working, item.column, base_name)
                name = item.alias or resolved
                if name in columns:
                    raise SQLError(f"duplicate output column {name!r}")
                columns[name] = working[resolved]
                specs.append(ColumnSpec(name, working.schema.dtype_of(resolved)))
            working = Table(TableSchema(name=working.name, columns=specs), columns)
        if query.distinct:
            working = _distinct_rows(working)
        _record_sql_counters(sql_span, rows_scanned, rows_joined, working)
        return working


def _record_sql_counters(sql_span, rows_scanned: int, rows_joined: int, result: Table) -> None:
    """Attach scan/join/output row counts to the ``sql.execute`` span."""
    if not obs_trace.enabled():
        return
    sql_span.add_counter("sql.rows_scanned", rows_scanned)
    sql_span.add_counter("sql.rows_joined", rows_joined)
    sql_span.add_counter("sql.rows_returned", result.num_rows)


def _distinct_rows(table: Table) -> Table:
    """Keep the first occurrence of each distinct row (order-stable)."""
    seen = set()
    keep = np.zeros(table.num_rows, dtype=bool)
    columns = [table[name] for name in table.column_names]
    for i in range(table.num_rows):
        key = tuple(col.get(i) for col in columns)
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return table.filter(keep)


def _order_and_limit(working: Table, query: _Query, base_name: str) -> Table:
    if query.order_by is not None:
        column, ascending = query.order_by
        resolved = column if column in working else _resolve(working, column, base_name)
        working = working.sort_by(resolved, ascending=ascending)
    if query.limit is not None:
        working = working.head(query.limit)
    return working


def _execute_aggregation(working: Table, query: _Query, base_name: str) -> Table:
    aggs = {}
    plain_columns = []
    for index, item in enumerate(query.items):
        if item.agg is None:
            if item.column == "*":
                raise SQLError("SELECT * cannot be combined with aggregates")
            plain_columns.append(item)
            continue
        if item.agg == "count_star":
            name = item.alias or "count"
            aggs[name] = ("count", None)
        else:
            resolved = _resolve(working, item.column, base_name)
            name = item.alias or f"{item.agg}_{resolved}"
            aggs[name] = (item.agg, resolved)
    if query.group_by is None:
        # Global aggregate: group by a synthetic constant key.
        constant = Column(np.zeros(working.num_rows, dtype=np.int64), DType.INT64)
        working = working.with_column("__group__", constant)
        if plain_columns:
            raise SQLError("non-aggregated columns require GROUP BY")
        result = algebra.group_aggregate(working, "__group__", aggs)
        if result.num_rows == 0:
            # Aggregates over an empty input still yield one row.
            data = {"__group__": [0]}
            for name, (func, _) in aggs.items():
                data[name] = [0.0 if func in ("count", "sum", "exists") else None]
            result = Table.from_dict(result.schema, data)
        return result.project(list(aggs))
    group_col = _resolve(working, query.group_by, base_name)
    for item in plain_columns:
        resolved = _resolve(working, item.column, base_name)
        if resolved != group_col:
            raise SQLError(
                f"column {item.column!r} must appear in GROUP BY or inside an aggregate"
            )
    result = algebra.group_aggregate(working, group_col, aggs)
    return result
