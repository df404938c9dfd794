"""The reduced oblivious-routing LP and the fixed-demand optimal-routing LP
as one array model, written in CPLEX LP text for external solvers and read
back.

The oblivious program minimizes the load bound theta over origin-rooted,
reflection-tied flow variables.  Its inner maximization over k-limited
demands is replaced by hose-model duals: per load-edge class, multipliers
a_s, b_t >= 0 and gam >= 0 must cover every pair's flow coefficient on that
edge, and their total (with gam weighted by k) is charged against the edge
capacity times theta.  Both programs number edges by slab index, ``dir *
num_nodes + y * cols + x``, and read heads from ``torus.edge_heads``.

:class:`LpModel` is the one LP type: column and row names, the rows in CSR
form, senses, right-hand sides and bounds, all arrays.  The builders
(:func:`reduced_oblivious_program`, :func:`opt_program`) make one, with
conservation rows from one COO block, +1 at every edge's tail and -1 at its
head, merged by column; ``_write_lp`` only formats it, each distinct
coefficient once; :func:`parse_lp` reads the text back into one by array
operations on its bytes, a window of it at a time, so every ``.17g``
coefficient, exponent forms included, round-trips exactly; and the oblivious
feasibility check computes every row's left-hand side with one
``np.bincount``.  No solver is embedded.

Variable naming (bit-exact; ``tests/test_lpexport.py`` pins both writers'
text by sha256 and checks every name against orbits computed node by node
in ``test_orbit_names_match_automorphism_orbits``):

* ``g_t{tx}_{ty}_e{ex}_{ey}_{dir}`` - flow toward destination offset (tx, ty)
  on the edge with tail (ex, ey); dir is pv/nv/ph/nh.  The name used is the
  lexicographically smallest point-group image, which is how the reflection
  ties are encoded.  Each (destination, edge) pair has an integer orbit key
  that sorts like the pair; one table per call, built with one
  ``np.minimum`` per point-group element, holds every pair's smallest image
  key, and the distinct keys are named from their digits
  (``_OrbitIndex.names``).
* ``th`` - the load bound being minimized.
* ``a_{cls}_s{x}_{y}``, ``b_{cls}_t{x}_{y}``, ``gam_{cls}`` - per-source,
  per-sink, and total-demand hose multipliers for load-edge class ``cls``
  (``v`` always, plus ``h`` on specs without the x=y symmetry).
* ``f_p{i}_e{ex}_{ey}_{dir}`` - per-pair flows in the fixed-demand program,
  with pairs indexed in sorted order.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import add
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from toruslb.evaluate import SpecMismatch, load_edge_classes
from toruslb.policy import OriginPolicy
from toruslb.torus import Direction, TorusSpec, edge_heads
from toruslb.torus import automorphism_index_maps, point_group
from toruslb.traffic import TrafficMatrix

_DIRS = ("pv", "nv", "ph", "nh")  # names of the directions, in Direction order
MAX_LINE = 255
# rows, or bounds, that _write_lp formats and writes at a time
_WRITE_BLOCK = 256
ROW_TOL = 1e-7  # slack a feasibility check allows on each row and bound
# row names, terms per row, column ids, coefficients, sense, right-hand sides
Block = tuple[list[str], np.ndarray, np.ndarray, np.ndarray, str, np.ndarray]


class LpModel(NamedTuple):
    """A linear program as arrays: minimize (``sense`` ``"min"``) or maximize
    ``objective`` over the named ``columns``, subject to one row per name in
    ``constraints``.  Row i has coefficients ``vals[indptr[i]:indptr[i + 1]]``
    on the columns ``ids[...]`` in written order, then ``senses[i]`` (``<=``,
    ``>=`` or ``=``) and ``rhs[i]``.  Column ``bound_ids[j]`` lies in
    ``[lower[j], upper[j]]``, ``upper`` inf when the bound has no upper
    side; bounds are kept in written order."""

    columns: list[str]
    constraints: list[str]
    indptr: np.ndarray
    ids: np.ndarray
    vals: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    bound_ids: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sense: str
    objective: dict[str, float]

    def variables(self) -> set[str]:
        return set(self.columns)


@dataclass
class LpCounts:
    variables: int
    constraints: int
    flow_variables: int = 0


class _OrbitIndex:
    """Orbit keys of every (destination, edge) pair, so reflection-tied flow
    variables collapse to one name.

    A pair's key is ``(((t.x*R + t.y)*C + tail.x)*R + tail.y)*4 + dir`` on an
    R-row, C-column torus; keys sort exactly like ``(t, edge)`` tuples.
    ``key[t, dir, u]`` holds the pair's own key and ``rep[t, dir, u]`` the
    smallest key over its point-group images (node axes flat, ``y*cols + x``).
    """

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        n = spec.num_nodes
        ys, xs = np.divmod(np.arange(n), spec.cols)
        lex = xs * spec.rows + ys
        self.key = (lex[:, None, None] * n + lex) * 4 + np.arange(4)[:, None]
        self.rep = self.key.copy()  # one np.minimum per point-group element
        for phi in point_group(spec):
            nodes, dirs = automorphism_index_maps(spec, phi)
            np.minimum(self.rep, self.key[np.ix_(nodes, dirs, nodes)], out=self.rep)

    def names(self, keys: np.ndarray) -> list[str]:
        """The variable names of an array of pair keys, from its digits."""
        dest, rest = np.divmod(keys, 4 * self.spec.num_nodes)
        tail, d = np.divmod(rest, 4)
        # node x_y by rank x*rows + y, as keys number nodes
        xy = [f"{x}_{y}" for x in range(self.spec.cols) for y in range(self.spec.rows)]
        parts = (repeat("g_t"), map(xy.__getitem__, dest.tolist()), repeat("_e"),
                 map(xy.__getitem__, tail.tolist()), map([f"_{n}" for n in _DIRS].__getitem__, d.tolist()))
        return list(map("".join, zip(*parts)))


def _program(columns: list[str], blocks: list[Block], boxed, nonnegative) -> LpModel:
    """``minimize th`` subject to ``blocks``' rows, in order, with the
    ``boxed`` columns in [0, 1] and then the ``nonnegative`` ones at least 0."""
    names, counts, ids, vals, senses, rhs = zip(*blocks)
    bounds = np.concatenate([boxed, nonnegative])
    return LpModel(
        columns, [row for block in names for row in block],
        np.concatenate([[0], np.cumsum(np.concatenate(counts))]), np.concatenate(ids),
        np.concatenate(vals), np.repeat(senses, [len(block) for block in names]),
        np.concatenate(rhs), bounds, np.zeros(len(bounds)),
        np.repeat([1.0, np.inf], [len(boxed), len(nonnegative)]), "min", {"th": 1.0},
    )


def _by_name(cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Column ids in name order, and each column's place in that order."""
    order = np.array(sorted(range(len(cols)), key=cols.__getitem__), dtype=np.int64)
    return order, np.argsort(order)


def _node_xy(spec: TorusSpec) -> list[str]:
    return [f"{x}_{y}" for y in range(spec.rows) for x in range(spec.cols)]


def _fixed(names: list[str], ids: np.ndarray, vals: np.ndarray, sense: str) -> Block:
    """Rows of one width: ``ids[i]`` and ``vals[i]`` for row i, right-hand side 0."""
    rows = len(names)
    return names, np.full(rows, ids.shape[1]), ids.ravel(), vals.ravel(), sense, np.zeros(rows)


def _conservation(
    spec: TorusSpec, var: np.ndarray, rank: np.ndarray, tags: list[str], source, sink
) -> Block:
    """Rows ``cons_{tag}_n{x}_{y}`` for every tag, then node, where
    ``var[i]`` holds tag i's column of every edge id: +1 at each edge's tail
    and -1 at its head, merged by column with zeros dropped and ordered by
    name (``rank``); right-hand side 1 at tag i's ``source`` node and -1 at
    its ``sink`` node (one node for all tags, or one per tag)."""
    n, blocks = spec.num_nodes, len(tags)
    first_row = np.arange(blocks)[:, None] * n
    rows = np.concatenate([(first_row + np.arange(4 * n) % n).ravel(),
                           (first_row + edge_heads(spec).ravel()).ravel()])
    ids = np.concatenate([var.ravel(), var.ravel()])
    key = rows * len(rank) + rank[ids]
    key, first, merged = np.unique(key, return_index=True, return_inverse=True)
    coef = np.bincount(merged, weights=np.repeat([1.0, -1.0], var.size))
    keep = coef != 0
    rhs = np.zeros(blocks * n)
    rhs[first_row.ravel() + source] = 1.0
    rhs[first_row.ravel() + sink] = -1.0
    names = [f"cons_{tag}_n{xy}" for tag in tags for xy in _node_xy(spec)]
    counts = np.bincount(key[keep] // len(rank), minlength=blocks * n)
    return names, counts, ids[first[keep]], coef[keep], "=", rhs


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, sorted: ``np.unique`` without its
    masked-array check, which imports ``numpy.ma`` (1.3 MB) on first use."""
    ordered = np.sort(values, axis=None)
    return ordered[np.append(True, ordered[1:] != ordered[:-1])]


def _formatted(values: np.ndarray, fmt: Callable[[float], str]) -> Callable[[int, int], list[str]]:
    """``fmt`` of ``values[a:b]`` for the ``a, b`` it is called with, each
    distinct value formatted once per ``_formatted`` call."""
    distinct = _distinct(values)
    strings = [fmt(v) for v in distinct.tolist()]
    return lambda a, b: list(map(strings.__getitem__, distinct.searchsorted(values[a:b]).tolist()))


def _write_lp(sink: IO[str], title: str, model: LpModel) -> None:
    """Write ``model`` as CPLEX LP text, ``_WRITE_BLOCK`` rows or bounds to
    a write, so that only one block's text is held at a time.  Each
    distinct coefficient is formatted once, a block's term strings are
    built in one pass over its nonzeros, each row's line joins its slice
    without the leading ``+ ``, and a line longer than ``MAX_LINE`` breaks
    at a space.  An objective coefficient of magnitude 1 is not written."""
    cols = model.columns
    obj = " ".join(f"{'-' if v < 0 else '+'} {'' if abs(v) == 1 else f'{abs(v):.17g} '}{name}"
                   for name, v in model.objective.items())
    sink.write(f"\\ {title}\n{'Minimize' if model.sense == 'min' else 'Maximize'}\n"
               f" obj: {obj.removeprefix('+ ')}\nSubject To\n")
    signed = _formatted(model.vals, lambda v: f"{'-' if v < 0 else '+'} {abs(v):.17g} ")
    rhs = _formatted(model.rhs, "{:.17g}".format)
    for a in range(0, len(model.constraints), _WRITE_BLOCK):
        b = a + _WRITE_BLOCK
        ptr = model.indptr[a : b + 1].tolist()
        lo = ptr[0]
        terms = list(map(add, signed(lo, ptr[-1]), map(cols.__getitem__, model.ids[lo : ptr[-1]].tolist())))
        lines = []
        for name, start, stop, sense, value in zip(
            model.constraints[a:b], ptr, ptr[1:], model.senses[a:b].tolist(), rhs(a, b)
        ):
            line = f" {name}: {' '.join(terms[start - lo : stop - lo]).removeprefix('+ ')} {sense} {value}"
            while len(line) > MAX_LINE and (cut := line.rfind(" ", 0, MAX_LINE)) > 0:
                lines.append(line[:cut])
                line = " " + line[cut + 1 :]
            lines.append(line)
        lines.append("")
        sink.write("\n".join(lines))
    sink.write("Bounds\n")
    lower = _formatted(model.lower, " {:.17g} <= ".format)
    upper = _formatted(model.upper, lambda v: "" if v == np.inf else f" <= {v:.17g}")
    for a in range(0, len(model.bound_ids), _WRITE_BLOCK):
        b = a + _WRITE_BLOCK
        names = map(cols.__getitem__, model.bound_ids[a:b].tolist())
        sink.write("\n".join(map(add, map(add, lower(a, b), names), upper(a, b))) + "\n")
    sink.write("End\n")


def _export(sink: IO[str], title: str, model: LpModel) -> LpCounts:
    """Write ``model`` and count its columns, rows and boxed flow columns."""
    _write_lp(sink, title, model)
    flows = int(np.count_nonzero(model.upper == 1.0))
    return LpCounts(len(model.columns), len(model.constraints), flows)


def export_reduced_oblivious_lp(spec: TorusSpec, k: int, sink: IO[str]) -> LpCounts:
    """Write :func:`reduced_oblivious_program` as CPLEX LP text."""
    model = reduced_oblivious_program(spec, k)
    return _export(sink, "reduced oblivious routing program", model)


def reduced_oblivious_program(spec: TorusSpec, k: int) -> LpModel:
    """The dualized reduced oblivious LP: minimize theta subject to
    origin-rooted flow conservation for every destination, reflection ties
    (every pair reads its orbit head's variable), box bounds, and one
    dualized hose constraint block per load-edge class."""
    index, n = _OrbitIndex(spec), spec.num_nodes
    keys = _distinct(index.rep[1:])  # the origin's own slab names no variable
    cols = index.names(keys)
    flows = len(cols)
    # every pair's column; the origin's own slab is never read
    var = np.searchsorted(keys, index.rep)
    xy = _node_xy(spec)
    classes = load_edge_classes(spec)
    for label, _, _ in classes:
        cols += [f"a_{label}_s{s}" for s in xy] + [f"b_{label}_t{t}" for t in xy]
        cols.append(f"gam_{label}")
    th = len(cols)
    cols.append("th")
    order, rank = _by_name(cols)

    # flow conservation per destination orbit: a key divided by 4n is its
    # destination's rank x*rows + y, so each destination's smallest image is
    # read off any of its keys
    heads = np.array(list(dict.fromkeys((index.rep[1:, 0, 0] // (4 * n)).tolist())))
    hx, hy = np.divmod(heads, spec.rows)
    dest = hy * spec.cols + hx
    tags = [f"t{x}_{y}" for x, y in zip(hx.tolist(), hy.tolist())]
    blocks = [_conservation(spec, var[dest].reshape(len(dest), -1), rank, tags, 0, dest)]

    # the hose row of pair (s, tau) names the variable carrying that pair's
    # flow on the class edge: on_edge read over the table of column ids
    as_policy = OriginPolicy(spec, var.reshape(n, 4, spec.rows, spec.cols))
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    for i, (label, edge, cap) in enumerate(classes):
        a = flows + i * (2 * n + 1)
        gam = a + 2 * n
        budget = np.append(order[(order >= a) & (order < gam)], [gam, th])
        weights = np.array([[1.0] * (2 * n) + [k, -cap]])
        blocks.append(_fixed([f"load_{label}"], budget[None], weights, "<="))
        hose = [a + src, a + n + dst, np.full_like(src, gam), as_policy.on_edge(edge)[src, dst]]
        names = [f"hose_{label}_s{xy[s]}_t{xy[t]}" for s, t in zip(src.tolist(), dst.tolist())]
        ones = np.tile([1.0, 1.0, 1.0, -1.0], (len(src), 1))
        blocks.append(_fixed(names, np.stack(hose, axis=1), ones, ">="))

    duals = order[(order >= flows) & (order < th)]
    return _program(cols, blocks, order[order < flows], np.append(duals, th))


def _f_names(spec: TorusSpec, pairs: int) -> list[str]:
    """``f_p{i}_e{x}_{y}_{dir}`` of every pair index, then edge id."""
    suffixes = [f"{xy}_{d}" for d in _DIRS for xy in _node_xy(spec)]
    return [f"f_p{p}_e{suffix}" for p in range(pairs) for suffix in suffixes]


def export_opt_lp(spec: TorusSpec, d: TrafficMatrix, sink: IO[str]) -> LpCounts:
    """Write :func:`opt_program` as CPLEX LP text."""
    return _export(sink, "optimal routing for a fixed demand", opt_program(spec, d))


def opt_program(spec: TorusSpec, d: TrafficMatrix) -> LpModel:
    """The fixed-demand optimal-routing LP: per-pair flow conservation and
    per-edge load at most capacity times theta, minimized over theta."""
    pairs = sorted(d.entries.items())
    n, m, p = spec.num_nodes, 4 * spec.num_nodes, len(pairs)
    cols = [*_f_names(spec, p), "th"]
    th = p * m
    order, rank = _by_name(cols)
    ends = np.array([u.y * spec.cols + u.x for pair, _ in pairs for u in pair], dtype=int)
    tags = [f"p{i}" for i in range(p)]
    blocks = [_conservation(spec, np.arange(th).reshape(p, m), rank, tags, ends[::2], ends[1::2])]
    # load rows in TorusSpec.edges() order: by tail node, then direction
    edge = (np.arange(4) * n + np.arange(n)[:, None]).ravel()
    caps = np.tile([spec.capacity(dd) for dd in Direction], n)
    amounts = np.broadcast_to([amount for _, amount in pairs], (m, p))
    blocks.append(_fixed(
        [f"load_e{xy}_{dd}" for xy in _node_xy(spec) for dd in _DIRS],
        np.hstack([edge[:, None] + m * np.arange(p), np.full((m, 1), th)]),
        np.hstack([amounts, -caps[:, None]]),
        "<=",
    ))

    return _program(cols, blocks, order[order < th], np.array([th]))


# a section header, a row's ``name:`` label, or a comment line, after a newline
_SECTION_RE = re.compile(r"\n[ \t]*(minimize|maximize|subject to|bounds|end)[ \t\r]*(?=\n|$)", re.I)
_LABEL_RE = re.compile(r"\n[ \t]*([A-Za-z_][A-Za-z0-9_]*)[ \t]*:")
_COMMENT_RE = re.compile(r"\n[ \t]*\\[^\n]*")
_NEWLINE_RE = re.compile("\n")
# a token's kind by its first byte: plus, minus, number, <=, >=, =, or name (w)
_PLUS, _MINUS, _NUMBER, _LE, _GE, _EQ, _NAME = b"pmnlgew"
_DOT, _ZERO, _EQUALS, _SPACE = b".0= "
_KIND = np.full(256, _NAME, np.uint8)
for _chars, _kind in zip((b"+", b"-", b"0123456789.", b"<", b">", b"="), b"pmnlge"):
    _KIND[list(_chars)] = _kind
# each record's kinds follow a newline; a search finds the newline before the
# first record that is not an objective, a row (terms, a sense, a value) or a
# bound line (lo <= name [<= hi]), where a value is a number or a word such as
# -1 that float must read.  It keeps no state from one record to the next,
# where a repeated group's match grew by hundreds of bytes a record
_OBJECTIVE_RE, _ROWS_RE, _BOUNDS_RE = (
    re.compile(rb"\n(?!%s(?:\n|\Z))" % record)
    for record in (rb"[pmnw]*", rb"[pmnw]*[lge][nw]", rb"(?:[nw]lw(?:l[nw])?)?")
)
# characters of text read at a time: a window's transient peak is 9-11x its
# size, 0.56-0.71 MiB, on the reduced programs at 8x8 k=18 and 12x12 k=32;
# 32 KiB windows parse them about 10% slower, 128 KiB ones no faster
_CHUNK = 1 << 16


def _sections(text: str) -> Iterator[tuple[str, int, int]]:
    """Each section's header, in lower case, and the span of its body in
    ``text``, up to ``End``; the first line may be a header too."""
    line = text.find("\n")
    first = _SECTION_RE.match("\n" + text[: line if line >= 0 else len(text)])
    heads = [(first[1], 0, first.end() - 1)] if first else []
    heads += [(m[1], m.start(), m.end()) for m in _SECTION_RE.finditer(text)]
    for (header, _, lo), (_, hi, _) in zip(heads, [*heads[1:], ("", len(text), 0)]):
        if (header := header.lower()) == "end":
            return
        yield header, lo, hi


def _windows(text: str, spans: list[tuple[int, int]], cut: re.Pattern) -> Iterator[str]:
    """The bodies ``spans`` of ``text``, joined, in windows of at least
    ``_CHUNK`` characters (but the last) that each end where ``cut`` next
    matches, with comment lines dropped.  Yields at least one window."""
    if len(spans) == 1:
        (lo, hi), joined = spans[0], text
    else:  # sections given more than once are read as one
        joined = "".join(text[lo:hi] for lo, hi in spans)
        lo, hi = 0, len(joined)
    while True:
        m = cut.search(joined, lo + _CHUNK, hi)
        window = joined[lo : m.start() if m else hi]
        yield _COMMENT_RE.sub("", window) if "\\" in window else window
        if m is None:
            return
        lo = m.start()


def _last(mask: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The place of the last True of ``mask`` before each of ``at``, else -1."""
    where = np.flatnonzero(mask)
    return np.append(-1, where)[np.searchsorted(where, at)]


class _Window:
    """The whitespace tokens of ``records`` joined by newlines, classified
    by array operations on their bytes: record r has the next ``counts[r]``
    tokens, each of one ``kind``.  Signs, senses and one-digit numbers are
    read from their bytes (``short``, a digit's value from its ``first``
    byte); only the other tokens, names and longer numbers, become Python
    objects, ``kept`` in order.  Raises ``fail(r)`` of the first record r
    whose kinds do not match ``grammar``."""

    def __init__(self, records: list[str], grammar: re.Pattern, fail: Callable):
        raw = "\n".join(records).encode()
        code = np.frombuffer(raw, np.uint8)
        n = len(code)
        space = np.ones(n + 3, bool)  # the bytes bytes.split splits at, 9-13 and 32, padded
        np.less_equal(code - 9, 4, out=space[1 : n + 1])
        space[1 : n + 1] |= code == _SPACE
        at = np.flatnonzero(space[:n] & ~space[1 : n + 1])  # each token's first byte
        sizes = np.fromiter(map(len, records if raw.isascii() else map(str.encode, records)), int, len(records))
        self.counts = np.diff(np.searchsorted(at, np.cumsum(sizes + 1)), prepend=0)
        self.first = code[at]
        kind = _KIND[self.first]
        one = space[2:][at]  # the token is one byte long
        short = one & ((kind == _PLUS) | (kind == _MINUS) | (kind == _EQ) | (kind == _NUMBER) & (self.first != _DOT))
        sense = ~one & space[3:][at] & ((kind == _LE) | (kind == _GE))
        sense[sense] = code[1:][at[sense]] == _EQUALS
        short |= sense
        kind[~short & (kind != _NUMBER)] = _NAME
        self.kind, self.short = kind, short
        shape = np.insert(kind, np.cumsum(self.counts) - self.counts, ord("\n")).tobytes()
        if bad := grammar.search(shape):
            raise fail(shape.count(b"\n", 0, bad.start()))
        masked = code.copy()
        masked[at[short]] = _SPACE
        masked[1:][at[sense]] = _SPACE
        self.kept = masked.tobytes().split()
        self.kept_at = np.flatnonzero(~short)

    def _kept(self, at: np.ndarray) -> Iterator[bytes]:
        return map(self.kept.__getitem__, np.searchsorted(self.kept_at, at).tolist())

    def values(self, at: np.ndarray) -> np.ndarray:
        """The tokens at ``at`` read by ``float``."""
        out = self.first[at] - float(_ZERO)
        rest = np.flatnonzero(~self.short[at])
        out[rest] = list(map(float, self._kept(at[rest])))
        return out

    def words(self, at: np.ndarray, index: defaultdict[bytes, int]) -> np.ndarray:
        """The ids of the names at ``at`` in ``index``'s numbering."""
        return np.fromiter(map(index.__getitem__, self._kept(at)), np.int32, len(at))

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms ``[+|-] [magnitude] name`` of every record: a name takes
        the last sign (default +) and the last magnitude (default 1) since
        the previous name in its record.  Returns each name's record, token
        and coefficient."""
        kind, ends = self.kind, np.cumsum(self.counts)
        names = np.flatnonzero(kind == _NAME)
        record = np.searchsorted(ends, names, side="right")
        after = np.maximum(np.append(-1, names[:-1]), (ends - self.counts)[record] - 1)
        sign, magnitude = _last((kind == _PLUS) | (kind == _MINUS), names), _last(kind == _NUMBER, names)
        coefs = np.ones(len(names))
        coefs[magnitude > after] = self.values(magnitude[magnitude > after])
        coefs[(sign > after) & (kind[sign] == _MINUS)] *= -1.0
        return record, names, coefs


def _fail(what: str, line: str) -> ValueError:
    return ValueError(f"cannot parse {what}: {' '.join(line.split())!r}")


def _objective(objective: str, index: defaultdict[bytes, int]) -> tuple[np.ndarray, np.ndarray]:
    """The column id and coefficient of each term of the objective."""
    terms = _Window([objective], _OBJECTIVE_RE, lambda r: _fail("objective", objective))
    _, at, coefs = terms.terms()
    return terms.words(at, index), coefs


def _rows(window: str, index: defaultdict[bytes, int]) -> tuple:
    """The rows of one window of Subject To text: their names, each term's
    column id and coefficient, each row's number of terms, sense kind and
    right-hand side.  Names repeated in a row add up in written order, at
    their first place."""
    labelled = _LABEL_RE.split(window)  # labelled[0] is blank: parse_lp checks it
    names, bodies = labelled[1::2], labelled[2::2]
    rows = _Window(bodies, _ROWS_RE, lambda r: _fail("constraint", f"{names[r]}: {bodies[r]}"))
    ends = np.cumsum(rows.counts)
    sense_kind, rhs = rows.kind[ends - 2], rows.values(ends - 1)
    rows.kind[ends - 1] = _NUMBER  # a value such as -1 closes its row, naming nothing
    record, at, coefs = rows.terms()
    ids = rows.words(at, index)
    key = record * len(index) + ids
    if (np.diff(np.sort(key)) == 0).any():
        _, once, inverse = np.unique(key, return_index=True, return_inverse=True)
        keep = np.sort(once)
        coefs, record, ids = np.bincount(inverse, weights=coefs)[inverse[keep]], record[keep], ids[keep]
    return names, ids, coefs, np.bincount(record, minlength=len(names)), sense_kind, rhs


def _bounds(window: str, index: defaultdict[bytes, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column ids, lower and upper bounds of one window of bound lines."""
    lines = window.split("\n")
    bounds = _Window(lines, _BOUNDS_RE, lambda r: _fail("bound", lines[r]))
    lo = (np.cumsum(bounds.counts) - bounds.counts)[bounds.counts > 0]
    full = bounds.counts[bounds.counts > 0] == 5
    upper = np.full(len(lo), np.inf)
    upper[full] = bounds.values(lo[full] + 4)
    return bounds.words(lo + 2, index), bounds.values(lo), upper


def parse_lp(text: str) -> LpModel:
    """Parse the subset of CPLEX LP format emitted by this module.  A line is
    a new entry when it names a section or starts with ``name:``; anything
    else continues the previous entry (wrapped long constraints), and lines
    that start with a backslash are comments.  The objective, each row and
    each bound line is a record; records' whitespace tokens are found and
    classified by array operations on their bytes, so
    ``1.0000000000000001e-05`` is one coefficient and only names and numbers
    of more than one character become Python objects.  The text is read one
    window of about ``_CHUNK`` characters at a time and never copied whole
    (a section given twice is joined first).  Columns are numbered as they
    first appear as names.  A row that does not end in a sense and a value,
    or a bound line of another shape, raises ``ValueError`` naming it."""
    sense, objective, spans = "min", [], {"s": [], "b": []}
    for header, lo, hi in _sections(text):
        if header[0] == "m":
            sense = header[:3]
            body = text[lo:hi]
            objective.append(_LABEL_RE.sub("\n", _COMMENT_RE.sub("", body) if "\\" in body else body))
        else:
            spans[header[0]].append((lo, hi))
    index: defaultdict[bytes, int] = defaultdict(count().__next__)
    rows = _windows(text, spans["s"], _LABEL_RE)
    first = next(rows)  # text before the first label is the first error reported
    if lead := first[: m.start() if (m := _LABEL_RE.search(first)) else None].strip():
        raise ValueError(f"cannot parse constraint: {lead!r}")
    obj_ids, obj_coefs = _objective("".join(objective), index)
    names, ids, vals, counts, sense_kind, rhs = zip(*(_rows(w, index) for w in chain([first], rows)))
    bound_ids, lower, upper = zip(*(_bounds(w, index) for w in _windows(text, spans["b"], _NEWLINE_RE)))
    columns = list(map(bytes.decode, index))
    del index
    obj: dict[str, float] = {}
    for j, coef in zip(obj_ids.tolist(), obj_coefs.tolist()):
        obj[columns[j]] = obj[columns[j]] + coef if columns[j] in obj else coef
    # the windows' pieces of each array are dropped once joined
    ids = np.concatenate(ids, dtype=np.int64)
    vals = np.concatenate(vals)
    bound_ids = np.concatenate(bound_ids, dtype=np.int64)
    sense_kind = np.concatenate(sense_kind)
    return LpModel(
        columns, list(chain.from_iterable(names)), np.append(0, np.cumsum(np.concatenate(counts))), ids, vals,
        np.array(["<=", ">=", "="])[(sense_kind == _GE) + 2 * (sense_kind == _EQ)], np.concatenate(rhs),
        bound_ids, np.concatenate(lower), np.concatenate(upper), sense, obj,
    )


def _violations(model: LpModel, values: dict[str, float]) -> list[str]:
    """Every constraint and then every variable bound of ``model`` that
    ``values`` (missing names read 0) violates by more than ``ROW_TOL``.
    ``np.bincount`` adds each row's products in term order, as a running
    sum over the row would."""
    x = np.fromiter(map(values.get, model.columns, repeat(0.0)), float, len(model.columns))
    rows = np.repeat(np.arange(len(model.constraints)), np.diff(model.indptr))
    lhs = np.bincount(rows, weights=model.vals * x[model.ids], minlength=len(model.constraints))
    rhs = model.rhs
    ok = np.where(
        model.senses == "<=",
        lhs <= rhs + ROW_TOL,
        np.where(model.senses == ">=", lhs >= rhs - ROW_TOL, np.abs(lhs - rhs) <= ROW_TOL),
    )
    failures = [
        f"{model.constraints[i]}: lhs={lhs[i].item():.9g} {model.senses[i].item()} {rhs[i].item()}"
        for i in np.flatnonzero(~ok).tolist()
    ]
    v = x[model.bound_ids]
    low, high = v < model.lower - ROW_TOL, v > model.upper + ROW_TOL
    for j in np.flatnonzero(low | high).tolist():
        name, vj = model.columns[model.bound_ids[j]], v[j].item()
        if low[j]:
            failures.append(f"bound {name}: {vj} < {model.lower[j].item()}")
        if high[j]:
            failures.append(f"bound {name}: {vj} > {model.upper[j].item()}")
    return failures


def check_oblivious_feasibility(
    spec: TorusSpec, k: int, model: LpModel, policy: OriginPolicy,
    theta: float, duals: dict[str, float],
) -> list[str]:
    """Substitute a policy's flows (with hose duals and its worst-case theta)
    into a parsed reduced model and report every violated constraint.

    The model must have been exported for this ``k``: every ``load_{label}``
    row weighs ``gam_{label}`` by k, and a model of another k raises
    ``ValueError``, as a policy on another spec raises ``SpecMismatch``."""
    if policy.spec != spec:
        raise SpecMismatch("policy and model use different torus specs")
    ptr = model.indptr
    for i in np.flatnonzero(list(map(str.startswith, model.constraints, repeat("load_")))).tolist():
        name = model.constraints[i]
        gam = f"gam_{name[5:]}"
        row = slice(ptr[i], ptr[i + 1])
        weights = zip(map(model.columns.__getitem__, model.ids[row].tolist()), model.vals[row].tolist())
        weight = dict(weights).get(gam)
        if weight != k:
            raise ValueError(f"{name} weighs {gam} by {weight}, not k={k}")
    # each orbit's value is its member first in nodes() x edges() order, that
    # is [t, u, dir]; the origin's own slab names no variable
    index, n = _OrbitIndex(spec), spec.num_nodes
    keys, first = np.unique(index.rep[1:].transpose(0, 2, 1), return_index=True)
    flows = policy.flows.reshape(n, 4, n)[1:].transpose(0, 2, 1).ravel()[first]
    values = dict(zip(index.names(keys), flows.tolist()))
    values["th"] = theta
    values.update(duals)
    return _violations(model, values)
