"""Emit the reduced oblivious-routing LP and the fixed-demand optimal-routing
LP in CPLEX LP text format, for external solvers.

The oblivious program minimizes the load bound theta over origin-rooted,
reflection-tied flow variables.  Its inner maximization over k-limited
demands is replaced by hose-model duals: per load-edge class, multipliers
a_s, b_t >= 0 and gam >= 0 must cover every pair's flow coefficient on that
edge, and their total (with gam weighted by k) is charged against the edge
capacity times theta.  Both programs number edges by slab index, ``dir *
num_nodes + y * cols + x``, and read heads from ``torus.edge_heads``.

Each program is built once as arrays (``_Program``): column and row names,
the constraint matrix in CSR form, senses, right-hand sides, and the boxed
and nonnegative columns.  Conservation rows come from one COO block per
program, +1 at every edge's tail and -1 at its head, merged by column;
``_write_lp`` only formats, each distinct coefficient once.  No solver is
embedded: :func:`parse_lp` reads the text back by whitespace tokens, so
every ``.17g`` coefficient, exponent forms included, round-trips exactly.

Variable naming (bit-exact; ``tests/test_lpexport.py`` pins both writers'
text by sha256 and checks every name against orbits computed by
``apply_automorphism`` in ``test_orbit_names_match_automorphism_orbits``):

* ``g_t{tx}_{ty}_e{ex}_{ey}_{dir}`` - flow toward destination offset (tx, ty)
  on the edge with tail (ex, ey); dir is pv/nv/ph/nh.  The name used is the
  lexicographically smallest point-group image, which is how the reflection
  ties are encoded.  Each (destination, edge) pair has an integer orbit key
  that sorts like the pair; one table per call, built with one
  ``np.minimum`` per point-group element, holds every pair's smallest image
  key, and the distinct keys are named from their digits by one list
  comprehension (``_OrbitIndex.table``), which the feasibility check shares.
* ``th`` - the load bound being minimized.
* ``a_{cls}_s{x}_{y}``, ``b_{cls}_t{x}_{y}``, ``gam_{cls}`` - per-source,
  per-sink, and total-demand hose multipliers for load-edge class ``cls``
  (``v`` always, plus ``h`` on specs without the x=y symmetry).
* ``f_p{i}_e{ex}_{ey}_{dir}`` - per-pair flows in the fixed-demand program,
  with pairs indexed in sorted order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import IO, Iterator, NamedTuple

import numpy as np

from toruslb.evaluate import SpecMismatch, load_edge_classes
from toruslb.policy import OriginPolicy
from toruslb.torus import Direction, Node, TorusSpec, edge_heads
from toruslb.torus import automorphism_index_maps, point_group
from toruslb.traffic import TrafficMatrix

_DIRS = ("pv", "nv", "ph", "nh")  # names of the directions, in Direction order
MAX_LINE = 255
ROW_TOL = 1e-7  # slack a feasibility check allows on each row and bound
# row names, terms per row, column ids, coefficients, sense, right-hand sides
Block = tuple[list[str], np.ndarray, np.ndarray, np.ndarray, str, np.ndarray]


@dataclass
class LpConstraint:
    name: str
    terms: dict[str, float]
    sense: str  # one of <=, >=, =
    rhs: float


@dataclass
class LpModel:
    sense: str
    objective: dict[str, float]
    constraints: list[LpConstraint]
    bounds: dict[str, tuple[float | None, float | None]]

    def variables(self) -> set[str]:
        out = set(self.objective)
        for c in self.constraints:
            out.update(c.terms)
        out.update(self.bounds)
        return out


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
        digits = (*np.divmod(dest, self.spec.rows), *np.divmod(tail, self.spec.rows), d)
        return [
            f"g_t{tx}_{ty}_e{ex}_{ey}_{_DIRS[dd]}"
            for tx, ty, ex, ey, dd in zip(*(a.tolist() for a in digits))
        ]

    def table(self) -> tuple[np.ndarray, list[str]]:
        """The sorted distinct orbit keys of every destination but the
        origin, which names no variable, and their names."""
        keys = np.unique(self.rep[1:])
        return keys, self.names(keys)


class _Program(NamedTuple):
    """``minimize th`` over the columns ``cols``, subject to rows kept as CSR
    arrays: row i has coefficients ``vals[indptr[i]:indptr[i + 1]]`` on the
    columns ``ids[...]`` in the order written, then ``senses[i]`` and
    ``rhs[i]``.  ``boxed`` columns lie in [0, 1] and ``nonnegative`` ones are
    at least 0, each written in the order given."""

    cols: list[str]
    rows: list[str]
    indptr: np.ndarray
    ids: np.ndarray
    vals: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    boxed: np.ndarray
    nonnegative: np.ndarray

    @classmethod
    def stack(cls, cols: list[str], blocks: list[Block], boxed, nonnegative) -> _Program:
        """The program whose rows are ``blocks``' rows, in order."""
        names, counts, ids, vals, senses, rhs = zip(*blocks)
        rows = [row for block in names for row in block]
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        senses = [sense for block, sense in zip(names, senses) for _ in block]
        ids, vals, rhs = np.concatenate(ids), np.concatenate(vals), np.concatenate(rhs)
        return cls(cols, rows, indptr, ids, vals, senses, rhs, boxed, nonnegative)


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


def _write_lp(sink: IO[str], title: str, prog: _Program) -> None:
    """Write ``prog`` as CPLEX LP text, a line at a time, wrapping lines
    longer than ``MAX_LINE`` at a space.  Each distinct coefficient is
    formatted once; a row's leading ``+ `` is dropped."""
    values, which = np.unique(prog.vals, return_inverse=True)
    signed = [f"{'-' if v < 0 else '+'} {abs(v):.17g} " for v in values.tolist()]
    cols, ids, which, ptr = prog.cols, prog.ids, which.tolist(), prog.indptr.tolist()
    rows = zip(prog.rows, ptr, ptr[1:], prog.senses, prog.rhs.tolist())

    def lines() -> Iterator[str]:
        yield from (f"\\ {title}", "Minimize", " obj: th", "Subject To")
        for name, lo, hi, sense, rhs in rows:
            terms = zip(which[lo:hi], ids[lo:hi].tolist())
            body = " ".join([signed[i] + cols[j] for i, j in terms])
            yield f" {name}: {body[2:] if body.startswith('+ ') else body} {sense} {rhs:.17g}"
        yield "Bounds"
        yield from (f" 0 <= {cols[j]} <= 1" for j in prog.boxed.tolist())
        yield from (f" 0 <= {cols[j]}" for j in prog.nonnegative.tolist())
        yield "End"

    for line in lines():
        while len(line) > MAX_LINE:
            cut = line.rfind(" ", 0, MAX_LINE)
            if cut <= 0:
                break
            sink.write(line[:cut] + "\n")
            line = " " + line[cut + 1 :]
        sink.write(line + "\n")


def export_reduced_oblivious_lp(spec: TorusSpec, k: int, sink: IO[str]) -> LpCounts:
    """Write the dualized reduced oblivious LP: minimize theta subject to
    origin-rooted flow conservation for every destination, reflection ties
    (every pair reads its orbit head's variable), box bounds, and one
    dualized hose constraint block per load-edge class."""
    index = _OrbitIndex(spec)
    n = spec.num_nodes
    keys, cols = index.table()
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
    prog = _Program.stack(cols, blocks, order[order < flows], np.append(duals, th))
    _write_lp(sink, "reduced oblivious routing program", prog)
    return LpCounts(variables=len(cols), constraints=len(prog.rows), flow_variables=flows)


def _f_names(spec: TorusSpec, pairs: int) -> list[str]:
    """``f_p{i}_e{x}_{y}_{dir}`` of every pair index, then edge id."""
    suffixes = [f"{xy}_{d}" for d in _DIRS for xy in _node_xy(spec)]
    return [f"f_p{p}_e{suffix}" for p in range(pairs) for suffix in suffixes]


def export_opt_lp(spec: TorusSpec, d: TrafficMatrix, sink: IO[str]) -> LpCounts:
    """Write the fixed-demand optimal-routing LP: per-pair flow conservation
    and per-edge load at most capacity times theta, minimized over theta."""
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

    prog = _Program.stack(cols, blocks, order[order < th], np.array([th]))
    _write_lp(sink, "optimal routing for a fixed demand", prog)
    return LpCounts(variables=th + 1, constraints=len(prog.rows), flow_variables=th)


_ENTRY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\s*:")
_SECTIONS = {
    "minimize": "obj", "maximize": "obj", "subject to": "cons", "bounds": "bounds", "end": "end"
}
_NUMBER_START = frozenset("0123456789.")


def _parse_terms(tokens: list[str]) -> dict[str, float]:
    """Terms ``[+|-] [magnitude] name`` read from whitespace tokens: the
    sign defaults to ``+`` and the magnitude to 1; repeated names add up."""
    terms: dict[str, float] = {}
    sign, mag = 1.0, 1.0
    for tok in tokens:
        if tok == "+" or tok == "-":
            sign = -1.0 if tok == "-" else 1.0
        elif tok[0] in _NUMBER_START:
            mag = float(tok)
        else:
            coef = sign if mag == 1.0 else sign * mag  # unit terms share two floats
            terms[tok] = terms[tok] + coef if tok in terms else coef
            sign, mag = 1.0, 1.0
    return terms


def parse_lp(text: str) -> LpModel:
    """Parse the subset of CPLEX LP format emitted by this module.  A line is
    a new entry when it names a section or starts with ``name:``; anything
    else continues the previous entry (wrapped long constraints).  Entries
    are read by whitespace tokens, so ``1.0000000000000001e-05`` is one
    coefficient."""
    entries: list[tuple[str, str]] = []  # (mode, full text)
    mode = None
    sense = "min"
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("\\"):
            continue
        low = ln.lower()
        if low in _SECTIONS:
            mode = _SECTIONS[low]
            if mode == "obj":
                sense = low[:3]
            continue
        if mode == "end":
            break
        if mode == "bounds" or _ENTRY_RE.match(ln) or not entries:
            entries.append((mode, ln))
        else:
            prev_mode, prev = entries[-1]
            entries[-1] = (prev_mode, prev + " " + ln)

    objective: dict[str, float] = {}
    constraints: list[LpConstraint] = []
    bounds: dict[str, tuple[float | None, float | None]] = {}
    for entry_mode, ln in entries:
        if entry_mode == "obj":
            objective.update(_parse_terms(ln.split(":", 1)[-1].split()))
        elif entry_mode == "cons":
            name, body = ln.split(":", 1)
            tokens = body.split()
            if len(tokens) < 2 or tokens[-2] not in ("<=", ">=", "="):
                raise ValueError(f"cannot parse constraint: {ln!r}")
            terms = _parse_terms(tokens[:-2])
            constraints.append(LpConstraint(name.strip(), terms, tokens[-2], float(tokens[-1])))
        elif entry_mode == "bounds":
            tokens = ln.split()
            if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
                bounds[tokens[2]] = (float(tokens[0]), float(tokens[4]))
            elif len(tokens) == 3 and tokens[1] == "<=":
                bounds[tokens[2]] = (float(tokens[0]), None)
            else:
                raise ValueError(f"cannot parse bound: {ln!r}")
    return LpModel(sense=sense, objective=objective, constraints=constraints, bounds=bounds)


def _violations(model: LpModel, values: dict[str, float]) -> list[str]:
    """Every constraint and then every variable bound of ``model`` that
    ``values`` (missing names read 0) violates by more than ``ROW_TOL``."""
    failures = []
    value = values.get
    for con in model.constraints:
        # the products coef * value summed in term order, without a frame per term
        lhs = sum(map(mul, con.terms.values(), map(value, con.terms, repeat(0.0))))
        ok = (
            lhs <= con.rhs + ROW_TOL
            if con.sense == "<="
            else lhs >= con.rhs - ROW_TOL if con.sense == ">=" else abs(lhs - con.rhs) <= ROW_TOL
        )
        if not ok:
            failures.append(f"{con.name}: lhs={lhs:.9g} {con.sense} {con.rhs}")
    for name, (lo, hi) in model.bounds.items():
        v = values.get(name, 0.0)
        if lo is not None and v < lo - ROW_TOL:
            failures.append(f"bound {name}: {v} < {lo}")
        if hi is not None and v > hi + ROW_TOL:
            failures.append(f"bound {name}: {v} > {hi}")
    return failures


def check_opt_feasibility(
    spec: TorusSpec, demand: TrafficMatrix, model: LpModel,
    pair_flows: dict[tuple[Node, Node], np.ndarray], theta: float,
) -> list[str]:
    """Substitute per-pair flows (``[dir, y, x]`` slabs, as
    ``Policy.pair_flows`` returns them) and a load bound into a parsed
    fixed-demand model and report every violated constraint."""
    values: dict[str, float] = {"th": theta}
    pairs = sorted(demand.entries)
    names, m = _f_names(spec, len(pairs)), 4 * spec.num_nodes
    for p, pair in enumerate(pairs):
        flows = pair_flows.get(pair)
        if flows is not None:
            values.update(zip(names[p * m : (p + 1) * m], np.ravel(flows).tolist()))
    return _violations(model, values)


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
    for con in model.constraints:
        if con.name.startswith("load_"):
            gam = f"gam_{con.name[5:]}"
            if con.terms.get(gam) != k:
                raise ValueError(f"{con.name} weighs {gam} by {con.terms.get(gam)}, not k={k}")
    index = _OrbitIndex(spec)
    _, names = index.table()
    # each orbit's value is its member first in nodes() x edges() order, that
    # is [t, u, dir]; the origin's own slab names no variable
    n = spec.num_nodes
    _, first = np.unique(index.rep[1:].transpose(0, 2, 1), return_index=True)
    flows = policy.flows.reshape(n, 4, n)[1:].transpose(0, 2, 1).ravel()[first]
    values = dict(zip(names, flows.tolist()))
    values["th"] = theta
    values.update(duals)
    return _violations(model, values)
