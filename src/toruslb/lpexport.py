"""Emit the reduced oblivious-routing LP and the fixed-demand optimal-routing
LP in CPLEX LP text format, for external solvers.

The oblivious program minimizes the load bound theta over origin-rooted,
reflection-tied flow variables.  Its inner maximization over k-limited
demands is replaced by hose-model duals: per load-edge class, multipliers
a_s, b_t >= 0 and gam >= 0 must cover every pair's flow coefficient on that
edge, and their total (with gam weighted by k) is charged against the edge
capacity times theta.  Both programs number edges by slab index, ``dir *
num_nodes + y * cols + x``, and read heads from ``torus.edge_heads``.  No
solver is embedded; a round-trip parser lets tests check the emitted files
coefficient by coefficient.

Variable naming (bit-exact; ``tests/test_lpexport.py`` pins the emitted
text by sha256 in ``test_reduced_lp_bytes_pinned`` and checks every name
against orbits computed by ``apply_automorphism`` in
``test_orbit_names_match_automorphism_orbits``):

* ``g_t{tx}_{ty}_e{ex}_{ey}_{dir}`` - flow toward destination offset (tx, ty)
  on the edge with tail (ex, ey); dir is pv/nv/ph/nh.  The name used is the
  lexicographically smallest point-group image, which is how the reflection
  ties are encoded.  Each (destination, edge) pair has an
  integer orbit key that sorts like the pair; one table per call, built with
  one ``np.minimum`` per point-group element over the index permutations of
  :func:`toruslb.torus.automorphism_index_maps`, holds every pair's smallest
  image key, and each distinct key is formatted once (see ``_OrbitIndex``).
* ``th`` - the load bound being minimized.
* ``a_{cls}_s{x}_{y}``, ``b_{cls}_t{x}_{y}``, ``gam_{cls}`` - per-source,
  per-sink, and total-demand hose multipliers for load-edge class ``cls``
  (``v`` always, plus ``h`` on specs without the x=y symmetry).
* ``f_p{i}_e{ex}_{ey}_{dir}`` - per-pair flows in the fixed-demand program,
  with pairs indexed in sorted order, from one table by edge id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from toruslb.evaluate import SpecMismatch, load_edge_classes
from toruslb.policy import OriginPolicy
from toruslb.torus import (
    DirectedEdge,
    Direction,
    Node,
    TorusSpec,
    automorphism_index_maps,
    edge_heads,
    point_group,
)
from toruslb.traffic import TrafficMatrix

_DIR_NAME = {
    Direction.POS_VERT: "pv",
    Direction.NEG_VERT: "nv",
    Direction.POS_HOR: "ph",
    Direction.NEG_HOR: "nh",
}
MAX_LINE = 255
Row = tuple[str, list[tuple[float, str]], str, float]  # name, terms, sense, rhs


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


def _g_name(t: Node, edge: DirectedEdge) -> str:
    return (
        f"g_t{t.x}_{t.y}_e{edge.tail.x}_{edge.tail.y}_{_DIR_NAME[edge.dir]}"
    )


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
        self.rep = self.orbit_min(self.key)
        self._names: dict[int, str] = {}

    def orbit_min(self, table: np.ndarray) -> np.ndarray:
        """Smallest entry of ``table[t, dir, u]`` over each cell's point-group
        images: one ``np.minimum`` per group element."""
        out = table.copy()
        for phi in point_group(self.spec):
            nodes, dirs = automorphism_index_maps(self.spec, phi)
            np.minimum(out, table[np.ix_(nodes, dirs, nodes)], out=out)
        return out

    def name(self, key: int) -> str:
        """The variable name of the pair with this key, formatted once."""
        name = self._names.get(key)
        if name is None:
            t, rest = divmod(key, 4 * self.spec.num_nodes)
            tail, d = divmod(rest, 4)
            name = self._names[key] = _g_name(
                Node(*divmod(t, self.spec.rows)),
                DirectedEdge(Node(*divmod(tail, self.spec.rows)), Direction(d)),
            )
        return name


def _emit(sink: IO[str], lines: Iterable[str]) -> None:
    for line in lines:
        while len(line) > MAX_LINE:
            cut = line.rfind(" ", 0, MAX_LINE)
            if cut <= 0:
                break
            sink.write(line[:cut] + "\n")
            line = " " + line[cut + 1 :]
        sink.write(line + "\n")


def _format_terms(terms: list[tuple[float, str]]) -> str:
    parts = []
    for coef, name in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        parts.append(f"{sign} {mag:.17g} {name}")
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def _conservation_rows(
    spec: TorusSpec, heads: list[int], tag: str, names: list[str], source: int, sink: int
) -> list[Row]:
    """One ``cons_{tag}_n{x}_{y}`` row per node, in node order, over the
    variables ``names[e]`` of the edge ids: +1 on every edge leaving the node
    and -1 on every edge entering it, merged by name with zeros dropped;
    right-hand side 1 at ``source``, -1 at ``sink``, 0 elsewhere."""
    n = spec.num_nodes
    terms: list[dict[str, float]] = [{} for _ in range(n)]
    for e, (name, head) in enumerate(zip(names, heads)):
        for u, coef in ((e % n, 1.0), (head, -1.0)):
            terms[u][name] = terms[u].get(name, 0.0) + coef
    return [
        (
            f"cons_{tag}_n{u.x}_{u.y}",
            sorted(((c, v) for v, c in row.items() if c != 0.0), key=lambda x: x[1]),
            "=",
            1.0 if i == source else (-1.0 if i == sink else 0.0),
        )
        for i, (u, row) in enumerate(zip(spec.nodes(), terms))
    ]


def _write_lp(
    sink: IO[str], title: str, rows: list[Row], boxed: Iterable[str], nonnegative: list[str]
) -> None:
    """Write ``minimize th`` subject to ``rows``, with ``boxed`` variables in
    [0, 1] (sorted) and ``nonnegative`` ones at least 0 (in the given order)."""
    lines = [f"\\ {title}", "Minimize", " obj: th", "Subject To"]
    for name, terms, sense, rhs in rows:
        lines.append(f" {name}: {_format_terms(terms)} {sense} {rhs:.17g}")
    lines.append("Bounds")
    lines += [f" 0 <= {name} <= 1" for name in sorted(boxed)]
    lines += [f" 0 <= {name}" for name in nonnegative]
    lines.append("End")
    _emit(sink, lines)


def export_reduced_oblivious_lp(spec: TorusSpec, k: int, sink: IO[str]) -> LpCounts:
    """Write the dualized reduced oblivious LP: minimize theta subject to
    origin-rooted flow conservation for every destination, reflection ties
    (every pair reads its orbit head's variable), box bounds, and one
    dualized hose constraint block per load-edge class."""
    index = _OrbitIndex(spec)
    var = index.rep
    nodes = list(spec.nodes())
    n = len(nodes)
    heads = edge_heads(spec).ravel().tolist()
    gvars = {index.name(key) for key in set(var[1:].ravel().tolist())}

    # flow conservation per (destination, node), on canonical variables; a key
    # divided by 4n is its destination's rank x*rows + y, so a destination's
    # smallest image is read off any of its keys
    constraints: list[Row] = []
    for rank in dict.fromkeys((var[1:, 0, 0] // (4 * n)).tolist()):
        rep_t = Node(*divmod(rank, spec.rows))
        t = rep_t.y * spec.cols + rep_t.x
        names = [index.name(key) for key in var[t].ravel().tolist()]
        constraints += _conservation_rows(
            spec, heads, f"t{rep_t.x}_{rep_t.y}", names, 0, t
        )

    # the hose row of pair (s, tau) names the variable carrying that pair's
    # flow on the class edge: on_edge read over the table of variable keys
    keys_as_policy = OriginPolicy(spec, var.reshape(n, 4, spec.rows, spec.cols))
    dual_vars: set[str] = set()
    for label, edge, cap in load_edge_classes(spec):
        a_names = {s: f"a_{label}_s{s.x}_{s.y}" for s in nodes}
        b_names = {t: f"b_{label}_t{t.x}_{t.y}" for t in nodes}
        gam = f"gam_{label}"
        dual_vars.update(a_names.values())
        dual_vars.update(b_names.values())
        dual_vars.add(gam)
        budget = [(1.0, name) for name in sorted(a_names.values())]
        budget += [(1.0, name) for name in sorted(b_names.values())]
        budget += [(float(k), gam), (-cap, "th")]
        constraints.append((f"load_{label}", budget, "<=", 0.0))
        pair_keys = keys_as_policy.on_edge(edge).tolist()
        for s, keys in zip(nodes, pair_keys):
            for tau, pair_key in zip(nodes, keys):
                if s == tau:
                    continue
                gname = index.name(pair_key)
                constraints.append(
                    (
                        f"hose_{label}_s{s.x}_{s.y}_t{tau.x}_{tau.y}",
                        [(1.0, a_names[s]), (1.0, b_names[tau]), (1.0, gam), (-1.0, gname)],
                        ">=",
                        0.0,
                    )
                )

    _write_lp(
        sink, "reduced oblivious routing program", constraints, gvars, [*sorted(dual_vars), "th"]
    )
    return LpCounts(
        variables=len(gvars) + len(dual_vars) + 1,
        constraints=len(constraints),
        flow_variables=len(gvars),
    )


def _f_names(spec: TorusSpec, pairs: int) -> list[list[str]]:
    """``f_p{i}_e{x}_{y}_{dir}`` of every pair index and edge id."""
    suffixes = [
        f"{x}_{y}_{_DIR_NAME[d]}"
        for d in Direction
        for y in range(spec.rows)
        for x in range(spec.cols)
    ]
    return [[f"f_p{p}_e{suffix}" for suffix in suffixes] for p in range(pairs)]


def export_opt_lp(spec: TorusSpec, d: TrafficMatrix, sink: IO[str]) -> LpCounts:
    """Write the fixed-demand optimal-routing LP: per-pair flow conservation
    and per-edge load at most capacity times theta, minimized over theta."""
    pairs = sorted(d.entries.items())
    fnames = _f_names(spec, len(pairs))
    heads = edge_heads(spec).ravel().tolist()
    cols, n = spec.cols, spec.num_nodes
    constraints: list[Row] = []
    for p, ((s, tau), _) in enumerate(pairs):
        constraints += _conservation_rows(
            spec, heads, f"p{p}", fnames[p], s.y * cols + s.x, tau.y * cols + tau.x
        )
    # load rows in TorusSpec.edges() order: by tail node, then direction
    for u in range(n):
        for dd in Direction:
            e = dd * n + u
            terms = [(amount, names[e]) for names, (_, amount) in zip(fnames, pairs)]
            terms.append((-spec.capacity(dd), "th"))
            name = f"load_e{u % cols}_{u // cols}_{_DIR_NAME[dd]}"
            constraints.append((name, terms, "<=", 0.0))

    boxed = [name for names in fnames for name in names]
    _write_lp(sink, "optimal routing for a fixed demand", constraints, boxed, ["th"])
    return LpCounts(
        variables=len(boxed) + 1,
        constraints=len(constraints),
        flow_variables=len(boxed),
    )


_TERM_RE = re.compile(r"([+-])\s*([0-9.eE+-]*?)\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_expression(text: str) -> dict[str, float]:
    terms: dict[str, float] = {}
    if not text.lstrip().startswith(("+", "-")):
        text = "+ " + text
    for sign, mag, name in _TERM_RE.findall(text):
        coef = float(mag) if mag not in ("", "+", "-") else 1.0
        if sign == "-":
            coef = -coef
        terms[name] = terms.get(name, 0.0) + coef
    return terms


_ENTRY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\s*:")


def parse_lp(text: str) -> LpModel:
    """Parse the subset of CPLEX LP format emitted by this module.  A line is
    a new entry when it names a section or starts with ``name:``; anything
    else continues the previous entry (wrapped long constraints)."""
    sections = {"minimize", "maximize", "subject to", "bounds", "end"}
    entries: list[tuple[str, str]] = []  # (mode, full text)
    mode = None
    sense = "min"
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("\\"):
            continue
        low = ln.lower()
        if low in sections:
            if low == "minimize":
                sense, mode = "min", "obj"
            elif low == "maximize":
                sense, mode = "max", "obj"
            elif low == "subject to":
                mode = "cons"
            elif low == "bounds":
                mode = "bounds"
            else:
                mode = "end"
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
            body = ln.split(":", 1)[1] if ":" in ln else ln
            objective.update(_parse_expression(body))
        elif entry_mode == "cons":
            name, body = ln.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*([0-9.eE+-]+)\s*$", body)
            if not m:
                raise ValueError(f"cannot parse constraint: {ln!r}")
            constraints.append(
                LpConstraint(
                    name=name.strip(),
                    terms=_parse_expression(body[: m.start()]),
                    sense=m.group(1),
                    rhs=float(m.group(2)),
                )
            )
        elif entry_mode == "bounds":
            two = re.match(
                r"([0-9.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*([0-9.eE+-]+)", ln
            )
            one = re.match(r"([0-9.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*$", ln)
            if two:
                bounds[two.group(2)] = (float(two.group(1)), float(two.group(3)))
            elif one:
                bounds[one.group(2)] = (float(one.group(1)), None)
            else:
                raise ValueError(f"cannot parse bound: {ln!r}")
    return LpModel(sense=sense, objective=objective, constraints=constraints, bounds=bounds)


def _violations(model: LpModel, values: dict[str, float], tol: float) -> list[str]:
    """Every constraint and then every variable bound of ``model`` that
    ``values`` (missing names read 0) violates by more than ``tol``."""
    failures = []
    for con in model.constraints:
        lhs = sum(coef * values.get(name, 0.0) for name, coef in con.terms.items())
        ok = (
            lhs <= con.rhs + tol
            if con.sense == "<="
            else lhs >= con.rhs - tol if con.sense == ">=" else abs(lhs - con.rhs) <= tol
        )
        if not ok:
            failures.append(f"{con.name}: lhs={lhs:.9g} {con.sense} {con.rhs}")
    for name, (lo, hi) in model.bounds.items():
        v = values.get(name, 0.0)
        if lo is not None and v < lo - tol:
            failures.append(f"bound {name}: {v} < {lo}")
        if hi is not None and v > hi + tol:
            failures.append(f"bound {name}: {v} > {hi}")
    return failures


def check_opt_feasibility(
    spec: TorusSpec,
    demand: TrafficMatrix,
    model: LpModel,
    pair_flows: dict[tuple[Node, Node], np.ndarray],
    theta: float,
    tol: float = 1e-7,
) -> list[str]:
    """Substitute per-pair flows (``[dir, y, x]`` slabs, as
    ``Policy.pair_flows`` returns them) and a load bound into a parsed
    fixed-demand model and report every violated constraint."""
    values: dict[str, float] = {"th": theta}
    pairs = sorted(demand.entries)
    for names, pair in zip(_f_names(spec, len(pairs)), pairs):
        flows = pair_flows.get(pair)
        if flows is not None:
            values.update(zip(names, np.ravel(flows).tolist()))
    return _violations(model, values, tol)


def check_oblivious_feasibility(
    spec: TorusSpec,
    k: int,
    model: LpModel,
    policy: OriginPolicy,
    theta: float,
    duals: dict[str, float],
    tol: float = 1e-7,
) -> list[str]:
    """Substitute a policy's flows (with hose duals and its worst-case theta)
    into a parsed model and report every violated constraint.

    ``k`` is unused: the model already carries it as the coefficient of
    ``gam`` in each load row.  It stays because the acceptance gate and the
    benchmark pass the arguments positionally."""
    if policy.spec != spec:
        raise SpecMismatch("policy and model use different torus specs")
    index = _OrbitIndex(spec)
    values: dict[str, float] = {"th": theta}
    values.update(duals)
    # position[t, dir, u] is the pair's place in nodes() x edges() order; the
    # orbit member with the smallest position supplies the orbit's value, and
    # the origin's own slab names no variable
    n = spec.num_nodes
    position = np.arange(n * n * 4).reshape(n, n, 4).transpose(0, 2, 1)
    first = index.orbit_min(position) == position
    first[0] = False
    flows = policy.flows.reshape(n, 4, n)
    for key, v in zip(index.rep[first].tolist(), flows[first].tolist()):
        values.setdefault(index.name(key), v)

    return _violations(model, values, tol)
