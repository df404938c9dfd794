"""The per-row dict parser and dict-walk feasibility check that
:mod:`toruslb.lpexport` used before its model became CSR arrays, kept as the
reference for ``parse_lp``, ``_violations`` and
``check_oblivious_feasibility``; its ``check_opt_feasibility`` is the one
check of the fixed-demand program.

Each constraint here is a ``{name: coefficient}`` dict read by a per-token
Python loop, and each row's left-hand side is a running sum over that dict;
it shares no parsing or arithmetic with the array code.  :func:`dict_view`
turns an array ``LpModel`` into this form, for tests that read one row's
terms by name.  The oblivious check names its flow variables from orbits
built here, node by node, with :mod:`tests.symmetry_oracle`'s scalar maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, mul

import numpy as np

from toruslb.lpexport import ROW_TOL, LpModel as ArrayModel, _f_names
from toruslb.torus import DirectedEdge, Direction, point_group

from tests.symmetry_oracle import apply_automorphism, apply_to_direction


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


def dict_view(model: ArrayModel) -> LpModel:
    """``model`` as per-row dicts: each row's terms in written order, each
    bound as ``(lower, upper)`` with ``None`` for an infinite upper bound."""
    cols, ptr = model.columns, model.indptr.tolist()
    ids, vals = model.ids.tolist(), model.vals.tolist()
    constraints = [
        LpConstraint(name, {cols[j]: v for j, v in zip(ids[lo:hi], vals[lo:hi])}, sense, rhs)
        for name, lo, hi, sense, rhs in zip(
            model.constraints, ptr, ptr[1:], model.senses.tolist(), model.rhs.tolist()
        )
    ]
    bounds = {
        cols[j]: (lo, None if hi == float("inf") else hi)
        for j, lo, hi in zip(model.bound_ids.tolist(), model.lower.tolist(), model.upper.tolist())
    }
    return LpModel(model.sense, dict(model.objective), constraints, bounds)


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
    """Parse the subset of CPLEX LP format that ``toruslb.lpexport`` emits.
    A line is a new entry when it names a section or starts with ``name:``;
    anything else continues the previous entry (wrapped long constraints).
    Entries are read by whitespace tokens."""
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


def violations(model: LpModel, values: dict[str, float]) -> list[str]:
    """Every constraint and then every variable bound of ``model`` that
    ``values`` (missing names read 0) violates by more than ``ROW_TOL``."""
    failures = []
    value = values.get
    for con in model.constraints:
        # the products coef * value added one by one in term order (sum()
        # compensates its float additions from Python 3.12 on)
        lhs = reduce(add, map(mul, con.terms.values(), map(value, con.terms, repeat(0.0))), 0.0)
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


def opt_values(spec, demand, pair_flows, theta) -> dict[str, float]:
    """The fixed-demand program's variables by name: per-pair flows
    (``[dir, y, x]`` slabs, one row of a policy's ``gather``) and the load
    bound."""
    values: dict[str, float] = {"th": theta}
    pairs = sorted(demand.entries)
    names, m = _f_names(spec, len(pairs)), 4 * spec.num_nodes
    for p, pair in enumerate(pairs):
        flows = pair_flows.get(pair)
        if flows is not None:
            values.update(zip(names[p * m : (p + 1) * m], np.ravel(flows).tolist()))
    return values


def check_opt_feasibility(spec, demand, model: LpModel, pair_flows, theta) -> list[str]:
    """The fixed-demand check on a dict model: per-pair flows and a load
    bound substituted by name."""
    return violations(model, opt_values(spec, demand, pair_flows, theta))


def g_name(t, edge) -> str:
    """The oracle's own spelling of one pair's flow variable."""
    d = ("pv", "nv", "ph", "nh")[edge.dir]
    return f"g_t{t.x}_{t.y}_e{edge.tail.x}_{edge.tail.y}_{d}"


def check_oblivious_feasibility(spec, model: LpModel, policy, theta, duals) -> list[str]:
    """The reduced-program check on a dict model: each orbit variable, named
    by the orbit's smallest ``(t.x, t.y, tail.x, tail.y, dir)`` image, reads
    its member first in ``[t, u, dir]`` order; then the duals and theta."""
    group = point_group(spec)
    nodes = list(spec.nodes())
    # every point-group image of each node and direction, one at a time
    node_images = [[apply_automorphism(spec, phi, u) for phi in group] for u in nodes]
    dir_images = [[apply_to_direction(phi, d) for phi in group] for d in Direction]
    flows = policy.flows.tolist()
    values: dict[str, float] = {}
    for t, t_images in enumerate(node_images[1:], 1):  # the origin's slab names nothing
        for u, (x, y) in enumerate(nodes):
            for d in Direction:
                dest, tail, dir_ = min(zip(t_images, node_images[u], dir_images[d]))
                values.setdefault(g_name(dest, DirectedEdge(tail, dir_)), flows[t][d][y][x])
    values["th"] = theta
    values.update(duals)
    return violations(model, values)
