"""Export of the placement problem as an integer program in LP text format.

The exported model minimises orchestrators plus managers over binary
variables:

* ``h_p``        orchestrator open at PoP p
* ``r_q_p``      PoP q belongs to the domain headed by p
* ``x_m_p``      manager slot m open at PoP p (one slot per VNF)
* ``y_v_m_p``    VNF v run by manager slot m at PoP p
* ``z_v_m_q_p``  product variable: y_v_m_q and r_q_p both set

Products of decision variables are linearised through the ``z`` variables:
rows c19/c20/c21 pin ``z_v_m_q_p`` to ``y_v_m_q * r_q_p``, and rows
c16/c17/c18 then express the same-domain, orchestrator-capacity and
manager-to-head delay rules linearly. The z-pinning rows cover every (q, p)
pair including q = p; leaving the diagonal unpinned would let a solver zero
those products and dodge the capacity row.

Constant inputs (VNF locations, the GSO position) are substituted into the
rows rather than exported as variables, so location-indexed families only
emit rows for the location that actually holds the VNF, and the GSO delay
family only emits rows for the GSO's own PoP.

Dialect (kept deliberately small; ``check_lp_file`` accepts exactly this):
comment lines start with a backslash; sections are ``Minimize``,
``Subject To``, ``Binary``, ``End`` in that order; each constraint row is
``name: [sign] [coef] var {+|- [coef] var} (<=|>=|=) number``. All
variables are declared in the Binary section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .topology import ProblemInstance

_Term = tuple[float, str]


@dataclass(frozen=True)
class LpRow:
    name: str
    terms: tuple[_Term, ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class LpModel:
    variables: tuple[str, ...]
    objective: tuple[_Term, ...]
    rows: tuple[LpRow, ...]

    @property
    def family_rows(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            fam = row.name.split("_", 1)[0]
            counts[fam] = counts.get(fam, 0) + 1
        return counts


@dataclass(frozen=True)
class LpSummary:
    variables: int
    constraints: int
    family_rows: dict[str, int]

    def line(self) -> str:
        return f"variables={self.variables} constraints={self.constraints}"


def build_lp_model(instance: ProblemInstance) -> LpModel:
    """Assemble the full model; managers are provisioned one slot per VNF."""
    P = instance.pop_count
    V = instance.vnf_count
    M = V  # one potential manager slot per VNF is always enough
    params = instance.params
    d = instance.delays
    cap_nfvo = float(params.nfvo_capacity)
    cap_vnfm = float(params.vnfm_capacity)
    gso = params.gso_location
    loc = [v.location for v in instance.vnfs]

    h = [f"h_{p}" for p in range(P)]
    r = [[f"r_{q}_{p}" for p in range(P)] for q in range(P)]
    x = [[f"x_{m}_{p}" for p in range(P)] for m in range(M)]
    y = [[[f"y_{v}_{m}_{p}" for p in range(P)] for m in range(M)] for v in range(V)]
    z = [[[[f"z_{v}_{m}_{q}_{p}" for p in range(P)] for q in range(P)]
          for m in range(M)] for v in range(V)]

    variables: list[str] = []
    variables += h
    variables += [r[q][p] for q in range(P) for p in range(P)]
    variables += [x[m][p] for m in range(M) for p in range(P)]
    variables += [y[v][m][p] for v in range(V) for m in range(M) for p in range(P)]
    variables += [z[v][m][q][p] for v in range(V) for m in range(M)
                  for q in range(P) for p in range(P)]

    objective: list[_Term] = [(1.0, name) for name in h]
    objective += [(1.0, x[m][p]) for m in range(M) for p in range(P)]

    rows: list[LpRow] = []

    # c2: each PoP in exactly one domain.
    for q in range(P):
        rows.append(LpRow(f"c2_{q}", tuple((1.0, r[q][p]) for p in range(P)), "=", 1.0))
    # c3: domains only around open orchestrators.
    for q in range(P):
        for p in range(P):
            rows.append(LpRow(f"c3_{q}_{p}", ((1.0, r[q][p]), (-1.0, h[p])), "<=", 0.0))
    # c4: an open orchestrator heads its own PoP, and only then.
    for p in range(P):
        rows.append(LpRow(f"c4_{p}", ((1.0, r[p][p]), (-1.0, h[p])), "=", 0.0))
    # c5: a manager slot sits on at most one PoP.
    for m in range(M):
        rows.append(LpRow(f"c5_{m}", tuple((1.0, x[m][p]) for p in range(P)), "<=", 1.0))
    # c6: every VNF run by exactly one manager slot.
    for v in range(V):
        rows.append(LpRow(
            f"c6_{v}",
            tuple((1.0, y[v][m][p]) for m in range(M) for p in range(P)), "=", 1.0))
    # c7: assignment only to an open slot at that PoP.
    for v in range(V):
        for m in range(M):
            for p in range(P):
                rows.append(LpRow(f"c7_{v}_{m}_{p}",
                                  ((1.0, y[v][m][p]), (-1.0, x[m][p])), "<=", 0.0))
    # c10/c11: slot load within [1, manager capacity].
    for m in range(M):
        for p in range(P):
            terms = tuple((1.0, y[v][m][p]) for v in range(V)) + ((-cap_vnfm, x[m][p]),)
            rows.append(LpRow(f"c10_{m}_{p}", terms, "<=", 0.0))
    for m in range(M):
        for p in range(P):
            terms = ((1.0, x[m][p]),) + tuple((-1.0, y[v][m][p]) for v in range(V))
            rows.append(LpRow(f"c11_{m}_{p}", terms, "<=", 0.0))
    # c12: orchestrators within reach of the GSO (GSO position substituted).
    for q in range(P):
        if q == gso:
            continue
        rows.append(LpRow(f"c12_{q}", ((d[gso][q], h[q]),), "<=",
                          params.gso_nfvo_delay_bound))
    # c13: member PoPs within reach of their head.
    for p in range(P):
        for q in range(P):
            if p == q:
                continue
            rows.append(LpRow(f"c13_{p}_{q}", ((d[p][q], r[q][p]),), "<=",
                              params.nfvo_vim_delay_bound))
    # c14: manager within the VNF's own delay bound (VNF location substituted).
    for v in range(V):
        for m in range(M):
            for q in range(P):
                if q == loc[v]:
                    continue
                rows.append(LpRow(f"c14_{v}_{m}_{q}", ((d[loc[v]][q], y[v][m][q]),),
                                  "<=", instance.vnfs[v].vnfm_delay_bound))
    # c16: the VNF's location lies in the same domain as its manager.
    for v in range(V):
        for m in range(M):
            for q in range(P):
                for p in range(P):
                    rows.append(LpRow(f"c16_{v}_{m}_{q}_{p}",
                                      ((1.0, z[v][m][q][p]), (-1.0, r[loc[v]][p])),
                                      "<=", 0.0))
    # c17: per-domain VNF count within orchestrator capacity.
    for p in range(P):
        terms = tuple((1.0, z[v][m][q][p])
                      for v in range(V) for m in range(M) for q in range(P))
        rows.append(LpRow(f"c17_{p}", terms + ((-cap_nfvo, h[p]),), "<=", 0.0))
    # c18: manager within the VNF's orchestrator delay bound of the head.
    for v in range(V):
        for m in range(M):
            for p in range(P):
                for q in range(P):
                    if p == q:
                        continue
                    rows.append(LpRow(f"c18_{v}_{m}_{q}_{p}", ((d[p][q], z[v][m][q][p]),),
                                      "<=", instance.vnfs[v].nfvo_vnfm_delay_bound))
    # c19/c20/c21: pin z to the product of y and r (diagonal included).
    for v in range(V):
        for m in range(M):
            for q in range(P):
                for p in range(P):
                    rows.append(LpRow(f"c19_{v}_{m}_{q}_{p}",
                                      ((1.0, z[v][m][q][p]), (-1.0, y[v][m][q])),
                                      "<=", 0.0))
    for v in range(V):
        for m in range(M):
            for q in range(P):
                for p in range(P):
                    rows.append(LpRow(f"c20_{v}_{m}_{q}_{p}",
                                      ((1.0, z[v][m][q][p]), (-1.0, r[q][p])),
                                      "<=", 0.0))
    for v in range(V):
        for m in range(M):
            for q in range(P):
                for p in range(P):
                    rows.append(LpRow(f"c21_{v}_{m}_{q}_{p}",
                                      ((1.0, y[v][m][q]), (1.0, r[q][p]),
                                       (-1.0, z[v][m][q][p])),
                                      "<=", 1.0))

    return LpModel(tuple(variables), tuple(objective), tuple(rows))


def _fmt_num(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _fmt_terms(terms: tuple[_Term, ...], per_line: int = 8) -> list[str]:
    """Render terms as one or more lines (continuations keep the file diffable)."""
    pieces: list[str] = []
    for i, (coef, var) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = var if mag == 1.0 else f"{_fmt_num(mag)} {var}"
        if i == 0:
            pieces.append(body if coef >= 0 else f"- {body}")
        else:
            pieces.append(f"{sign} {body}")
    lines = []
    for start in range(0, len(pieces), per_line):
        lines.append(" ".join(pieces[start:start + per_line]))
    return lines


def write_lp_model(model: LpModel, path: str | Path) -> None:
    out: list[str] = []
    out.append("\\ placement model: minimise orchestrators plus managers")
    out.append("Minimize")
    obj_lines = _fmt_terms(model.objective)
    out.append(" obj: " + obj_lines[0])
    out.extend("      " + line for line in obj_lines[1:])
    out.append("Subject To")
    for row in model.rows:
        body = _fmt_terms(row.terms)
        rhs = f" {row.sense} {_fmt_num(row.rhs)}"
        if len(body) == 1:
            out.append(f" {row.name}: {body[0]}{rhs}")
        else:
            out.append(f" {row.name}: {body[0]}")
            out.extend("      " + line for line in body[1:-1])
            out.append("      " + body[-1] + rhs)
    out.append("Binary")
    out.extend(f" {name}" for name in model.variables)
    out.append("End")
    Path(path).write_text("\n".join(out) + "\n")


def export_lp(instance: ProblemInstance, path: str | Path) -> LpSummary:
    """Write the instance's integer program to ``path`` and return the summary."""
    model = build_lp_model(instance)
    write_lp_model(model, path)
    return LpSummary(len(model.variables), len(model.rows), model.family_rows)


# ---------------------------------------------------------------------------
# Grammar check

_VAR_RE = re.compile(
    r"^(h_\d+|r_\d+_\d+|x_\d+_\d+|y_\d+_\d+_\d+|z_\d+_\d+_\d+_\d+)$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_NUM_RE = re.compile(r"^\d+(\.\d+)?([eE][+-]?\d+)?$|^\.\d+([eE][+-]?\d+)?$")
_TOKEN_RE = re.compile(r"<=|>=|=|\+|-|:|[A-Za-z][A-Za-z0-9_]*|\d[\w.+-]*|\.\d[\w.+-]*|\S")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for line in text.splitlines():
        if line.lstrip().startswith("\\"):
            continue
        tokens.extend(_TOKEN_RE.findall(line))
    return tokens


def _parse_expression(tokens: list[str], i: int, used: set[str], diags: list[str],
                      where: str) -> int:
    """Consume ``[sign] [num] var {(+|-) [num] var}``; returns the next index."""
    first = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "="):
            break
        if tok in ("+", "-"):
            i += 1
        elif not first:
            break
        first = False
        if i < len(tokens) and _NUM_RE.match(tokens[i]):
            i += 1
        if i >= len(tokens) or not _NAME_RE.match(tokens[i]):
            diags.append(f"{where}: expected a variable, found "
                         f"{tokens[i] if i < len(tokens) else 'end of file'!r}")
            return i
        if not _VAR_RE.match(tokens[i]):
            diags.append(f"{where}: variable name {tokens[i]!r} does not match the "
                         "h/r/x/y/z naming scheme")
        used.add(tokens[i])
        i += 1
    return i


def check_lp_file(path: str | Path) -> list[str]:
    """Re-parse an exported LP file; returns diagnostics (empty means clean)."""
    diags: list[str] = []
    tokens = _tokenize(Path(path).read_text())
    i = 0

    def peek_kw(*words: str) -> bool:
        return (i + len(words) <= len(tokens)
                and all(tokens[i + k].lower() == w for k, w in enumerate(words)))

    if not peek_kw("minimize") and not peek_kw("maximize"):
        diags.append("expected Minimize or Maximize at the start")
        return diags
    i += 1

    used: set[str] = set()
    # Objective: optional "name :" then an expression.
    if i + 1 < len(tokens) and _NAME_RE.match(tokens[i]) and tokens[i + 1] == ":":
        i += 2
    i = _parse_expression(tokens, i, used, diags, "objective")

    if not (i < len(tokens) and tokens[i].lower() == "subject"
            and i + 1 < len(tokens) and tokens[i + 1].lower() == "to"):
        diags.append("expected 'Subject To' after the objective")
        return diags
    i += 2

    row_names: set[str] = set()
    while i < len(tokens) and tokens[i].lower() not in ("binary", "binaries", "end"):
        if not (_NAME_RE.match(tokens[i]) and i + 1 < len(tokens) and tokens[i + 1] == ":"):
            diags.append(f"constraint section: expected 'name:', found {tokens[i]!r}")
            return diags
        name = tokens[i]
        if name in row_names:
            diags.append(f"duplicate constraint name {name!r}")
        row_names.add(name)
        i += 2
        i = _parse_expression(tokens, i, used, diags, f"row {name}")
        if i < len(tokens) and tokens[i] in ("<=", ">=", "="):
            i += 1
            sign = False
            if i < len(tokens) and tokens[i] in ("+", "-"):
                sign = True
                i += 1
            if i < len(tokens) and _NUM_RE.match(tokens[i]):
                i += 1
            else:
                diags.append(f"row {name}: missing numeric right-hand side")
                return diags
        else:
            diags.append(f"row {name}: missing relational operator")
            return diags

    if not (i < len(tokens) and tokens[i].lower() in ("binary", "binaries")):
        diags.append("expected a Binary section after the constraints")
        return diags
    i += 1
    declared: set[str] = set()
    while i < len(tokens) and tokens[i].lower() != "end":
        tok = tokens[i]
        if not _NAME_RE.match(tok):
            diags.append(f"binary section: expected a variable name, found {tok!r}")
            return diags
        if not _VAR_RE.match(tok):
            diags.append(f"binary section: variable name {tok!r} does not match the "
                         "h/r/x/y/z naming scheme")
        if tok in declared:
            diags.append(f"binary section: duplicate declaration of {tok!r}")
        declared.add(tok)
        i += 1
    if not (i < len(tokens) and tokens[i].lower() == "end"):
        diags.append("expected End after the Binary section")
        return diags
    i += 1
    if i != len(tokens):
        diags.append(f"unexpected trailing content after End: {tokens[i]!r}")

    for name in sorted(used - declared):
        diags.append(f"variable {name!r} is used but not declared Binary")
    for name in sorted(declared - used):
        diags.append(f"variable {name!r} is declared but never used")
    return diags
