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

Dialect (kept deliberately small): comment lines start with a backslash;
sections are ``Minimize``, ``Subject To``, ``Binary``, ``End`` in that
order; each constraint row is
``name: [sign] [coef] var {+|- [coef] var} (<=|>=|=) number``. All
variables are declared in the Binary section. ``check_lp_file`` checks a
file in the writer's own line form line by line, one regular expression per
line; any other file it parses token by token, and that parse alone words
the diagnostics.

Neither direction holds the model in memory: ``write_lp_model`` writes each
row as ``LpModel.rows`` generates it, and ``check_lp_file`` reads the file a
line at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .topology import ProblemInstance

_Term = tuple[float, str]


class LpRow(NamedTuple):
    name: str
    terms: tuple[_Term, ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class LpModel:
    """The instance's integer program, generated on demand.

    Nothing but the instance is stored: variables, objective terms and rows
    are yielded in file order, so a writer needs memory O(1) in rows.
    Managers are provisioned one slot per VNF, which is always enough.
    """

    instance: ProblemInstance

    def variables(self) -> Iterator[str]:
        P = self.instance.pop_count
        V = M = self.instance.vnf_count
        yield from (f"h_{p}" for p in range(P))
        yield from (f"r_{q}_{p}" for q in range(P) for p in range(P))
        yield from (f"x_{m}_{p}" for m in range(M) for p in range(P))
        yield from (f"y_{v}_{m}_{p}" for v in range(V) for m in range(M) for p in range(P))
        yield from (f"z_{v}_{m}_{q}_{p}" for v in range(V) for m in range(M)
                    for q in range(P) for p in range(P))

    def objective(self) -> Iterator[_Term]:
        P = self.instance.pop_count
        M = self.instance.vnf_count
        yield from ((1.0, f"h_{p}") for p in range(P))
        yield from ((1.0, f"x_{m}_{p}") for m in range(M) for p in range(P))

    def rows(self) -> Iterator[LpRow]:
        # One generator expression per family: besides reading well, a
        # small code object keeps tracemalloc's per-allocation line lookup
        # cheap, which a single function holding every loop does not.
        instance = self.instance
        P = instance.pop_count
        V = M = instance.vnf_count
        params = instance.params
        d = instance.delays
        cap_nfvo = float(params.nfvo_capacity)
        cap_vnfm = float(params.vnfm_capacity)
        gso = params.gso_location
        loc = [v.location for v in instance.vnfs]

        # c2: each PoP in exactly one domain.
        yield from (LpRow(f"c2_{q}", tuple((1.0, f"r_{q}_{p}") for p in range(P)), "=", 1.0)
                    for q in range(P))
        # c3: domains only around open orchestrators.
        yield from (LpRow(f"c3_{q}_{p}", ((1.0, f"r_{q}_{p}"), (-1.0, f"h_{p}")), "<=", 0.0)
                    for q in range(P) for p in range(P))
        # c4: an open orchestrator heads its own PoP, and only then.
        yield from (LpRow(f"c4_{p}", ((1.0, f"r_{p}_{p}"), (-1.0, f"h_{p}")), "=", 0.0)
                    for p in range(P))
        # c5: a manager slot sits on at most one PoP.
        yield from (LpRow(f"c5_{m}", tuple((1.0, f"x_{m}_{p}") for p in range(P)), "<=", 1.0)
                    for m in range(M))
        # c6: every VNF run by exactly one manager slot.
        yield from (LpRow(f"c6_{v}", tuple((1.0, f"y_{v}_{m}_{p}")
                                           for m in range(M) for p in range(P)), "=", 1.0)
                    for v in range(V))
        # c7: assignment only to an open slot at that PoP.
        yield from (LpRow(f"c7_{v}_{m}_{p}", ((1.0, f"y_{v}_{m}_{p}"), (-1.0, f"x_{m}_{p}")),
                          "<=", 0.0)
                    for v in range(V) for m in range(M) for p in range(P))
        # c10/c11: slot load within [1, manager capacity].
        yield from (LpRow(f"c10_{m}_{p}", tuple((1.0, f"y_{v}_{m}_{p}") for v in range(V))
                          + ((-cap_vnfm, f"x_{m}_{p}"),), "<=", 0.0)
                    for m in range(M) for p in range(P))
        yield from (LpRow(f"c11_{m}_{p}", ((1.0, f"x_{m}_{p}"),)
                          + tuple((-1.0, f"y_{v}_{m}_{p}") for v in range(V)), "<=", 0.0)
                    for m in range(M) for p in range(P))
        # c12: orchestrators within reach of the GSO (GSO position substituted).
        yield from (LpRow(f"c12_{q}", ((d[gso][q], f"h_{q}"),), "<=",
                          params.gso_nfvo_delay_bound)
                    for q in range(P) if q != gso)
        # c13: member PoPs within reach of their head.
        yield from (LpRow(f"c13_{p}_{q}", ((d[p][q], f"r_{q}_{p}"),), "<=",
                          params.nfvo_vim_delay_bound)
                    for p in range(P) for q in range(P) if p != q)
        # c14: manager within the VNF's own delay bound (VNF location substituted).
        yield from (LpRow(f"c14_{v}_{m}_{q}", ((d[loc[v]][q], f"y_{v}_{m}_{q}"),), "<=",
                          instance.vnfs[v].vnfm_delay_bound)
                    for v in range(V) for m in range(M) for q in range(P) if q != loc[v])
        # c16: the VNF's location lies in the same domain as its manager.
        yield from (LpRow(f"c16_{v}_{m}_{q}_{p}",
                          ((1.0, f"z_{v}_{m}_{q}_{p}"), (-1.0, f"r_{loc[v]}_{p}")), "<=", 0.0)
                    for v in range(V) for m in range(M) for q in range(P) for p in range(P))
        # c17: per-domain VNF count within orchestrator capacity.
        yield from (LpRow(f"c17_{p}", tuple((1.0, f"z_{v}_{m}_{q}_{p}") for v in range(V)
                                            for m in range(M) for q in range(P))
                          + ((-cap_nfvo, f"h_{p}"),), "<=", 0.0)
                    for p in range(P))
        # c18: manager within the VNF's orchestrator delay bound of the head.
        yield from (LpRow(f"c18_{v}_{m}_{q}_{p}", ((d[p][q], f"z_{v}_{m}_{q}_{p}"),), "<=",
                          instance.vnfs[v].nfvo_vnfm_delay_bound)
                    for v in range(V) for m in range(M) for p in range(P) for q in range(P)
                    if p != q)
        # c19/c20/c21: pin z to the product of y and r (diagonal included).
        yield from (LpRow(f"c19_{v}_{m}_{q}_{p}",
                          ((1.0, f"z_{v}_{m}_{q}_{p}"), (-1.0, f"y_{v}_{m}_{q}")), "<=", 0.0)
                    for v in range(V) for m in range(M) for q in range(P) for p in range(P))
        yield from (LpRow(f"c20_{v}_{m}_{q}_{p}",
                          ((1.0, f"z_{v}_{m}_{q}_{p}"), (-1.0, f"r_{q}_{p}")), "<=", 0.0)
                    for v in range(V) for m in range(M) for q in range(P) for p in range(P))
        yield from (LpRow(f"c21_{v}_{m}_{q}_{p}",
                          ((1.0, f"y_{v}_{m}_{q}"), (1.0, f"r_{q}_{p}"),
                           (-1.0, f"z_{v}_{m}_{q}_{p}")), "<=", 1.0)
                    for v in range(V) for m in range(M) for q in range(P) for p in range(P))


@dataclass(frozen=True)
class LpSummary:
    variables: int
    constraints: int
    family_rows: dict[str, int]

    def line(self) -> str:
        return f"variables={self.variables} constraints={self.constraints}"


def build_lp_model(instance: ProblemInstance) -> LpModel:
    """The instance's model; its rows are generated when it is written."""
    return LpModel(instance)


def _fmt_num(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _fmt_terms(terms: Iterable[_Term], per_line: int = 8) -> list[str]:
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


def write_lp_model(model: LpModel, path: str | Path) -> LpSummary:
    """Write the model to ``path`` one row at a time; returns what was written."""
    family_rows: dict[str, int] = {}
    variables = 0
    with open(path, "w") as out:
        out.write("\\ placement model: minimise orchestrators plus managers\nMinimize\n")
        out.write(" obj: " + "\n      ".join(_fmt_terms(model.objective())) + "\n")
        out.write("Subject To\n")
        for row in model.rows():
            body = "\n      ".join(_fmt_terms(row.terms))
            out.write(f" {row.name}: {body} {row.sense} {_fmt_num(row.rhs)}\n")
            family = row.name.split("_", 1)[0]
            family_rows[family] = family_rows.get(family, 0) + 1
        out.write("Binary\n")
        for name in model.variables():
            out.write(f" {name}\n")
            variables += 1
        out.write("End\n")
    return LpSummary(variables, sum(family_rows.values()), family_rows)


def export_lp(instance: ProblemInstance, path: str | Path) -> LpSummary:
    """Write the instance's integer program to ``path`` and return the summary."""
    return write_lp_model(build_lp_model(instance), path)


# ---------------------------------------------------------------------------
# Grammar check

# Both parses' number syntax (.5 too) and names; without re.ASCII, \d is Unicode.
_NUM = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
_VAR = r"(?:h_\d+|[rx]_\d+_\d+|y_\d+_\d+_\d+|z_\d+_\d+_\d+_\d+)"
_VAR_RE = re.compile(rf"{_VAR}$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_NUM_RE = re.compile(rf"{_NUM}$")
_TOKEN_RE = re.compile(r"<=|>=|=|\+|-|:|[A-Za-z][A-Za-z0-9_]*|\d[\w.+-]*|\.\d[\w.+-]*|\S")


# The parse reads at most this many tokens past the point where it last
# refilled its window: a term's sign, coefficient and variable, then after a
# failed term the relational operator, sign and right-hand side.
_LOOKAHEAD = 8


def _token_lines(file: IO[str]) -> Iterator[list[str]]:
    """The tokens of each line that is not a comment."""
    for chunk in file:
        # str.splitlines also breaks at form feeds and other separators that
        # file iteration does not; only a comment's backslash can tell.
        for line in chunk.splitlines() if "\\" in chunk else (chunk,):
            if not line.lstrip().startswith("\\"):
                yield _TOKEN_RE.findall(line)


def _refill(tokens: list[str], i: int, lines: Iterator[list[str]]) -> int:
    """Drop the tokens before ``i`` and read lines until the window holds
    ``_LOOKAHEAD`` tokens or the file ends; returns the new index of token i."""
    del tokens[:i]
    for line in lines:
        tokens.extend(line)
        if len(tokens) >= _LOOKAHEAD:
            break
    return 0


def _parse_expression(tokens: list[str], i: int, lines: Iterator[list[str]], used: set[str],
                      diags: list[str], where: str) -> int:
    """Consume ``[sign] [num] var {(+|-) [num] var}``; returns the next index."""
    first = True
    while True:
        if i + _LOOKAHEAD > len(tokens):
            i = _refill(tokens, i, lines)
            if not tokens:
                break
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
        var = tokens[i] if i < len(tokens) else "end of file"
        # Every name in the naming scheme is a name, so test the scheme first.
        if i >= len(tokens) or not _VAR_RE.match(var):
            if i >= len(tokens) or not _NAME_RE.match(var):
                diags.append(f"{where}: expected a variable, found {var!r}")
                return i
            diags.append(f"{where}: variable name {var!r} does not match the "
                         "h/r/x/y/z naming scheme")
        used.add(var)
        i += 1
    return i


def check_lp_file(path: str | Path) -> list[str]:
    """Re-parse an exported LP file; returns diagnostics (empty means clean).

    A file in the exact line form ``write_lp_model`` emits is checked line by
    line; any other file is parsed token by token, and every diagnostic comes
    from that parse. Both read the file a line at a time, so memory grows
    only with the sets of row and variable names.
    """
    with open(path) as file:
        if _is_clean_export(file):
            return []
        file.seek(0)
        return _check_lines(_token_lines(file))


# The writer's line forms: objective, row, continuation and Binary lines.
# Compiled with re.ASCII, each accepts a strict subset of what the token parse
# accepts without a diagnostic: numbers and names end where _TOKEN_RE's greedy
# tokens end, row names cannot be keywords, and inf or nan does not match.
_TERMS = rf"(?:{_NUM} )?{_VAR}(?: [+-] (?:{_NUM} )?{_VAR})*"
_CLOSE = rf"(?: (<=|>=|=) -?{_NUM})?\n"
_LINE_FORMS = (rf" obj: ((?:- )?{_TERMS})\n",
               rf" (c\d+(?:_\d+)*): ((?:- )?{_TERMS}){_CLOSE}",
               rf"      ([+-] {_TERMS}){_CLOSE}",
               rf" ({_VAR})\n")


def _is_clean_export(file: IO[str]) -> bool:
    """True when the file is in the writer's line form with no repeated row
    name or declaration and the used variables equal the declared ones.

    False means only that this check cannot tell: the token parse decides.
    """
    # Compiled on the first check, not at import; re caches them after that.
    obj_line, row_line, cont_line, binary_line = (
        re.compile(form, re.ASCII).fullmatch for form in _LINE_FORMS)
    lines = iter(file)
    comment = next(lines, "")
    # A form feed or other line separator inside a comment line would end the
    # comment for the token parse.
    if not (comment.startswith("\\") and len(comment.splitlines()) == 1):
        return False
    if next(lines, "") != "Minimize\n":
        return False
    objective = obj_line(next(lines, ""))
    if objective is None:
        return False
    used = set(objective[1].split())
    line = next(lines, "")
    while (more := cont_line(line)) is not None and more[2] is None:
        used.update(more[1].split())
        line = next(lines, "")
    if line != "Subject To\n":
        return False

    names: set[str] = set()
    rows = 0
    for line in lines:
        row = row_line(line)
        if row is None:
            break
        names.add(row[1])
        rows += 1
        used.update(row[2].split())
        closed = row[3]
        while closed is None:
            more = cont_line(next(lines, ""))
            if more is None:
                return False
            used.update(more[1].split())
            closed = more[2]
    if line != "Binary\n":
        return False

    declared: set[str] = set()
    count = 0
    for line in lines:
        var = binary_line(line)
        if var is None:
            break
        declared.add(var[1])
        count += 1
    # Nothing may follow End, and every line must end in a bare \n: reading
    # translates CR and CRLF line ends, and file.newlines records them.
    if line != "End\n" or next(lines, None) is not None or file.newlines not in (None, "\n"):
        return False
    used = {token for token in used if token[0].isalpha()}
    return len(names) == rows and len(declared) == count and used == declared


def _check_lines(lines: Iterator[list[str]]) -> list[str]:
    diags: list[str] = []
    tokens: list[str] = []
    i = _refill(tokens, 0, lines)

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
    i = _parse_expression(tokens, i, lines, used, diags, "objective")

    if not (i < len(tokens) and tokens[i].lower() == "subject"
            and i + 1 < len(tokens) and tokens[i + 1].lower() == "to"):
        diags.append("expected 'Subject To' after the objective")
        return diags
    i += 2

    row_names: set[str] = set()
    while True:
        if i + _LOOKAHEAD > len(tokens):
            i = _refill(tokens, i, lines)
        if not (i < len(tokens) and tokens[i].lower() not in ("binary", "binaries", "end")):
            break
        if not (_NAME_RE.match(tokens[i]) and i + 1 < len(tokens) and tokens[i + 1] == ":"):
            diags.append(f"constraint section: expected 'name:', found {tokens[i]!r}")
            return diags
        name = tokens[i]
        if name in row_names:
            diags.append(f"duplicate constraint name {name!r}")
        row_names.add(name)
        i += 2
        i = _parse_expression(tokens, i, lines, used, diags, f"row {name}")
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
    while True:
        if i + _LOOKAHEAD > len(tokens):
            i = _refill(tokens, i, lines)
        if not (i < len(tokens) and tokens[i].lower() != "end"):
            break
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
