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
variables are declared in the Binary section. ``check_lp_file`` accepts a
file in the writer's own line form by the shape of its lines (the line with
every digit read as 0), matching each distinct shape once against the
writer's forms; any other file it parses token by token, and that parse
alone words the diagnostics.

Neither direction holds the model in memory: ``write_lp_model`` renders the
rows as text one block at a time, a block being one constraint family's rows
for one PoP, manager slot or VNF, and ``check_lp_file`` reads the file 256
KiB at a time. The token parse reads it a line at a time as one stream of
tokens, holding the current token and the next.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator

from .topology import ProblemInstance


@dataclass(frozen=True)
class LpModel:
    """The instance's integer program, generated on demand.

    Nothing but the instance is stored: variables and objective terms are
    yielded in file order, and ``write_lp_model`` renders the rows a block at
    a time, so a writer needs memory O(1) in rows. Managers are provisioned
    one slot per VNF, which is always enough.
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

    def objective(self) -> Iterator[tuple[float, str]]:
        P = self.instance.pop_count
        M = self.instance.vnf_count
        yield from ((1.0, f"h_{p}") for p in range(P))
        yield from ((1.0, f"x_{m}_{p}") for m in range(M) for p in range(P))


@dataclass(frozen=True)
class LpSummary:
    variables: int
    constraints: int
    family_rows: dict[str, int]

    def line(self) -> str:
        return f"variables={self.variables} constraints={self.constraints}"


def build_lp_model(instance: ProblemInstance) -> LpModel:
    """The instance's model; its rows are rendered when it is written."""
    return LpModel(instance)


def _fmt_num(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _coef(coef: float) -> str:
    """The text before a first term's name: ``- `` when the coefficient is
    negative, then its magnitude and a space unless the magnitude is 1."""
    mag = abs(coef)
    text = "" if mag == 1.0 else f"{_fmt_num(mag)} "
    return f"- {text}" if coef < 0 else text


def _fmt_terms(terms: Iterable[tuple[float, str]]) -> list[str]:
    """Render terms as one or more lines (continuations keep the file diffable)."""
    pieces = [f"{_coef(coef)}{var}" if i == 0 or coef < 0 else f"+ {_coef(coef)}{var}"
              for i, (coef, var) in enumerate(terms)]
    return [" ".join(pieces[start:start + _TERMS_PER_LINE])
            for start in range(0, len(pieces), _TERMS_PER_LINE)]


def _row(name: str, terms: Iterable[tuple[float, str]], close: str) -> str:
    """A row of any length: its terms 8 to a line, then ``close``, the sense
    and right-hand side."""
    return f" {name}: " + "\n      ".join(_fmt_terms(terms)) + f" {close}\n"


def _row_blocks(instance: ProblemInstance) -> Iterator[tuple[str, list[str]]]:
    """The rows as text in file order, as ``(family, rows)`` blocks.

    A block holds the rows of one value of its family's outermost index (one
    PoP, manager slot or VNF), so the writer's memory is bounded by the
    largest block, not the model. Rows of one to three terms are written
    whole from one f-string; the long rows go through ``_row``.
    """
    P = instance.pop_count
    V = M = instance.vnf_count
    params = instance.params
    d = instance.delays
    gso = params.gso_location
    pops = range(P)
    slots = range(M)

    # c2: each PoP in exactly one domain.
    for q in pops:
        yield "c2", [_row(f"c2_{q}", [(1.0, f"r_{q}_{p}") for p in pops], "= 1")]
    # c3: domains only around open orchestrators.
    for q in pops:
        yield "c3", [f" c3_{q}_{p}: r_{q}_{p} - h_{p} <= 0\n" for p in pops]
    # c4: an open orchestrator heads its own PoP, and only then.
    yield "c4", [f" c4_{p}: r_{p}_{p} - h_{p} = 0\n" for p in pops]
    # c5: a manager slot sits on at most one PoP.
    for m in slots:
        yield "c5", [_row(f"c5_{m}", [(1.0, f"x_{m}_{p}") for p in pops], "<= 1")]
    # c6: every VNF run by exactly one manager slot.
    for v in range(V):
        yield "c6", [_row(f"c6_{v}", [(1.0, f"y_{v}_{m}_{p}") for m in slots for p in pops],
                          "= 1")]
    # c7: assignment only to an open slot at that PoP.
    for v in range(V):
        yield "c7", [f" c7_{v}_{m}_{p}: y_{v}_{m}_{p} - x_{m}_{p} <= 0\n"
                     for m in slots for p in pops]
    # c10/c11: slot load within [1, manager capacity].
    for m in slots:
        yield "c10", [_row(f"c10_{m}_{p}", [*((1.0, f"y_{v}_{m}_{p}") for v in range(V)),
                                             (-params.vnfm_capacity, f"x_{m}_{p}")], "<= 0")
                      for p in pops]
    for m in slots:
        yield "c11", [_row(f"c11_{m}_{p}", [(1.0, f"x_{m}_{p}"),
                                             *((-1.0, f"y_{v}_{m}_{p}") for v in range(V))],
                           "<= 0")
                      for p in pops]
    # c12: orchestrators within reach of the GSO (GSO position substituted).
    bound = _fmt_num(params.gso_nfvo_delay_bound)
    yield "c12", [f" c12_{q}: {_coef(d[gso][q])}h_{q} <= {bound}\n"
                  for q in pops if q != gso]
    # c13: member PoPs within reach of their head.
    bound = _fmt_num(params.nfvo_vim_delay_bound)
    for p in pops:
        yield "c13", [f" c13_{p}_{q}: {_coef(d[p][q])}r_{q}_{p} <= {bound}\n"
                      for q in pops if q != p]
    # The families below index (v, m) and then q or (q, p). Their names reuse
    # the index text: "v_m" is formatted once per slot and "q_p" once.
    slot_keys = [[f"{v}_{m}" for m in slots] for v in range(V)]
    grid = [(str(q), f"{q}_{p}", str(p)) for q in pops for p in pops]
    # c14: manager within the VNF's own delay bound (VNF location substituted).
    for keys, vnf in zip(slot_keys, instance.vnfs):
        bound = _fmt_num(vnf.vnfm_delay_bound)
        near = [(q, _coef(d[vnf.location][q])) for q in pops if q != vnf.location]
        yield "c14", [f" c14_{vm}_{q}: {coef}y_{vm}_{q} <= {bound}\n"
                      for vm in keys for q, coef in near]
    # c16: the VNF's location lies in the same domain as its manager.
    for keys, vnf in zip(slot_keys, instance.vnfs):
        yield "c16", [f" c16_{vm}_{qp}: z_{vm}_{qp} - r_{vnf.location}_{p} <= 0\n"
                      for vm in keys for _, qp, p in grid]
    # c17: per-domain VNF count within orchestrator capacity.
    for p in pops:
        yield "c17", [_row(f"c17_{p}", [*((1.0, f"z_{vm}_{q}_{p}") for keys in slot_keys
                                          for vm in keys for q in pops),
                                        (-params.nfvo_capacity, f"h_{p}")], "<= 0")]
    # c18: manager within the VNF's orchestrator delay bound of the head.
    delays = [(f"{q}_{p}", _coef(d[p][q])) for p in pops for q in pops if p != q]
    for keys, vnf in zip(slot_keys, instance.vnfs):
        bound = _fmt_num(vnf.nfvo_vnfm_delay_bound)
        yield "c18", [f" c18_{vm}_{qp}: {coef}z_{vm}_{qp} <= {bound}\n"
                      for vm in keys for qp, coef in delays]
    # c19/c20/c21: pin z to the product of y and r (diagonal included).
    for keys in slot_keys:
        yield "c19", [f" c19_{vm}_{qp}: z_{vm}_{qp} - y_{vm}_{q} <= 0\n"
                      for vm in keys for q, qp, _ in grid]
    for keys in slot_keys:
        yield "c20", [f" c20_{vm}_{qp}: z_{vm}_{qp} - r_{qp} <= 0\n"
                      for vm in keys for _, qp, _ in grid]
    for keys in slot_keys:
        yield "c21", [f" c21_{vm}_{qp}: y_{vm}_{q} + r_{qp} - z_{vm}_{qp} <= 1\n"
                      for vm in keys for q, qp, _ in grid]


# Terms written on one line of a row or the objective.
_TERMS_PER_LINE = 8
# Binary names written at a time.
_BINARY_BLOCK = 2048


def write_lp_model(model: LpModel, path: str | Path) -> LpSummary:
    """Write the model to ``path`` a block of rows at a time; returns what was
    written."""
    family_rows: dict[str, int] = {}
    variables = 0
    with open(path, "w") as out:
        out.write("\\ placement model: minimise orchestrators plus managers\nMinimize\n")
        out.write(" obj: " + "\n      ".join(_fmt_terms(model.objective())) + "\n")
        out.write("Subject To\n")
        for family, rows in _row_blocks(model.instance):
            if not rows:
                continue
            out.write("".join(rows))
            family_rows[family] = family_rows.get(family, 0) + len(rows)
            del rows  # not held while the next block is rendered
        out.write("Binary\n")
        names = model.variables()
        while block := list(islice(names, _BINARY_BLOCK)):
            out.write("".join(f" {name}\n" for name in block))
            variables += len(block)
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


def _token_lines(file: IO[str]) -> Iterator[list[str]]:
    """The tokens of each line that is not a comment."""
    for chunk in file:
        # str.splitlines also breaks at form feeds and other separators that
        # file iteration does not; only a comment's backslash can tell.
        for line in chunk.splitlines() if "\\" in chunk else (chunk,):
            if not line.lstrip().startswith("\\"):
                yield _TOKEN_RE.findall(line)


def check_lp_file(path: str | Path) -> list[str]:
    """Re-parse an exported LP file; returns diagnostics (empty means clean).

    A file in the exact line form ``write_lp_model`` emits is accepted a
    block of lines at a time by the shape of each line; any other file goes
    to the token parse, which reads its tokens as one stream, and every
    diagnostic comes from that parse. Neither holds the file, so memory
    grows only with the sets of row and variable names.
    """
    # A byte that is not UTF-8 reaches the token parse as a stray character.
    with open(path, encoding="utf-8", errors="surrogateescape") as file:
        if _is_clean_export(file):
            return []
        file.seek(0)
        return _check_lines(_token_lines(file))


# The check reads the file in blocks of this many characters, each completed
# to a line end.
_BLOCK = 256 * 1024

# Each digit read as 0, so a line's shape fits a form exactly when the line does.
_SHAPE = bytes.maketrans(b"123456789", b"000000000")
# The writer's line forms by letter: the keywords M, S, N and E, the
# objective J, a row R closed on its line or O continued, a continuation C
# open or K closing its row, and a Binary declaration B. With ASCII digits,
# each accepts a strict subset of what the token parse accepts without a
# diagnostic: numbers and names end where _TOKEN_RE's greedy tokens end, row
# names cannot be keywords, and inf or nan does not match.
_TERMS = rf"(?:{_NUM} )?{_VAR}(?: [+-] (?:{_NUM} )?{_VAR})*"
_CLOSE = rf" (?:<=|>=|=) -?{_NUM}"
_ROW = rf" c\d+(?:_\d+)*: (?:- )?{_TERMS}"
_MORE = rf"      [+-] {_TERMS}"
_FORMS = {"M": "Minimize", "J": rf" obj: (?:- )?{_TERMS}", "S": "Subject To",
          "R": _ROW + _CLOSE, "O": _ROW, "K": _MORE + _CLOSE, "C": _MORE,
          "N": "Binary", "B": f" {_VAR}", "E": "End"}
# The letters must spell M J C* S (R|OC*K)* N B* E. A repeated group would
# hold re's backtracking state for every row, so the rows are read as
# [ROCK]* and checked locally: (R|OC*K)* holds exactly when every O and C is
# followed by C or K and every C and K is preceded by O or C.
_GRAMMAR = rb"MJC*S[ROCK]*NB*E"
_BROKEN_ROW = rb"[OC][^CK]|[^OC][CK]"


def _is_clean_export(file: IO[str]) -> bool:
    """True when the file is in the writer's line form with no repeated row
    name or declaration and the used variables equal the declared ones.

    False means only that this check cannot tell: the token parse decides.
    """
    # A form feed or other line separator inside a comment line would end the
    # comment for the token parse.
    comment = file.readline()
    if not (comment.startswith("\\") and len(comment.splitlines()) == 1):
        return False
    # Compiled on the first check, not at import; re caches them after that.
    forms = [(ord(letter), re.compile(form.encode()).fullmatch)
             for letter, form in _FORMS.items()]
    row_names = re.compile(rb"\n (c[\d_]+):").findall
    variables = re.compile(rb"[hrxyz]_[\d_]+").findall
    letter_of: dict[bytes, int] = {}
    letters = bytearray()
    names: set[bytes] = set()
    used: set[bytes] = set()
    declared: set[bytes] = set()
    declaring = False
    while block := file.read(_BLOCK):
        block += file.readline()
        if not (block.isascii() and block.endswith("\n")):
            return False
        data = block.encode()
        shapes = data.translate(_SHAPE).split(b"\n")
        del shapes[-1]  # empty: the block ends at a line end
        for shape in set(shapes).difference(letter_of):
            letter = next((letter for letter, fits in forms if fits(shape)), None)
            if letter is None:
                return False
            letter_of[shape] = letter
        letters += bytes(map(letter_of.__getitem__, shapes))
        # Every line fits a form, so these tokens are exactly the row names,
        # the variables used and the declarations.
        if not declaring:
            head, binary, data = data.partition(b"Binary\n")
            names.update(row_names(b"\n" + head))  # a block starts a line
            used.update(variables(head))
            declaring = bool(binary)
        declared.update(data.split())
    # Every line must end in a bare \n: reading translates CR and CRLF line
    # ends, and file.newlines records them. The rows lie between S and N.
    if (file.newlines not in (None, "\n") or re.fullmatch(_GRAMMAR, letters) is None
            or re.compile(_BROKEN_ROW).search(letters, letters.index(b"S"))):
        return False
    declared.discard(b"End")
    return (len(names) == letters.count(b"R") + letters.count(b"O")
            and len(declared) == letters.count(b"B") and used == declared)


def _check_lines(lines: Iterator[list[str]]) -> list[str]:
    """The token parse of a file's token lines; returns its diagnostics.

    It holds the current token and the next one, and "" stands for the end
    of the file, which no token is.
    """
    diags: list[str] = []
    used: set[str] = set()
    tokens = chain.from_iterable(lines)
    tok, nxt = next(tokens, ""), next(tokens, "")

    def expression(where: str) -> None:
        """Consume ``[sign] [num] var {(+|-) [num] var}``."""
        nonlocal tok, nxt
        first = True
        while tok and tok not in ("<=", ">=", "="):
            if tok in ("+", "-"):
                tok, nxt = nxt, next(tokens, "")
            elif not first:
                return
            first = False
            if _NUM_RE.match(tok):
                tok, nxt = nxt, next(tokens, "")
            # Every name in the naming scheme is a name, so test the scheme first.
            if not _VAR_RE.match(tok):
                if not _NAME_RE.match(tok):
                    diags.append(f"{where}: expected a variable, found {tok or 'end of file'!r}")
                    return
                diags.append(f"{where}: variable name {tok!r} does not match the "
                             "h/r/x/y/z naming scheme")
            used.add(tok)
            tok, nxt = nxt, next(tokens, "")

    if tok.lower() not in ("minimize", "maximize"):
        return ["expected Minimize or Maximize at the start"]
    tok, nxt = nxt, next(tokens, "")
    # Objective: optional "name :" then an expression.
    if nxt == ":" and _NAME_RE.match(tok):
        tok, nxt = next(tokens, ""), next(tokens, "")
    expression("objective")
    if not (tok.lower() == "subject" and nxt.lower() == "to"):
        diags.append("expected 'Subject To' after the objective")
        return diags
    tok, nxt = next(tokens, ""), next(tokens, "")

    row_names: set[str] = set()
    while tok and tok.lower() not in ("binary", "binaries", "end"):
        if not (nxt == ":" and _NAME_RE.match(tok)):
            diags.append(f"constraint section: expected 'name:', found {tok!r}")
            return diags
        if tok in row_names:
            diags.append(f"duplicate constraint name {tok!r}")
        row_names.add(tok)
        where = f"row {tok}"
        tok, nxt = next(tokens, ""), next(tokens, "")
        expression(where)
        if tok not in ("<=", ">=", "="):
            diags.append(f"{where}: missing relational operator")
            return diags
        tok, nxt = nxt, next(tokens, "")
        if tok in ("+", "-"):
            tok, nxt = nxt, next(tokens, "")
        if not _NUM_RE.match(tok):
            diags.append(f"{where}: missing numeric right-hand side")
            return diags
        tok, nxt = nxt, next(tokens, "")

    if tok.lower() not in ("binary", "binaries"):
        diags.append("expected a Binary section after the constraints")
        return diags
    tok, nxt = nxt, next(tokens, "")
    declared: set[str] = set()
    while tok and tok.lower() != "end":
        if not _NAME_RE.match(tok):
            diags.append(f"binary section: expected a variable name, found {tok!r}")
            return diags
        if not _VAR_RE.match(tok):
            diags.append(f"binary section: variable name {tok!r} does not match the "
                         "h/r/x/y/z naming scheme")
        if tok in declared:
            diags.append(f"binary section: duplicate declaration of {tok!r}")
        declared.add(tok)
        tok, nxt = nxt, next(tokens, "")
    if not tok:
        diags.append("expected End after the Binary section")
        return diags
    if nxt:
        diags.append(f"unexpected trailing content after End: {nxt!r}")

    for name in sorted(used - declared):
        diags.append(f"variable {name!r} is used but not declared Binary")
    for name in sorted(declared - used):
        diags.append(f"variable {name!r} is declared but never used")
    return diags
