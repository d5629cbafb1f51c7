"""The LP writer, the grammar check, and a solver cross-check.

Rows are read back from the exported file by ``conftest._parse_lp``, a small
parser that shares nothing with the package's reader, so the counts and
names checked here are those of the bytes written. The cross-check at the
bottom hands the parsed matrix to scipy's MILP solver; its optimum must
match the exact enumerative solver on the same instance.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from manoplace import (
    GeneratorConfig,
    OracleBudget,
    OracleStatus,
    check_lp_file,
    export_lp,
    generate_instance,
    lp_export,
    solve_exact,
)
from manoplace.lp_export import _check_lines, _is_clean_export, _token_lines, build_lp_model

from conftest import _parse_lp, make_instance

TINY = [[0, 10], [10, 0]]


def tiny_instance():
    return make_instance(TINY, vnf_locs=(1,))


def p8_v12_instance():
    return generate_instance(GeneratorConfig(pop_count=8, vnf_count=12, seed=1))


def edge_coefficients_instance():
    """Coefficients at the writer's special cases: an off-diagonal delay of 0,
    delays of exactly 1 (a bare name) and 12.5, a manager capacity of 1, and
    fractional delay bounds."""
    return make_instance([[0, 0, 12.5], [0, 0, 1.0], [12.5, 1.0, 0]], vnf_locs=(1, 2),
                         nfvo_capacity=3, vnfm_capacity=1, gso_nfvo_bound=12.5,
                         nfvo_vim_bound=1.0, vnf_bounds=[(22.5, 37.25), (1.0, 0.5)])


def open_lp(path):
    """``path`` opened as ``check_lp_file`` opens it: a byte that is not
    UTF-8 is read as a stray character."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def check_against_the_token_parse(path, fast):
    """``check_lp_file`` equals the token parse, the reference, on ``path``;
    ``fast`` says whether the check by line shape must accept the file."""
    with open_lp(path) as file:
        reference = _check_lines(_token_lines(file))
    with open_lp(path) as file:
        assert _is_clean_export(file) is fast
    diags = check_lp_file(path)
    assert diags == reference
    return diags


# What a character edit inserts: keywords, numbers, names, signs, line
# breaks, form feeds and comments.
INSERTS = ("Minimize", "Maximize", "Subject", "To", "Subject To", "Binary", "Binaries", "End",
           "obj:", "0", "7", "2.5", ".5", "1e3", "1e", "inf", "h_0", "r_1_0", "x_0_0", "q_0",
           "c2_0", "c2_0:", "y", "+", "-", "<=", ">=", "=", ":", "\n", "\r", "\r\n", "\f",
           "\\ note\n", "\n\\ note", "\\")
RELATION = re.compile(r" (<=|>=|=) ")


def character_edit(text, rng):
    """``text`` with an insertion, a deleted span, or the tail cut off."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        pad = rng.choice(("", " ", "\n"))
        return text[:at] + pad + rng.choice(INSERTS) + pad + text[at:]
    if kind == 1:
        return text[:at] + text[at + rng.randrange(1, 20):]
    return text[:at]


def line_edit(text, rng):
    """``text`` with a digit, sign or relation swapped, or with a line
    duplicated, deleted or swapped with another: edits that leave every line,
    or nearly every one, in the writer's line form."""
    kind = rng.randrange(6)
    if kind < 2:
        chars = "0123456789" if kind == 0 else "+-"
        k = rng.randrange(len(text))
        while text[k] not in chars:
            k = rng.randrange(len(text))
        return text[:k] + rng.choice(chars.replace(text[k], "")) + text[k + 1:]
    if kind == 2:
        old = RELATION.search(text, rng.randrange(len(text))) or RELATION.search(text)
        new = rng.choice([rel for rel in ("<=", ">=", "=") if rel != old[1]])
        return f"{text[:old.start()]} {new} {text[old.end():]}"
    lines = text.splitlines(keepends=True)
    i = rng.randrange(1, len(lines))  # the comment line stays first
    if kind == 3:
        lines.insert(rng.randrange(1, len(lines) + 1), lines[i])
    elif kind == 4:
        del lines[i]
    else:
        j = rng.randrange(1, len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def clean_check_peak(path):
    """The traced peak of ``check_lp_file`` on ``path``, which must be clean."""
    tracemalloc.start()
    try:
        assert check_lp_file(path) == []
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def family_counts(rows):
    """Rows per family, as read back from a file."""
    return dict(Counter(name.split("_", 1)[0] for name, *_ in rows))


class TestModelCounts:
    # Hand-derived index-set sizes for |P| = 2, |V| = 1 (so |M| = 1, GSO at
    # PoP 0, the VNF at PoP 1):
    #   variables: h (P) + r (P^2) + x (M*P) + y (V*M*P) + z (V*M*P^2)
    #            = 2 + 4 + 2 + 2 + 4 = 14
    #   rows: c2 P, c3 P^2, c4 P, c5 M, c6 V, c7 VMP, c10 MP, c11 MP,
    #         c12 P-1, c13 P(P-1), c14 VM(P-1), c16 VMP^2, c17 P,
    #         c18 VMP(P-1), c19..c21 VMP^2 each = 40 total
    FAMILIES = {
        "c2": 2, "c3": 4, "c4": 2, "c5": 1, "c6": 1, "c7": 2,
        "c10": 2, "c11": 2, "c12": 1, "c13": 2, "c14": 1,
        "c16": 4, "c17": 2, "c18": 2, "c19": 4, "c20": 4, "c21": 4,
    }

    @staticmethod
    def closed_forms(P, V):
        """The comment's formulas: (variables, rows per family)."""
        M = V
        rows = {"c2": P, "c3": P * P, "c4": P, "c5": M, "c6": V, "c7": V * M * P,
                "c10": M * P, "c11": M * P, "c12": P - 1, "c13": P * (P - 1),
                "c14": V * M * (P - 1), "c16": V * M * P * P, "c17": P,
                "c18": V * M * P * (P - 1), "c19": V * M * P * P, "c20": V * M * P * P,
                "c21": V * M * P * P}
        return P + P * P + M * P + V * M * P + V * M * P * P, rows

    def test_frozen_counts(self, tmp_path):
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        _objective, rows, binaries = _parse_lp(path)
        assert len(binaries) == 14
        assert len(rows) == 40
        assert family_counts(rows) == self.FAMILIES
        assert self.closed_forms(2, 1) == (14, self.FAMILIES)

    def test_summary_line(self, tmp_path):
        summary = export_lp(tiny_instance(), tmp_path / "tiny.lp")
        assert summary.line() == "variables=14 constraints=40"
        assert summary.family_rows == self.FAMILIES

    @pytest.mark.parametrize("pops", range(2, 7))
    def test_summary_and_file_match_the_closed_forms(self, tmp_path, pops):
        # The summary counts rows a block at a time; the file is read back
        # by the independent parser. Both must equal the formulas.
        for vnfs in range(1, 9):
            inst = generate_instance(GeneratorConfig(pop_count=pops, vnf_count=vnfs,
                                                     seed=pops * 10 + vnfs))
            path = tmp_path / f"p{pops}_v{vnfs}.lp"
            summary = export_lp(inst, path)
            _objective, rows, binaries = _parse_lp(path)
            variables, families = self.closed_forms(pops, vnfs)
            assert summary.family_rows == family_counts(rows) == families, (pops, vnfs)
            assert summary.variables == len(binaries) == variables
            assert summary.constraints == len(rows) == sum(families.values())

    def test_one_pop_writes_no_empty_family(self, tmp_path):
        # With one PoP the delay families c12, c13, c14 and c18 have no rows,
        # so the summary names them no more than the file does.
        path = tmp_path / "one.lp"
        summary = export_lp(make_instance([[0]], vnf_locs=(0, 0)), path)
        _objective, rows, _binaries = _parse_lp(path)
        assert summary.family_rows == family_counts(rows)
        assert not {"c12", "c13", "c14", "c18"} & set(summary.family_rows)
        assert check_lp_file(path) == []

    def test_linearization_rows_cover_the_diagonal(self, tmp_path):
        # z_{v,m,p,p} must be pinned to y*r like every other entry, or the
        # capacity row can be bypassed by zeroing the diagonal. Guard the
        # full index set of the pinning families.
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        names = {name for name, *_ in _parse_lp(path)[1]}
        for fam in ("c19", "c20", "c21"):
            for q in range(2):
                for p in range(2):
                    assert f"{fam}_0_0_{q}_{p}" in names

    def test_gso_row_excluded_from_c12(self, tmp_path):
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        c12 = [row for row in _parse_lp(path)[1] if row[0].startswith("c12_")]
        assert c12 == [("c12_1", {"h_1": 10.0}, "<=", 80.0)]

    def test_objective_is_h_plus_x(self, tmp_path):
        model = build_lp_model(tiny_instance())
        assert sorted(model.objective()) == [
            (1.0, "h_0"), (1.0, "h_1"), (1.0, "x_0_0"), (1.0, "x_0_1")]
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        assert _parse_lp(path)[0] == {"h_0": 1.0, "h_1": 1.0, "x_0_0": 1.0, "x_0_1": 1.0}


class TestGrammarCheck:
    def test_exported_files_are_clean(self, tmp_path, line3, two_clusters):
        for i, inst in enumerate((tiny_instance(), line3, two_clusters, p8_v12_instance())):
            path = tmp_path / f"m{i}.lp"
            export_lp(inst, path)
            assert check_against_the_token_parse(path, fast=True) == []

    @pytest.mark.parametrize("corrupt, fragment", [
        (lambda t: t.replace(" c2_1:", " c2_0:", 1), "duplicate constraint"),
        (lambda t: t.replace("10 h_1 <= 80", "10 h_9 <= 80"), "not declared"),
        (lambda t: t.replace("Binary\n", "Binary\n q_0\n"), "naming scheme"),
        (lambda t: t.replace("Binary\n", "Binary\n h_0\n"), "duplicate declaration"),
        (lambda t: t.replace("r_0_0 + r_0_1 = 1", "r_0_0 + r_0_1 ="), "right-hand side"),
        (lambda t: t.replace("Subject To\n", ""), "Subject To"),
        (lambda t: t.replace("End", "End\nextra"), "trailing"),
        (lambda t: t.replace("Minimize\n", ""), "Minimize"),
        (lambda t: t.replace(" c5_0: x_0_0 + x_0_1 <= 1\n", " c5_0: x_0_0 + <= 1\n"),
         "expected a variable"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8.
        (lambda t: t.replace("Binary\n", "Binary\n \udcff\n"), "found '\\udcff'"),
    ])
    def test_corruptions_are_detected(self, tmp_path, corrupt, fragment):
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        path.write_bytes(corrupt(path.read_text()).encode(errors="surrogateescape"))
        diags = check_against_the_token_parse(path, fast=False)
        assert any(fragment in d for d in diags), diags

    def test_unused_declaration_is_reported(self, tmp_path):
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        text = path.read_text().replace("Binary\n", "Binary\n z_7_7_7_7\n")
        path.write_text(text)
        diags = check_against_the_token_parse(path, fast=False)
        assert any("never used" in d for d in diags), diags

    # Edits per export. The token parse takes about 1 ms per tiny edit and
    # 100 ms per two_clusters edit (300 KB), so the larger exports get fewer.
    EDITS = {"tiny": 1600, "line3": 100, "p3_v4": 40, "two_clusters": 4}
    # sha256 of every edited export's diagnostics, recorded from the token
    # parse that read its tokens through a window refilled a line at a time.
    EDITED_DIGEST = "24941e836ca0a1d8786c52a45a92e46b0cecbb252cd6c1ef0966d73a33fe77ce"

    def test_edited_exports_keep_their_diagnostics(self, tmp_path, line3, two_clusters):
        instances = {"tiny": tiny_instance(), "line3": line3,
                     "p3_v4": generate_instance(GeneratorConfig(pop_count=3, vnf_count=4, seed=1)),
                     "two_clusters": two_clusters}
        rng = random.Random(22)
        path = tmp_path / "edited.lp"
        corpus = []
        accepted = Counter()
        for name, inst in instances.items():
            export_lp(inst, path)
            text = path.read_text()
            for n in range(self.EDITS[name]):
                edit = line_edit if n % 2 else character_edit
                path.write_bytes(edit(text, rng).encode())
                with open_lp(path) as file:
                    reference = _check_lines(_token_lines(file))
                with open_lp(path) as file:
                    fast = _is_clean_export(file)
                assert check_lp_file(path) == reference, (name, n)
                accepted[edit.__name__] += fast
                corpus.append(reference)
        edits = sum(self.EDITS.values()) // 2
        print(f"the line-shape check accepted {accepted['line_edit']} of {edits} line edits "
              f"and {accepted['character_edit']} of {edits} character edits")
        assert 0 < accepted["line_edit"] < edits
        assert hashlib.sha256(json.dumps(corpus).encode()).hexdigest() == self.EDITED_DIGEST

    def test_one_token_per_line_is_clean(self, tmp_path, line3):
        # Lines break between a row name and its colon and between Subject
        # and To, where the parse needs the token after the current one.
        path = tmp_path / "line3.lp"
        export_lp(line3, path)
        comment, rest = path.read_text().split("\n", 1)
        path.write_text(comment + "\n" + "\n".join(rest.replace(":", " :").split()) + "\n")
        assert check_against_the_token_parse(path, fast=False) == []

    def test_long_rows_span_many_lines(self, tmp_path):
        # c17 rows hold V*V*P + 1 terms: here 433 terms over 55 lines.
        path = tmp_path / "long.lp"
        export_lp(generate_instance(GeneratorConfig(pop_count=3, vnf_count=12, seed=6)), path)
        text = path.read_text()
        c17 = text[text.index(" c17_0:"):text.index(" c17_1:")]
        assert c17.count("\n") == 55
        assert check_against_the_token_parse(path, fast=True) == []
        path.write_text(text.replace(" c18_", " c17_0: h_0 <= 1\n c18_", 1))
        assert check_against_the_token_parse(path, fast=False) == [
            "duplicate constraint name 'c17_0'"]

    @pytest.mark.parametrize("block", [1, 7, 97])
    def test_blocks_of_a_few_characters(self, tmp_path, monkeypatch, line3, two_clusters, block):
        # Each block is completed to a line end, so a block of one character
        # holds one line, and a long row's lines fall into different blocks.
        monkeypatch.setattr(lp_export, "_BLOCK", block)
        long_rows = generate_instance(GeneratorConfig(pop_count=3, vnf_count=12, seed=6))
        for i, inst in enumerate((tiny_instance(), line3, two_clusters, p8_v12_instance(),
                                  long_rows)):
            path = tmp_path / f"m{i}.lp"
            export_lp(inst, path)
            assert check_against_the_token_parse(path, fast=True) == []

    def test_numbers_may_start_at_the_point(self, tmp_path):
        # Both parses share one number syntax, so a point-first coefficient
        # and right-hand side are clean in the check by line shape too.
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        path.write_text(path.read_text().replace("10 h_1 <= 80", ".5 h_1 <= .8e2"))
        assert check_against_the_token_parse(path, fast=True) == []

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: "\f" + t,
        lambda t: t.replace("Subject To\n", "Subject To\n\\ a note\n"),
        lambda t: t.replace("Binary\n", "Binary\n\n"),
        lambda t: t + "\\ written by hand\n",
        lambda t: t.replace("Minimize", "Maximize").replace("Binary", "Binaries"),
        lambda t: t.replace(" r_0_0 - h_0 <= 0", " r_0_0 - h_0\n      <= 0", 1),
        lambda t: t.replace("10 h_1 <= 80", "inf h_1 <= 80"),
        lambda t: t.replace("\\ placement", "\\ placement\fBinary", 1),
        lambda t: t.replace("End\n", "End"),
        lambda t: t.replace("h_1", "h_\u0661"),
        lambda t: t.replace(" c4_0:", "Binary\n c4_0:"),
        lambda t: t.replace(" x_0_0\n", "Binary\n x_0_0\n"),
        lambda t: t.replace(" + x_0_0 + x_0_1\n", "\n      + x_0_0 + x_0_1 <= 1\n", 1),
        lambda t: t.replace("Subject To\n", "Subject To\n      + h_0\n"),
        lambda t: t + "End",
    ], ids=["crlf", "form-feed-comment", "comment-mid-file", "blank-line",
            "comment-after-end", "maximize-binaries", "row-broken-at-operator",
            "inf-coefficient", "form-feed-in-comment", "no-final-newline",
            "non-ascii-digit", "binary-among-rows", "second-binary",
            "closed-continuation-under-objective", "continuation-after-subject-to",
            "end-twice-without-final-newline"])
    def test_other_forms_are_left_to_the_token_parse(self, tmp_path, edit):
        path = tmp_path / "tiny.lp"
        export_lp(tiny_instance(), path)
        text = edit(path.read_text())
        path.write_bytes(text.encode())
        check_against_the_token_parse(path, fast=False)


class TestWriter:
    # sha256 of each exported file, recorded when the whole model was built
    # in memory before writing; "edges" was recorded from the row-at-a-time
    # writer, before rows were rendered as text a block at a time. No writer
    # may change a byte.
    GOLDEN = {
        "tiny": "9986324abd5feeec568848eece032a6b3ecc69f5e97a2b419379c0c650b98dd2",
        "line3": "0919d6733970daa88e12af33d467099e12516d9f981261b8659048aa6b2989d5",
        "two_clusters": "a8602533aa3de775bdfef5b19ed6bf276ab0fa8ab7a2631fafe12b3757c089b2",
        "p8_v12": "2fc71a8e6ed229e041c96b5314b1f535bf1fd62ca8d2a42a6454d0dcb2729d39",
        "edges": "95269ab32fc39e5f148a9ff9c87fdfb0a357892fca110b9380dd90e3ec04d997",
    }

    def test_exported_bytes_match_the_recorded_digests(self, tmp_path, line3, two_clusters):
        instances = {"tiny": tiny_instance(), "line3": line3, "two_clusters": two_clusters,
                     "p8_v12": p8_v12_instance(), "edges": edge_coefficients_instance()}
        for name, inst in instances.items():
            path = tmp_path / f"{name}.lp"
            export_lp(inst, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[name], name

    def test_export_memory_is_a_small_fraction_of_the_file(self, tmp_path):
        # Rows go to the file a block at a time: the traced peak is the
        # longest row's terms (a c17 row, 1,153 terms) and the file buffer,
        # not the 47,455 rows of this 2.3 MB model.
        inst = p8_v12_instance()
        path = tmp_path / "p8_v12.lp"
        tracemalloc.start()
        try:
            export_lp(inst, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * path.stat().st_size

    def test_check_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # The check holds the row names, the variables used and the
        # declarations, and reads a block of 256 KiB at a time: 7.5 MB traced
        # for this 2.3 MB file, 47,455 rows. Joining one letter per line over
        # the whole file, or matching the rows' letters as a repeated group,
        # would add about 6 MB.
        path = tmp_path / "p8_v12.lp"
        export_lp(p8_v12_instance(), path)
        assert clean_check_peak(path) < 3.75 * path.stat().st_size

    def test_token_parse_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # CRLF line ends send the same model to the token parse, which holds
        # the same name sets and a window of tokens: 7.5 MB traced for this
        # 2.3 MB file.
        path = tmp_path / "p8_v12.lp"
        export_lp(p8_v12_instance(), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with open_lp(path) as file:
            assert not _is_clean_export(file)
        assert clean_check_peak(path) < 3.75 * path.stat().st_size


# ---------------------------------------------------------------------------
# Independent re-parse plus MILP solve


def _solve_lp(path):
    from scipy.optimize import Bounds, LinearConstraint, milp

    objective, rows, binaries = _parse_lp(path)
    index = {name: i for i, name in enumerate(binaries)}
    c = np.zeros(len(binaries))
    for name, coef in objective.items():
        c[index[name]] = coef
    a = np.zeros((len(rows), len(binaries)))
    lb = np.full(len(rows), -np.inf)
    ub = np.full(len(rows), np.inf)
    for i, (_name, expr, sense, rhs) in enumerate(rows):
        for name, coef in expr.items():
            a[i][index[name]] = coef
        if sense in ("<=", "="):
            ub[i] = rhs
        if sense in (">=", "="):
            lb[i] = rhs
    res = milp(c=c, constraints=LinearConstraint(a, lb, ub),
               integrality=np.ones(len(binaries)), bounds=Bounds(0, 1))
    return res


class TestSolverCrossCheck:
    def instances(self, line3, two_clusters):
        yield line3
        yield two_clusters
        for seed in (0, 1, 2):
            yield generate_instance(GeneratorConfig(pop_count=4, vnf_count=5,
                                                    seed=seed))

    def test_milp_matches_exact_solver(self, tmp_path, line3, two_clusters):
        for i, inst in enumerate(self.instances(line3, two_clusters)):
            path = tmp_path / f"x{i}.lp"
            export_lp(inst, path)
            res = _solve_lp(path)
            oracle = solve_exact(inst, OracleBudget())
            assert oracle.status is OracleStatus.OPTIMAL
            assert res.success, res.message
            assert round(res.fun) == oracle.objective, f"instance {i}"

    def test_milp_agrees_on_infeasibility(self, tmp_path):
        inst = make_instance([[0, 200], [200, 0]], vnf_locs=(1,))
        path = tmp_path / "inf.lp"
        export_lp(inst, path)
        res = _solve_lp(path)
        assert not res.success
        oracle = solve_exact(inst, OracleBudget())
        assert oracle.status is OracleStatus.INFEASIBLE
