"""Shell language, REPL, script runner and object file tests."""

import io

import pytest

from polylat.errors import ObjectFileError, ShellError
from polylat.exactmath import Matrix, Vector
from polylat.geomcore import cube, from_points
from polylat.objectfile import load_object, save_object
from polylat.rules import fresh_rulebase
from polylat.shell import (
    Environment,
    eval_text,
    format_value,
    input_incomplete,
    main,
    parse,
    repl,
    schedule_print,
    unparse,
)

M_TEXT = """M = <<"."
0 1 0 0 0 0
0 0 1 0 0 0
0 0 0 1 0 0
0 0 0 0 1 0
0 0 0 0 0 1
1 0 2 1 1 2
1 2 0 2 1 1
1 1 2 0 2 1
1 1 1 2 0 2
1 2 1 1 2 0
.
C = polytope(points=M)
"""


def run(text, env=None):
    out = io.StringIO()
    env = env or Environment(rulebase=fresh_rulebase(), out=out)
    env.out = out
    eval_text(text, env)
    return out.getvalue(), env


def _iter_sections(text):
    from polylat.objectfile import _sections
    return _sections(text)


class TestParser:
    def test_parse_error_reports_line(self):
        with pytest.raises(ShellError) as exc:
            parse("P = cube(3)\nprint )")
        assert exc.value.line == 2

    def test_unterminated_string(self):
        with pytest.raises(ShellError):
            parse('print "oops')

    def test_statement_separators(self):
        assert len(parse("a = 1; b = 2\nc = 3")) == 3

    def test_arrow_is_dot_alias(self):
        a = parse("print P->F_VECTOR")
        b = parse("print P.F_VECTOR")
        assert a == b

    def test_grammar_round_trip(self):
        corpus = [
            "P = cube(3)",
            "print P.F_VECTOR",
            "print join, x",
            'print P.get_schedule("F_VECTOR")',
            "x = vector(9, 13, 13, 13, 13, 13)",
            "print cross(5).F_VECTOR - C.F_VECTOR",
            "B = minor(M, s, All)",
            "foreach s in all_subsets_of_k(6, 0..9) {\n"
            "  B = minor(M, s, All)\n"
            "  if det(B) {\n    print lin_solve(transpose(B), x)\n  }\n}",
            "g.contract_edge(12, 13)",
            "g.squeeze",
            "print C.VERTICES_IN_FACETS[8]",
            "n = n + 1",
            "y = -x",
            'print "literal with \\"quotes\\" and \\n newline"',
            M_TEXT,
        ]
        for text in corpus:
            first = parse(text)
            second = parse(unparse(first))
            assert first == second, text

    def test_incomplete_detection(self):
        assert input_incomplete('M = <<"."')
        assert input_incomplete('M = <<"."\n1 0')
        assert not input_incomplete('M = <<"."\n1 0\n.')
        assert input_incomplete("foreach s in xs {")
        assert not input_incomplete("foreach s in xs { }")
        assert not input_incomplete("print )")  # broken, but complete


class TestTranscripts:
    def test_cube_f_vector(self):
        out, _ = run("P = cube(3); print P.F_VECTOR")
        assert out == "8 12 6\n"

    def test_facets_printout(self):
        out, _ = run("P = cube(3)\nprint P.FACETS")
        assert out.splitlines() == [
            "1 -1 0 0", "1 0 -1 0", "1 0 0 -1",
            "1 0 0 1", "1 0 1 0", "1 1 0 0"]

    def test_list_properties_fresh_cube(self):
        out, _ = run("P = cube(3); print P.list_properties")
        assert out == "AMBIENT_DIM, DIM, FACETS, VERTICES_IN_FACETS, BOUNDED\n"

    def test_schedule_listing_and_apply(self):
        out, _ = run(
            'P = cube(3)\n'
            's = P.get_schedule("F_VECTOR")\n'
            'print s\n'
            's.apply(P)\n'
            'print P.list_properties')
        lines = out.splitlines()
        assert lines[0] == "HASSE_DIAGRAM : VERTICES_IN_FACETS"
        assert lines[1] == "F_VECTOR, F2_VECTOR : HASSE_DIAGRAM"
        assert lines[2].endswith(
            "BOUNDED, HASSE_DIAGRAM, F_VECTOR, F2_VECTOR")

    def test_schedule_already_computed(self):
        out, _ = run('P = cube(3); print P.get_schedule("FACETS")')
        assert out == "(already computed)\n"

    def test_type_changes_after_reflexive(self):
        out, _ = run(
            "P = cube(3)\nprint P.type.full_name\n"
            "print P.REFLEXIVE\nprint P.type.full_name")
        assert out.splitlines() == [
            "Polytope<Rational>", "1", "LatticePolytope"]

    def test_lattice_transcript_values(self):
        out, _ = run(
            "P = cube(3)\n"
            "print P.LATTICE\nprint P.N_LATTICE_POINTS\n"
            "print P.INTERIOR_LATTICE_POINTS\n"
            "print P.H_STAR_VECTOR\nprint P.LATTICE_VOLUME\n"
            "print P.LATTICE_DEGREE\nprint P.LATTICE_CODEGREE\n"
            "print P.SMOOTH")
        assert out.splitlines() == [
            "1", "27", "1 0 0 0", "1 23 23 1", "48", "3", "1", "1"]

    def test_heredoc_cone_and_f_vector_difference(self):
        out, _ = run(M_TEXT + "print cross(5).F_VECTOR - C.F_VECTOR")
        assert out == "0 0 0 5 5\n"

    def test_incidence_indexing_prints_sets(self):
        out, _ = run(M_TEXT + "print C.VERTICES_IN_FACETS[26]")
        assert out == "{0 1 2 3 4}\n"

    def test_graph_workflow(self):
        out, _ = run(
            M_TEXT +
            "print isomorphic(C.GRAPH.ADJACENCY, cross(5).GRAPH.ADJACENCY)\n"
            "g = graph(cross(5).DUAL_GRAPH)\n"
            "g.contract_edge(0, 1)\n"
            "g.squeeze\n"
            "print isomorphic(g, g)")
        assert out.splitlines() == ["1", "1"]

    def test_witness_scan_script(self):
        script = (
            M_TEXT +
            "x = vector(9, 13, 13, 13, 13, 13)\n"
            "n = 0\n"
            "foreach s in all_subsets_of_k(6, 0..9) {\n"
            "  B = minor(M, s, All)\n"
            "  if det(B) {\n"
            "    print lin_solve(transpose(B), x)\n"
            "    n = n + 1\n"
            "  }\n"
            "}\n"
            'print n, " nonsingular systems"')
        out, _ = run(script)
        lines = out.splitlines()
        assert len(lines) == 186
        assert lines[-1] == "185 nonsingular systems"

    def test_trivial_representation_of_generator(self):
        out, _ = run(
            M_TEXT +
            "x = vector(0, 1, 0, 0, 0, 0)\n"
            "good = 0\n"
            "foreach s in all_subsets_of_k(6, 0..9) {\n"
            "  B = minor(M, s, All)\n"
            "  if det(B) {\n"
            "    y = lin_solve(transpose(B), x)\n"
            "    if is_integral(y) {\n"
            "      found = 1\n"
            "      if has_negative(y) { found = 0 }\n"
            "      good = good + found\n"
            "    }\n"
            "  }\n"
            "}\n"
            "print good")
        assert int(out.strip()) >= 1

    def test_matrix_builtin(self):
        out, _ = run("print matrix(vector(1, 2), vector(3, 4))")
        assert out == "1 2\n3 4\n"

    def test_rational_literals(self):
        out, _ = run("print vector(1/2, 3, 9/3)")
        assert out == "1/2 3 3\n"

    def test_primitive_scales_rationals(self):
        out, _ = run("print primitive(vector(1/2, 1))\n"
                     "print primitive(vector(0, -4, 6))")
        assert out == "1 2\n0 -2 3\n"

    def test_runtime_error_has_line(self):
        with pytest.raises(ShellError) as exc:
            run("P = cube(3)\nprint P.NOT_A_PROPERTY")
        assert exc.value.line == 2

    def test_unbound_variable(self):
        with pytest.raises(ShellError):
            run("print nothing_here")


class TestFormatting:
    def test_booleans_as_bits(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"

    def test_vector_and_matrix(self):
        assert format_value(Vector([1, 2])) == "1 2"
        assert format_value(Matrix([[1, 2], [3, 4]])) == "1 2\n3 4"

    def test_subset_and_range(self):
        assert format_value((0, 1, 5)) == "{0 1 5}"
        assert format_value(range(0, 10)) == "0..9"

    def test_string_list_comma_joined(self):
        assert format_value(["A", "B"]) == "A, B"

    def test_absent_value(self):
        assert format_value(None) == "undef"


class TestScheduleprint:
    def test_reflexive_schedule_text(self):
        p = cube(3, rulebase=fresh_rulebase())
        text = schedule_print(p, "REFLEXIVE")
        lines = text.splitlines()
        assert lines[-1] == "REFLEXIVE : FACETS, AFFINE_HULL"
        assert "LATTICE : VERTICES, BOUNDED" in lines
        assert any("VERTICES" in l for l in lines[:-1])

    def test_present_property(self):
        p = cube(3, rulebase=fresh_rulebase())
        assert schedule_print(p, "BOUNDED") == "(already computed)"


class TestObjectFile:
    def test_round_trip_cube_with_everything(self, tmp_path):
        rb = fresh_rulebase()
        p = cube(3, rulebase=rb)
        for key in ("F_VECTOR", "REFLEXIVE", "SMOOTH", "H_STAR_VECTOR",
                    "LATTICE_VOLUME", "GRAPH", "N_LATTICE_POINTS"):
            p.request(key)
        path = tmp_path / "cube.poly"
        save_object(p, path)
        q = load_object(path, rulebase=rb)
        assert q.class_tag == p.class_tag
        assert dict(q.store_items()) == dict(p.store_items())
        assert q.list_properties() == p.list_properties()

    def test_sections_written_in_property_order(self, tmp_path):
        rb = fresh_rulebase()
        p = cube(3, rulebase=rb)
        p.get_schedule("F_VECTOR").apply(p)
        path = tmp_path / "cube.poly"
        save_object(p, path)
        text = path.read_text()
        order = [name for name, _ in _iter_sections(text)]
        assert order == ["CLASS", "AMBIENT_DIM", "DIM", "FACETS",
                         "VERTICES_IN_FACETS", "BOUNDED", "HASSE_DIAGRAM",
                         "F_VECTOR", "F2_VECTOR"]

    def test_load_skips_recomputation(self, tmp_path):
        rb = fresh_rulebase()
        p = cube(3, rulebase=rb)
        p.request("F_VECTOR")
        path = tmp_path / "cube.poly"
        save_object(p, path)
        fired = []
        rb.trace_hooks.append(lambda rule, obj: fired.append(rule.id))
        q = load_object(path, rulebase=rb)
        assert q.request("F_VECTOR") == Vector([8, 12, 6])
        assert fired == []

    def test_hilbert_basis_bit_exact(self, tmp_path):
        rb = fresh_rulebase()
        m = Matrix([[0, 1, 0], [0, 0, 1], [1, 2, 3]])
        c = from_points(m, rulebase=rb)
        c.request("HILBERT_BASIS")
        path = tmp_path / "cone.poly"
        save_object(c, path)
        q = load_object(path, rulebase=rb)
        assert q.get("HILBERT_BASIS") == c.get("HILBERT_BASIS")

    def test_malformed_section_named(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("CLASS\nPolytope\n\nBOUNDED\nmaybe\n")
        with pytest.raises(ObjectFileError) as exc:
            load_object(path, rulebase=fresh_rulebase())
        assert "BOUNDED" in str(exc.value)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("CLASS\nPolytope\n\nNO_SUCH_KEY\n1\n")
        with pytest.raises(Exception) as exc:
            load_object(path, rulebase=fresh_rulebase())
        assert "NO_SUCH_KEY" in str(exc.value)

    def test_class_must_come_first(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("BOUNDED\n1\n")
        with pytest.raises(ObjectFileError):
            load_object(path, rulebase=fresh_rulebase())

    def test_save_load_through_shell(self, tmp_path):
        path = tmp_path / "obj.poly"
        out, env = run(
            f'P = cube(3)\nprint P.F_VECTOR\nsave(P, "{path}")\n'
            f'Q = load("{path}")\nprint Q.F_VECTOR\nprint Q.list_properties')
        lines = out.splitlines()
        assert lines[0] == lines[1] == "8 12 6"
        assert "F_VECTOR" in lines[2]


class TestCli:
    def test_run_script_file(self, tmp_path, capsys):
        script = tmp_path / "s.pol"
        script.write_text("P = cube(3)\nprint P.F_VECTOR\n")
        status = main(["--script", str(script)])
        assert status == 0
        assert capsys.readouterr().out == "8 12 6\n"

    def test_empty_script(self, tmp_path, capsys):
        script = tmp_path / "empty.pol"
        script.write_text("")
        assert main(["--script", str(script)]) == 0
        assert capsys.readouterr().out == ""

    def test_script_error_nonzero_with_line(self, tmp_path, capsys):
        script = tmp_path / "bad.pol"
        script.write_text("P = cube(3)\nprint P.TYPO\n")
        status = main(["--script", str(script)])
        assert status == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_script_file(self, capsys):
        assert main(["--script", "/nonexistent.pol"]) == 1

    def test_eval_flag(self, capsys):
        assert main(["--eval", "print cube(3).F_VECTOR"]) == 0
        assert capsys.readouterr().out == "8 12 6\n"

    def test_trace_rules_flag(self, capsys):
        status = main(["--trace-rules", "--eval",
                       "print cube(4).F_VECTOR"])
        assert status == 0
        out = capsys.readouterr().out
        assert "used rule HASSE_DIAGRAM : VERTICES_IN_FACETS" in out
        assert "used rule F_VECTOR, F2_VECTOR : HASSE_DIAGRAM" in out
        assert out.strip().endswith("16 32 24 8")

    def test_shipped_cube_session_script(self, capsys):
        import pathlib
        script = pathlib.Path(__file__).parent.parent / "scripts" \
            / "cube_session.pol"
        assert main(["--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "8 12 6" in out
        assert "LatticePolytope" in out
        assert "1 23 23 1" in out

    def test_shipped_witness_scan_script(self, capsys):
        import pathlib
        script = pathlib.Path(__file__).parent.parent / "scripts" \
            / "witness_scan.pol"
        assert main(["--script", str(script)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "185 nonsingular subsets" in out
        assert "0 nonnegative integral representations (must be 0)" in out
        assert out[-1] == "0 0 0 5 5"

    def test_repl_session(self):
        inputs = iter([
            "P = cube(3)",
            "print P.F_VECTOR",
            'M = <<"."',
            "1 0",
            "1 2",
            ".",
            "print M",
            "print bogus_name",
        ])
        out = io.StringIO()

        def fake_input(prompt):
            out.write(prompt)
            try:
                return next(inputs)
            except StopIteration:
                raise EOFError

        status = repl(fake_input, out=out, rulebase=fresh_rulebase())
        assert status == 0
        text = out.getvalue()
        assert "8 12 6" in text
        assert "polytope (2)> " in text  # continuation prompt numbering
        assert "polytope (3)> " in text
        assert "error:" in text  # session survives the bad statement
