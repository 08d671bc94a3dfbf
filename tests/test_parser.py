"""Unit tests for the textual schema/query/dependency parsers."""

import pytest

from repro.api.fingerprints import query_fingerprint
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.exceptions import ParseError
from repro.parser.dependency_parser import parse_dependencies, parse_dependency
from repro.parser.query_parser import parse_query
from repro.parser.schema_parser import parse_relation_schema, parse_schema
from repro.parser.tokenizer import TokenStream, tokenize
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.terms.term import Constant


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("Q(e) :- EMP(e, 100, 'sales')")]
        assert "TURNSTILE" in kinds
        assert "NUMBER" in kinds
        assert "STRING" in kinds

    def test_arrow_and_subset(self):
        assert tokenize("->")[0].kind == "ARROW"
        assert tokenize("<=")[0].kind == "SUBSET"
        assert tokenize("⊆")[0].kind == "SUBSET"

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="'&' at position 5"):
            tokenize("R(a) & S(b)")

    def test_whitespace_is_skipped_and_positions_kept(self):
        tokens = tokenize("  R (a,\tb) \n")
        assert [(t.kind, t.text, t.position) for t in tokens] == [
            ("NAME", "R", 2), ("LPAREN", "(", 4), ("NAME", "a", 5),
            ("COMMA", ",", 6), ("NAME", "b", 8), ("RPAREN", ")", 9)]
        assert tokenize(" \t\n") == []

    def test_stream_expect_and_end(self):
        stream = TokenStream("R(a)")
        assert stream.expect("NAME").text == "R"
        stream.expect("LPAREN")
        stream.expect("NAME")
        stream.expect("RPAREN")
        stream.expect_end()
        with pytest.raises(ParseError):
            stream.expect("NAME")

    def test_stream_trailing_input(self):
        stream = TokenStream("R R")
        stream.expect("NAME")
        with pytest.raises(ParseError):
            stream.expect_end()


class TestSchemaParser:
    def test_single_relation(self):
        relation = parse_relation_schema("EMP(emp, sal, dept)")
        assert relation.name == "EMP"
        assert relation.arity == 3

    def test_whole_schema_with_comments(self):
        schema = parse_schema(
            """
            # the intro example
            EMP(emp, sal, dept)
            DEP(dept, loc)
            """
        )
        assert set(schema.relation_names) == {"EMP", "DEP"}

    def test_bad_schema_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_schema("EMP(emp,\nDEP(dept)")
        assert "line" in str(excinfo.value)

    def test_empty_schema_rejected(self):
        with pytest.raises(ParseError):
            parse_schema("   \n  # nothing here\n")


class TestQueryParser:
    def test_intro_query(self, emp_dep_schema):
        q = parse_query("Q1(e) :- EMP(e, s, d), DEP(d, l)", emp_dep_schema)
        assert q.name == "Q1"
        assert len(q) == 2
        assert q.output_arity == 1
        assert {v.name for v in q.distinguished_variables()} == {"e"}

    def test_constants_in_query(self, emp_dep_schema):
        q = parse_query("Q(e) :- EMP(e, 100, 'sales')", emp_dep_schema)
        assert Constant(100) in q.constants()
        assert Constant("sales") in q.constants()

    def test_parsed_equals_builder_built(self, intro, emp_dep_schema):
        parsed = parse_query("Q1(e) :- EMP(e, s, d), DEP(d, l)", emp_dep_schema)
        assert parsed == intro.q1

    def test_unknown_relation_rejected(self, emp_dep_schema):
        with pytest.raises(Exception):
            parse_query("Q(x) :- NOPE(x)", emp_dep_schema)

    def test_missing_turnstile(self, emp_dep_schema):
        with pytest.raises(ParseError):
            parse_query("Q(e) EMP(e, s, d)", emp_dep_schema)

    def test_head_constant(self, emp_dep_schema):
        q = parse_query("Q('yes') :- DEP(d, l)", emp_dep_schema)
        assert q.is_boolean()

    def test_labels_are_the_ones_normalisation_assigns(self):
        # Relations named like labels: the parser's c1, c2, ... must be
        # what ConjunctiveQuery assigns to unlabelled atoms, in order.
        schema = parse_schema("c1(a)\nc2(a)\nR(a)")
        text = "Q(x) :- c2(x), R(x), c1(x), c2(y), c1(y)"
        parsed = parse_query(text, schema)
        unlabelled = ConjunctiveQuery(
            schema,
            [Conjunct(atom.relation, atom.terms) for atom in parsed.conjuncts],
            parsed.summary_row, name=parsed.name)
        assert [atom.label for atom in parsed.conjuncts] == [
            "c1", "c2", "c3", "c4", "c5"]
        assert parsed.conjuncts == unlabelled.conjuncts
        assert query_fingerprint(parsed) == query_fingerprint(unlabelled)

    def test_each_atom_is_built_once(self, emp_dep_schema, monkeypatch):
        built = []
        init = Conjunct.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["relation"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Conjunct, "__init__", counting)
        query = parse_query(
            "Q(e) :- EMP(e, s, d), DEP(d, l), EMP(f, s, d), DEP(d, m), EMP(e, t, g)",
            emp_dep_schema)
        assert len(query) == 5
        assert built == ["EMP", "DEP", "EMP", "DEP", "EMP"]


class TestDependencyParser:
    def test_fd_with_multiple_rhs(self):
        parsed = parse_dependency("EMP: emp -> sal, dept")
        assert len(parsed) == 2
        assert all(isinstance(d, FunctionalDependency) for d in parsed)
        assert {d.rhs for d in parsed} == {"sal", "dept"}

    def test_ind_by_name_and_position(self):
        named = parse_dependency("EMP[dept] <= DEP[dept]")[0]
        positional = parse_dependency("R[1, 3] <= S[1, 2]")[0]
        assert isinstance(named, InclusionDependency)
        assert named.width == 1
        assert positional.lhs_attributes == (1, 3)
        assert positional.rhs_attributes == (1, 2)

    def test_unicode_subset_symbol(self):
        parsed = parse_dependency("EMP[dept] ⊆ DEP[dept]")[0]
        assert isinstance(parsed, InclusionDependency)

    def test_dependency_set_parsing(self, emp_dep_schema):
        sigma = parse_dependencies(
            """
            # key of DEP plus the foreign key
            DEP: dept -> loc
            EMP[dept] <= DEP[dept]
            """,
            emp_dep_schema,
        )
        assert len(sigma) == 2
        assert sigma.max_ind_width() == 1
        assert sigma.is_key_based(emp_dep_schema)

    def test_bad_dependency_line(self):
        with pytest.raises(ParseError):
            parse_dependency("EMP dept -> loc")
        with pytest.raises(ParseError):
            parse_dependencies("  \n# empty\n")

    def test_schema_validation_during_parse(self, emp_dep_schema):
        with pytest.raises(Exception):
            parse_dependencies("EMP[nope] <= DEP[dept]", emp_dep_schema)
