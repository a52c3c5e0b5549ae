"""Literal grammars: polynomials, fields, points, grids, and scenario files."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift.algebra import Poly
from jetlift.cech import uni, uni_x
from jetlift.errors import JetliftError, LiftError, ParseError
from jetlift.parsing import (parse_field, parse_grid, parse_integer, parse_point,
                             parse_poly, parse_rational, parse_window, split_list)
from jetlift.scenario import parse_scenario
from jetlift.vectorfields import VectorField


class TestPolyGrammar:
    def test_three_term_example(self):
        p = parse_poly("3/2*x^2*y - y + 1", ["x", "y"])
        assert p == Poly(2, {(2, 1): Fraction(3, 2), (0, 1): -1, (0, 0): 1})

    def test_laurent_monomial(self):
        assert parse_poly("x^-1", ["x"], allow_laurent=True) == uni_x(-1)

    def test_laurent_requires_flag(self):
        with pytest.raises(ParseError):
            parse_poly("x^-1", ["x"])

    def test_reciprocal_shorthand(self):
        assert parse_poly("1/x", ["x"], allow_laurent=True) == uni_x(-1)
        assert parse_poly("-3/2/x^2", ["x"], allow_laurent=True) == uni({-2: Fraction(-3, 2)})

    def test_implicit_multiplication(self):
        assert parse_poly("2x y", ["x", "y"]) == parse_poly("2*x*y", ["x", "y"])

    def test_leading_sign(self):
        assert parse_poly("-x + 1", ["x"]) == 1 - Poly.variable(1, 0)

    def test_repeated_variable_accumulates(self):
        assert parse_poly("x*x", ["x"]) == Poly.variable(1, 0) ** 2

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + q", ["x"])
        assert err.value.column == 5

    def test_dangling_sign(self):
        with pytest.raises(ParseError):
            parse_poly("x +", ["x"])

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_poly("   ", ["x"])

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0", ["x"])

    @pytest.mark.parametrize("text,message,column", [
        ("*x", "unexpected '*'", 1),
        ("2**x", "unexpected '*'", 3),
        ("x**2", "unexpected '*'", 3),
        ("x + * y", "unexpected '*'", 5),
        ("2*/x", "unexpected '/'", 3),
        ("\u0663x", "expected a term", 1),
        ("x^\u0663", "expected an integer", 3),
    ], ids=["leading-star", "doubled-star", "star-power", "star-after-sign",
            "star-slash", "arabic-indic-coefficient", "arabic-indic-exponent"])
    def test_stray_star_and_non_ascii_digits_rejected(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_poly(text, ["x", "y"], allow_laurent=True)
        assert str(err.value) == f"{message} (line 1, column {column})"

    def test_star_between_factors_still_accepted(self):
        assert parse_poly("2*x*y", ["x", "y"]) == parse_poly("2 x y", ["x", "y"])
        assert parse_poly("1/2*x", ["x"]) == Poly(1, {(1,): Fraction(1, 2)})


class TestFieldPointGrid:
    def test_field(self):
        f = parse_field("y, -x", ["x", "y"])
        assert f == VectorField([Poly.variable(2, 1), -Poly.variable(2, 0)])

    def test_field_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_field("x", ["x", "y"])

    def test_point(self):
        assert parse_point("1,0", 2) == (1, 0)
        assert parse_point("-3/2, 1/2", 2) == (Fraction(-3, 2), Fraction(1, 2))

    def test_rational(self):
        assert parse_rational("-7/3") == Fraction(-7, 3)
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_grid(self):
        ranges = parse_grid("x=-1:1:1, y=-1:1:1", ["x", "y"])
        assert ranges == [(-1, 1, 1), (-1, 1, 1)]

    def test_grid_rational_step(self):
        ranges = parse_grid("x=0:1:1/2", ["x"])
        assert ranges == [(0, 1, Fraction(1, 2))]

    def test_grid_missing_variable(self):
        with pytest.raises(ParseError):
            parse_grid("x=-1:1:1", ["x", "y"])

    def test_grid_bad_step(self):
        with pytest.raises(ParseError):
            parse_grid("x=-1:1:0", ["x"])

    def test_split_list_keeps_offsets(self):
        assert split_list("x,0; 0,x", ";") == [("x,0", 0), (" 0,x", 4)]
        assert split_list("") == [("", 0)]

    def test_field_positions_count_from_col_offset(self):
        with pytest.raises(ParseError) as err:
            parse_field("0, x^", ["x", "y"], col_offset=10)
        assert err.value.column == 16

    def test_window(self):
        assert parse_window(" -4  40 ") == (-4, 40)
        with pytest.raises(ParseError, match="window needs two integers"):
            parse_window("4", line=3)
        with pytest.raises(ParseError) as err:
            parse_window("4 -4", line=3, col_offset=11)
        assert str(err.value) == ("window lower bound exceeds upper bound "
                                  "(line 3, column 12)")

    @pytest.mark.parametrize("text", ["1_0 2_0", "+1 3", "1 \u0663", "1 2 3", "1 2.0"],
                             ids=["underscore", "plus", "arabic-indic", "three",
                                  "decimal"])
    def test_window_accepts_ascii_integers_only(self, text):
        with pytest.raises(ParseError) as err:
            parse_window(text, line=2, col_offset=4)
        assert str(err.value) == "window needs two integers (line 2, column 5)"

    def test_integer(self):
        assert parse_integer("-12", "bad") == -12 and parse_integer("007", "bad") == 7
        for text in ("", "-", "+3", "1_0", "\u0663", " 3", "3 ", "--3"):
            with pytest.raises(ParseError, match="^bad"):
                parse_integer(text, "bad")


GOOD = """
# a comment line
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x ; gen chart1: -x   # trailing comment
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
[order]    4
"""


class TestScenarioParsing:
    def test_good_scenario(self):
        scenario = parse_scenario(GOOD)
        assert scenario.order == 4
        assert scenario.curve.z_name == "z"
        assert scenario.sheaf.num_gens == 1
        assert scenario.perturbations == (None, None)

    def test_defaults(self):
        text = GOOD.replace("[window]   -8 8\n", "").replace("[order]    4\n", "")
        scenario = parse_scenario(text)
        assert scenario.order == 4

    def test_wrong_jacobian_rejected(self):
        with pytest.raises(LiftError):
            parse_scenario(GOOD.replace("jacobian -x^-2", "jacobian x^-2"))

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            parse_scenario(GOOD + "\n[bogus] 1")

    def test_untagged_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(GOOD + "\nstray")
        assert err.value.line == len(GOOD.splitlines()) + 2

    def test_missing_sigma(self):
        with pytest.raises(ParseError):
            parse_scenario(GOOD.replace("[sigma]    chart0: 1 ; chart1: 1", ""))

    def test_mismatched_generator_counts(self):
        with pytest.raises(LiftError):
            parse_scenario(GOOD.replace("gen chart0: x ; gen chart1: -x",
                                        "gen chart0: x"))

    def test_duplicate_vars_rejected(self):
        # a second "x" could never be reached: names map to their first index
        with pytest.raises(ParseError) as err:
            parse_scenario(GOOD.replace("vars x ;", "vars x, x ;"))
        assert err.value.line == 4 and "duplicate variable name 'x'" in str(err.value)

    def test_graph_embedding_reserves_y(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(EMBEDDED.replace("vars x ;", "vars x, y ;"))
        assert str(err.value) == ("graph embedding reserves the coordinate name 'y' "
                                  "(line 6, column 20)")

    def test_curve_transition_shape_enforced(self):
        with pytest.raises(ParseError):
            parse_scenario(GOOD.replace("transition w = 1/z", "transition w = z"))

    def test_polynomial_error_counts_from_line_start(self):
        # line 7 of flagship.scn is the [sheaf] line; '^' ends at column 42
        lines = FLAGSHIP.splitlines()
        assert lines[6].startswith("[sheaf]")
        lines[6] = lines[6].replace("gen chart1: -x", "gen chart1: -x^")
        with pytest.raises(ParseError) as err:
            parse_scenario("\n".join(lines))
        assert (err.value.line, err.value.column) == (7, 43)
        assert str(err.value).startswith("expected an integer")

    @pytest.mark.parametrize("old,new,message,column", [
        ("chart0: x = z ;", "chart0: x = 7*z ; chart0: x = z ;",
         "duplicate chart0 assignment to 'x'", 38),
        ("transition x -> 1/x ; jacobian -x^-2",
         "transition x -> 5/x ; transition x -> 1/x",
         "duplicate transition for target coordinate 'x'", 65),
        ("jacobian -x^-2", "transition q -> 1/q",
         "unknown target coordinate 'q'", 65),
        ("jacobian -x^-2", "jacobian -x^-2 ; jacobian -x^-2",
         "duplicate jacobian clause", 71),
        ("vars x ;", "vars q ; vars x ;", "duplicate vars clause", 21),
        ("charts 2 ;", "charts 1 ; charts 2 ;", "duplicate charts clause", 32),
        ("charts z w ;", "charts z w ; charts z w ;", "duplicate charts clause", 25),
        ("charts 2 ;", "charts +2 ;", "charts must be 1 or 2", 28),
        ("charts 2 ;", "charts \u0662 ;", "charts must be 1 or 2", 28),
        ("[order]    4", "[order]    +4", "order needs an integer", 12),
        ("[order]    4", "[order]    1_0", "order needs an integer", 12),
        ("[order]    4", "[order]    \u0664", "order needs an integer", 12),
        ("[window]   -8 8", "[window]   -8 +8", "window needs two integers", 12),
        ("[order]    4", "[order]    4 ; 5", "multiple [order] clauses", 16),
        ("[window]   -8 8", "[window]   -8 8 ; -4 4", "multiple [window] clauses", 19),
        ("vars x ;", "vars x y ;", "invalid variable name 'x y'", 17),
        ("vars x ;", "vars x, t ;", "the coordinate name 't' is reserved for time", 20),
        ("charts z w ; transition w = 1/z", "charts z^2 w ; transition w = 1/z^2",
         "invalid variable name 'z^2'", 19),
        ("charts z w ; transition w = 1/z", "charts z z ; transition z = 1/z",
         "duplicate variable name 'z'", 19),
    ], ids=["assignment", "transition", "undeclared-transition", "jacobian",
            "vars", "x-charts", "y-charts", "charts-plus", "charts-arabic-indic",
            "order-plus", "order-underscore", "order-arabic-indic", "window-plus",
            "order-twice", "window-twice",
            "vars-blank-inside", "vars-time", "y-charts-power", "y-charts-duplicate"])
    def test_repeated_or_undeclared_clause_rejected(self, old, new, message,
                                                    column):
        text = GOOD.replace(old, new)
        assert text != GOOD
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if new in row)
        assert str(err.value) == f"{message} (line {line}, column {column})"


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FLAGSHIP = (SCENARIOS / "flagship.scn").read_text(encoding="utf-8")
PERTURBED = (SCENARIOS / "flagship_perturbed.scn").read_text(encoding="utf-8")
# the one-chart, non-immersive scenario: parsed through the graph embedding
EMBEDDED = (SCENARIOS / "graph_embedded.scn").read_text(encoding="utf-8")


@st.composite
def one_character_mutations(draw, base=PERTURBED):
    """`base` with one character replaced, inserted or deleted."""
    op = draw(st.sampled_from(["replace", "insert", "delete"]))
    i = draw(st.integers(min_value=0, max_value=len(base) - 1))
    ch = draw(st.sampled_from("0123456789 -+*/^;:,=[]()#\nxyzwt_.>"))
    if op == "delete":
        return base[:i] + base[i + 1:]
    return base[:i] + ch + base[i + (op == "replace"):]


@settings(max_examples=300, deadline=None)
@given(one_character_mutations())
def test_scenario_mutations_raise_only_engine_errors(text):
    try:
        parse_scenario(text)
    except JetliftError:
        pass


@settings(max_examples=300, deadline=None)
@given(one_character_mutations(EMBEDDED))
def test_embedded_scenario_mutations_raise_only_engine_errors(text):
    try:
        parse_scenario(text)
    except JetliftError:
        pass


# literal-shaped text (the grammars' own characters) and arbitrary text
LITERALS = (st.text(alphabet="0123456789 -+*/^,:=()xyz_.\t", max_size=30)
            | st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(LITERALS, st.booleans())
def test_parse_poly_raises_only_parse_error(text, laurent):
    try:
        parse_poly(text, ["x", "y"], allow_laurent=laurent)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(LITERALS, st.integers(min_value=1, max_value=3))
def test_parse_point_raises_only_parse_error(text, dim):
    try:
        parse_point(text, dim)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(LITERALS)
def test_parse_grid_raises_only_parse_error(text):
    try:
        parse_grid(text, ["x", "y"])
    except ParseError:
        pass
