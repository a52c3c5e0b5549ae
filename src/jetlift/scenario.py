"""Line-oriented scenario files for the lifting engine.

Sections are tagged lines; '#' starts a comment; clauses on a line are separated by
';'.  Two-chart curve, one- or two-chart target, generators and first-order data as
generator coefficients, optional per-chart perturbations written in chart-0 target
coordinates plus time.  A one-chart target is two charts glued by the identity.
A `non-immersive` clause on the [f] line requests the graph embedding
(`vectorfields.graph_embed`), which prepends the curve parameter as an extra
target coordinate y.  A target coordinate may not be named t (time), nor y when
embedded.  A repeated vars, charts, transition, jacobian or assignment, and a
transition for an undeclared coordinate, are errors; positions count from the
start of the line.  A [window] only bounds input: its span is checked against
`MAX_WINDOW_SPAN`, it has no default, and the lift never reads it.

    [y]        charts z w ; transition w = 1/z
    [x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
    [f]        chart0: x = z ; chart1: x = w
    [sheaf]    gen chart0: x ; gen chart1: -x
    [sigma]    chart0: 1 ; chart1: 1
    [perturb]  chart1: t * x^2
    [window]   -8 8
    [order]    4
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Poly, monomial_inverse
from .cech import (CurveAtlas, MorphismData, PresentedSheaf, TargetAtlas,
                   check_window_span)
from .errors import LiftError, ParseError
from .lifting import LiftScenario
from .parsing import (parse_integer, parse_names, parse_poly, parse_window,
                      read_names, split_list)
from .vectorfields import VectorField, graph_embed

__all__ = ["parse_scenario", "parse_scenario_file"]

_TAG_RE = re.compile(r"^\[(\w+)\]\s*(.*)$")
_KNOWN_TAGS = ("y", "x", "f", "sheaf", "sigma", "perturb", "window", "order")


class _Clause:
    """Clause text with its line and the 0-based column where the text starts."""
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text, self.line, self.col = text, line, col

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, column=self.col + 1)

    def poly(self, names: Sequence[str]) -> Poly:
        return parse_poly(self.text, names, True, self.line, self.col)

    def after(self, start: int, end: Optional[int] = None) -> "_Clause":
        """text[start:end] without surrounding whitespace, at its own column."""
        text = self.text[start:end]
        stripped = text.lstrip()
        return _Clause(stripped.rstrip(), self.line,
                       self.col + start + len(text) - len(stripped))


def parse_scenario_file(path: str) -> LiftScenario:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + ".").splitlines()
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                         line=len(lines), column=len(lines[-1])) from None
    return parse_scenario(text)


def parse_scenario(text: str) -> LiftScenario:
    clauses, tag_lines = _split_clauses(text)
    curve = CurveAtlas(*_parse_curve(clauses["y"], tag_lines.get("y", 1)))
    non_immersive = any(clause.text == "non-immersive" for clause in clauses["f"])
    reserved = {"t": "the coordinate name 't' is reserved for time"}
    if non_immersive:
        reserved["y"] = "graph embedding reserves the coordinate name 'y'"
    x_names, charts, transition_texts, jacobian = _parse_target(
        clauses["x"], tag_lines.get("x", 1), reserved)
    morphism_texts = _parse_morphism(clauses["f"], x_names)
    gen_texts = _per_chart(clauses["sheaf"], "sheaf")
    sigma_texts = _per_chart(clauses["sigma"], "sigma")
    if not any(sigma_texts):
        raise ParseError("the [sigma] section is required",
                         line=tag_lines.get("sigma", 1))
    perturb_texts = _per_chart(clauses["perturb"], "perturb")
    window_clause = _only(clauses["window"], "window")
    if window_clause is not None:
        check_window_span(parse_window(window_clause.text, window_clause.line,
                                       window_clause.col), "declared")
    order = _parse_order(_only(clauses["order"], "order"))

    m = len(x_names)

    # target transition formulas (chart-1 coords -> chart-0 coords)
    if charts == 1:
        if transition_texts or jacobian is not None:
            raise LiftError("a one-chart target cannot declare a transition")
        transition = [Poly.variable(m, k) for k in range(m)]
    else:
        transition = _formulas(transition_texts, x_names, x_names,
                               "no transition formula for")
        if jacobian is not None:
            declared = jacobian.poly(x_names)
            if m != 1:
                raise LiftError("a jacobian clause is only supported for one "
                                "target coordinate")
            if declared != transition[0].partial(0):
                raise LiftError(
                    f"declared jacobian {declared} does not match the transition "
                    f"derivative {transition[0].partial(0)}")

    morphism = [tuple(_formulas(morphism_texts[chart], x_names,
                                [curve.param_name(chart)],
                                f"chart{chart} morphism misses"))
                for chart in (0, 1)]

    gens = [[VectorField(_components(clause, x_names, m, "generator", "component"))
             for clause in gen_texts[chart]] for chart in (0, 1)]
    if len(gens[0]) != len(gens[1]):
        raise LiftError("both charts need the same number of generators")
    if not gens[0]:
        raise LiftError("at least one generator is required")

    sigma = []
    for chart in (0, 1):
        if not sigma_texts[chart]:
            raise LiftError(f"sigma is missing for chart{chart}")
        sigma.append(_components(sigma_texts[chart][0], [curve.param_name(chart)],
                                 len(gens[0]), "sigma", "coefficient",
                                 allow_laurent=False))

    perturb: List[Optional[Tuple[Poly, ...]]] = [
        _components(texts[0], x_names + ("t",), m, "perturbation", "component")
        if texts else None for texts in perturb_texts]

    names = x_names
    if non_immersive:
        names = ("y",) + x_names
        for chart in (0, 1):
            morphism[chart], gens[chart] = graph_embed(morphism[chart], gens[chart])
        # y -> 1/y; x keeps its transition
        transition = ([monomial_inverse(Poly.variable(m + 1, 0))]
                      + [p.reindex(m + 1, range(1, m + 1)) for p in transition])
        perturb = [None if p is None else (Poly.zero(m + 2),) + tuple(
            c.reindex(m + 2, range(1, m + 2)) for c in p) for p in perturb]

    # every generator gets a zero time component
    q = len(names)
    gens = [[VectorField([c.reindex(q + 1, range(q)) for c in g.components]
                         + [Poly.zero(q + 1)]) for g in chart_gens]
            for chart_gens in gens]
    atlas = TargetAtlas(names, transition)
    sheaf = PresentedSheaf.from_charts(atlas, MorphismData(*morphism), *gens)
    return LiftScenario(curve, sheaf, (sigma[0], sigma[1]), tuple(perturb), order)


def _split_clauses(text: str) -> Tuple[Dict[str, List[_Clause]], Dict[str, int]]:
    """Clauses of each tag, each with its line and the column where it starts,
    and the line of each tag's first [tag] line, where a missing clause is
    reported."""
    clauses: Dict[str, List[_Clause]] = {tag: [] for tag in _KNOWN_TAGS}
    tag_lines: Dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        stripped = body.lstrip()
        line = stripped.rstrip()
        if not line:
            continue
        match = _TAG_RE.match(line)
        if not match:
            raise ParseError("expected a [tag] line", line=line_no)
        tag = match.group(1)
        if tag not in _KNOWN_TAGS:
            raise ParseError(f"unknown tag [{tag}]", line=line_no)
        tag_lines.setdefault(tag, line_no)
        start = len(body) - len(stripped) + match.start(2)
        for piece, offset in split_list(match.group(2), ";"):
            clause = piece.lstrip()
            if clause:
                clauses[tag].append(_Clause(clause.rstrip(), line_no,
                                            start + offset + len(piece) - len(clause)))
    return clauses, tag_lines


def _formulas(texts: Dict[str, _Clause], x_names: Sequence[str],
              names: Sequence[str], missing: str) -> List[Poly]:
    """One formula per target coordinate, in the order the [x] section declares."""
    out = []
    for name in x_names:
        if name not in texts:
            raise LiftError(f"{missing} target coordinate {name}")
        out.append(texts[name].poly(names))
    return out


def _components(clause: _Clause, names: Sequence[str], count: int, what: str,
                noun: str, allow_laurent: bool = True) -> Tuple[Poly, ...]:
    """Comma-separated polynomials, exactly `count` of them."""
    pieces = split_list(clause.text)
    if len(pieces) != count:
        raise clause.error(f"{what} needs {count} {noun}(s), got {len(pieces)}")
    return tuple(parse_poly(piece, names, allow_laurent, clause.line,
                            clause.col + offset) for piece, offset in pieces)


def _parse_curve(clause_list: List[_Clause], tag_line: int) -> Tuple[str, str]:
    z_name, w_name = "z", "w"
    saw_charts = False
    for clause in clause_list:
        words = clause.text.split()
        if words[0] == "charts":
            if saw_charts:
                raise clause.error("duplicate charts clause")
            if len(words) != 3:
                raise clause.error("charts clause needs two parameter names")
            rest = clause.after(len(words[0]))
            pieces = [(m.group(), m.start()) for m in re.finditer(r"\S+", rest.text)]
            z_name, w_name = read_names(pieces, rest.line, rest.col)
            saw_charts = True
        elif words[0] == "transition":
            if "".join(words[1:]) != f"{w_name}=1/{z_name}":
                raise clause.error(
                    f"only the transition {w_name} = 1/{z_name} is supported")
        else:
            raise clause.error(f"unknown [y] clause {clause.text!r}")
    if not saw_charts:
        raise ParseError("the [y] section needs a charts clause", line=tag_line)
    return z_name, w_name


def _parse_target(clause_list: List[_Clause], tag_line: int,
                  reserved: Dict[str, str]):
    names: Optional[Tuple[str, ...]] = None
    charts = 1
    transitions: Dict[str, _Clause] = {}    # 'x -> expr', at the column of x
    jacobian: Optional[_Clause] = None
    seen = set()    # heads that may appear once
    for clause in clause_list:
        head = clause.text.split(None, 1)[0]
        rest = clause.after(len(head))
        if head in ("vars", "charts", "jacobian"):
            if head in seen:
                raise clause.error(f"duplicate {head} clause")
            seen.add(head)
        if head == "vars":
            names = parse_names(rest.text, rest.line, rest.col, reserved=reserved)
        elif head == "charts":
            charts = parse_integer(rest.text, "charts must be 1 or 2", rest.line,
                                   rest.col)
            if charts not in (1, 2):
                raise rest.error("charts must be 1 or 2")
        elif head == "transition":
            arrow = rest.text.find("->")
            if arrow < 0:
                raise clause.error("transition clause needs 'var -> expr'")
            var = rest.text[:arrow].strip()
            if var in transitions:
                raise rest.error(
                    f"duplicate transition for target coordinate {var!r}")
            transitions[var] = rest
        elif head == "jacobian":
            jacobian = rest
        else:
            raise clause.error(f"unknown [x] clause {clause.text!r}")
    if names is None:
        raise ParseError("the [x] section needs a vars clause", line=tag_line)
    for var, at in transitions.items():
        if var not in names:
            raise at.error(f"unknown target coordinate {var!r}")
    exprs = {var: at.after(at.text.find("->") + 2) for var, at in transitions.items()}
    return names, charts, exprs, jacobian


_CHART_RE = re.compile(r"(gen\s+)?chart([01])\s*:\s*")


def _chart_payload(clause: _Clause, tag: str) -> Tuple[int, _Clause]:
    """Chart and payload of 'chart0: ...' ('gen chart0: ...' in [sheaf])."""
    match = _CHART_RE.match(clause.text)
    if not match or bool(match.group(1)) != (tag == "sheaf"):
        raise clause.error(f"unknown [{tag}] clause {clause.text!r}")
    end = match.end()    # the pattern takes the blanks before the payload
    return int(match.group(2)), _Clause(clause.text[end:], clause.line, clause.col + end)


def _per_chart(clause_list: List[_Clause],
               tag: str) -> Tuple[List[_Clause], List[_Clause]]:
    """Payloads per chart: any number of generators, otherwise at most one."""
    charts: Tuple[List[_Clause], List[_Clause]] = ([], [])
    for clause in clause_list:
        chart, payload = _chart_payload(clause, tag)
        if tag != "sheaf" and charts[chart]:
            raise clause.error(f"duplicate [{tag}] for chart{chart}")
        charts[chart].append(payload)
    return charts


def _parse_morphism(clause_list: List[_Clause], x_names: Sequence[str]):
    texts: List[Dict[str, _Clause]] = [{}, {}]
    for clause in clause_list:
        if clause.text == "non-immersive":
            continue
        chart, payload = _chart_payload(clause, "f")
        for piece, offset in split_list(payload.text):
            equals = piece.find("=")
            if equals < 0:
                raise payload.after(offset, offset + len(piece)).error(
                    "morphism clause needs 'coord = expr'")
            target = payload.after(offset, offset + equals)
            if target.text not in x_names:
                raise target.error(f"unknown target coordinate {target.text!r}")
            if target.text in texts[chart]:
                raise target.error(
                    f"duplicate chart{chart} assignment to {target.text!r}")
            texts[chart][target.text] = payload.after(offset + equals + 1,
                                                      offset + len(piece))
    return texts


def _only(clause_list: List[_Clause], tag: str) -> Optional[_Clause]:
    """The section's one clause, or None when the section is absent."""
    if len(clause_list) > 1:
        raise clause_list[1].error(f"multiple [{tag}] clauses")
    return clause_list[0] if clause_list else None


def _parse_order(clause: Optional[_Clause]) -> int:
    if clause is None:
        return 4
    order = parse_integer(clause.text, "order needs an integer", clause.line,
                          clause.col)
    if order < 1:
        raise clause.error("order must be >= 1")
    return order
