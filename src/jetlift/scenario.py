"""Line-oriented scenario files for the lifting engine.

Sections are tagged lines; '#' starts a comment; clauses on a line are separated by
';'.  Two-chart curve, one- or two-chart target, generators and first-order data as
generator coefficients, optional per-chart perturbations written in chart-0 target
coordinates plus time.  A `non-immersive` clause on the [f] line requests the graph
embedding, which prepends the curve parameter as an extra target coordinate.

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
from typing import Dict, List, Optional, Tuple

from .algebra import Poly, monomial_inverse
from .cech import CurveAtlas, MorphismData, PresentedSheaf, TargetAtlas
from .errors import LiftError, ParseError
from .lifting import LiftScenario
from .parsing import parse_poly
from .vectorfields import VectorField

__all__ = ["parse_scenario", "parse_scenario_file"]

_TAG_RE = re.compile(r"^\[(\w+)\]\s*(.*)$")
_KNOWN_TAGS = ("y", "x", "f", "sheaf", "sigma", "perturb", "window", "order")


def parse_scenario_file(path: str) -> LiftScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def parse_scenario(text: str) -> LiftScenario:
    clauses: Dict[str, List[Tuple[str, int]]] = {tag: [] for tag in _KNOWN_TAGS}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _TAG_RE.match(line)
        if not match:
            raise ParseError("expected a [tag] line", line=line_no)
        tag, rest = match.group(1), match.group(2)
        if tag not in _KNOWN_TAGS:
            raise ParseError(f"unknown tag [{tag}]", line=line_no)
        for clause in rest.split(";"):
            clause = clause.strip()
            if clause:
                clauses[tag].append((clause, line_no))

    z_name, w_name = _parse_curve(clauses["y"])
    curve = CurveAtlas(z_name, w_name)
    x_names, num_charts, transition_texts, jacobian_text = _parse_target(clauses["x"])
    morphism_texts, non_immersive = _parse_morphism(clauses["f"], x_names)
    gen_texts = _parse_gens(clauses["sheaf"], x_names)
    sigma_texts = _parse_per_chart(clauses["sigma"], "sigma")
    perturb_texts = _parse_per_chart(clauses["perturb"], "perturb", optional=True)
    window = _parse_window(clauses["window"])
    order = _parse_order(clauses["order"])

    m = len(x_names)
    params = (z_name, w_name)

    # target transition formulas (chart-1 coords -> chart-0 coords)
    transition: Optional[List[Poly]] = None
    if num_charts == 2:
        transition = []
        for name in x_names:
            if name not in transition_texts:
                raise LiftError(f"no transition formula for target coordinate {name}")
            expr, line_no = transition_texts[name]
            transition.append(parse_poly(expr, x_names, allow_laurent=True,
                                         line=line_no))
        if jacobian_text is not None:
            expr, line_no = jacobian_text
            declared = parse_poly(expr, x_names, allow_laurent=True, line=line_no)
            if m != 1:
                raise LiftError("a jacobian clause is only supported for one "
                                "target coordinate")
            if declared != transition[0].partial(0):
                raise LiftError(
                    f"declared jacobian {declared} does not match the transition "
                    f"derivative {transition[0].partial(0)}")
    elif transition_texts or jacobian_text:
        raise LiftError("a one-chart target cannot declare a transition")

    morphism_charts = []
    for chart in (0, 1):
        comps = []
        for name in x_names:
            if name not in morphism_texts[chart]:
                raise LiftError(
                    f"chart{chart} morphism misses target coordinate {name}")
            expr, line_no = morphism_texts[chart][name]
            comps.append(parse_poly(expr, [params[chart]], allow_laurent=True,
                                    line=line_no))
        morphism_charts.append(tuple(comps))

    gens_charts: List[List[VectorField]] = [[], []]
    for chart in (0, 1):
        for expr, line_no in gen_texts[chart]:
            pieces = expr.split(",")
            if len(pieces) != m:
                raise ParseError(
                    f"generator needs {m} component(s), got {len(pieces)}",
                    line=line_no)
            comps = [parse_poly(p, x_names, allow_laurent=True, line=line_no)
                     for p in pieces]
            gens_charts[chart].append(
                VectorField([c.reindex(m + 1, range(m)) for c in comps]
                            + [Poly.zero(m + 1)]))
    if len(gens_charts[0]) != len(gens_charts[1]):
        raise LiftError("both charts need the same number of generators")
    if not gens_charts[0]:
        raise LiftError("at least one generator is required")
    s = len(gens_charts[0])

    sigma_charts = []
    for chart in (0, 1):
        if chart not in sigma_texts:
            raise LiftError(f"sigma is missing for chart{chart}")
        expr, line_no = sigma_texts[chart]
        pieces = expr.split(",")
        if len(pieces) != s:
            raise ParseError(
                f"sigma needs {s} coefficient(s), got {len(pieces)}", line=line_no)
        sigma_charts.append(tuple(
            parse_poly(p, [params[chart]], line=line_no) for p in pieces))

    perturb_charts: List[Optional[Tuple[Poly, ...]]] = [None, None]
    for chart, payload in perturb_texts.items():
        expr, line_no = payload
        pieces = expr.split(",")
        if len(pieces) != m:
            raise ParseError(
                f"perturbation needs {m} component(s), got {len(pieces)}",
                line=line_no)
        perturb_charts[chart] = tuple(
            parse_poly(p, list(x_names) + ["t"], allow_laurent=True, line=line_no)
            for p in pieces)

    if non_immersive:
        return _embed_graph(curve, x_names, num_charts, transition,
                            morphism_charts, gens_charts, sigma_charts,
                            perturb_charts, window, order)

    atlas = TargetAtlas(x_names, num_charts,
                        transition if num_charts == 2 else None)
    morphism = MorphismData(morphism_charts[0], morphism_charts[1])
    sheaf = PresentedSheaf.from_charts(atlas, morphism,
                                       gens_charts[0], gens_charts[1])
    return LiftScenario(curve, sheaf, (sigma_charts[0], sigma_charts[1]),
                        tuple(perturb_charts), window, order)


def _embed_graph(curve, x_names, num_charts, transition, morphism_charts,
                 gens_charts, sigma_charts, perturb_charts, window, order):
    """Prepend the curve parameter as a target coordinate (graph of the morphism)."""
    if "y" in x_names:
        raise LiftError("graph embedding reserves the coordinate name 'y'")
    m = len(x_names)
    names = ("y",) + tuple(x_names)
    y_var = Poly.variable(m + 1, 0)
    if num_charts == 2:
        shifted = [p.reindex(m + 1, range(1, m + 1)) for p in transition]
    else:
        shifted = [Poly.variable(m + 1, k + 1) for k in range(m)]
    new_transition = [monomial_inverse(y_var)] + shifted
    atlas = TargetAtlas(names, 2, new_transition)
    new_morphism = []
    for chart in (0, 1):
        param_poly = Poly.variable(1, 0)
        new_morphism.append((param_poly,) + tuple(morphism_charts[chart]))
    morphism = MorphismData(new_morphism[0], new_morphism[1])
    new_gens = [[], []]
    for chart in (0, 1):
        for g in gens_charts[chart]:
            comps = [Poly.zero(m + 2)]
            comps += [c.reindex(m + 2, range(1, m + 2)) for c in g.components[:-1]]
            comps += [Poly.zero(m + 2)]
            new_gens[chart].append(VectorField(comps))
    new_perturb: List[Optional[Tuple[Poly, ...]]] = [None, None]
    for chart in (0, 1):
        if perturb_charts[chart] is not None:
            new_perturb[chart] = (Poly.zero(m + 2),) + tuple(
                c.reindex(m + 2, range(1, m + 2)) for c in perturb_charts[chart])
    sheaf = PresentedSheaf.from_charts(atlas, morphism, new_gens[0], new_gens[1])
    return LiftScenario(curve, sheaf, (sigma_charts[0], sigma_charts[1]),
                        tuple(new_perturb), window, order)


def _parse_curve(clause_list):
    z_name, w_name = "z", "w"
    saw_charts = False
    for clause, line_no in clause_list:
        words = clause.split()
        if words[0] == "charts":
            if len(words) != 3:
                raise ParseError("charts clause needs two parameter names",
                                 line=line_no)
            z_name, w_name = words[1], words[2]
            saw_charts = True
        elif words[0] == "transition":
            text = "".join(words[1:]).replace(" ", "")
            if text != f"{w_name}=1/{z_name}":
                raise ParseError(
                    f"only the transition {w_name} = 1/{z_name} is supported",
                    line=line_no)
        else:
            raise ParseError(f"unknown [y] clause {clause!r}", line=line_no)
    if not saw_charts:
        raise ParseError("the [y] section needs a charts clause")
    return z_name, w_name


def _integer(text, message, line_no):
    try:
        return int(text)
    except ValueError:
        raise ParseError(message, line=line_no) from None


def _parse_target(clause_list):
    names: Optional[Tuple[str, ...]] = None
    num_charts = 1
    transition_texts: Dict[str, Tuple[str, int]] = {}
    jacobian_text: Optional[Tuple[str, int]] = None
    for clause, line_no in clause_list:
        words = clause.split(None, 1)
        head = words[0]
        rest = words[1] if len(words) > 1 else ""
        if head == "vars":
            names = tuple(n.strip() for n in rest.split(","))
            if not all(names):
                raise ParseError("empty variable name", line=line_no)
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ParseError(f"duplicate variable name {name!r}", line=line_no)
        elif head == "charts":
            num_charts = _integer(rest, "charts must be 1 or 2", line_no)
            if num_charts not in (1, 2):
                raise ParseError("charts must be 1 or 2", line=line_no)
        elif head == "transition":
            if "->" not in rest:
                raise ParseError("transition clause needs 'var -> expr'",
                                 line=line_no)
            var, expr = rest.split("->", 1)
            transition_texts[var.strip()] = (expr.strip(), line_no)
        elif head == "jacobian":
            jacobian_text = (rest.strip(), line_no)
        else:
            raise ParseError(f"unknown [x] clause {clause!r}", line=line_no)
    if names is None:
        raise ParseError("the [x] section needs a vars clause")
    return names, num_charts, transition_texts, jacobian_text


_CHART_RE = re.compile(r"^chart([01])\s*:\s*(.*)$")


def _parse_morphism(clause_list, x_names):
    texts: List[Dict[str, Tuple[str, int]]] = [{}, {}]
    non_immersive = False
    for clause, line_no in clause_list:
        if clause.strip() == "non-immersive":
            non_immersive = True
            continue
        match = _CHART_RE.match(clause)
        if not match:
            raise ParseError(f"unknown [f] clause {clause!r}", line=line_no)
        chart = int(match.group(1))
        for assign in match.group(2).split(","):
            if "=" not in assign:
                raise ParseError("morphism clause needs 'coord = expr'",
                                 line=line_no)
            var, expr = assign.split("=", 1)
            var = var.strip()
            if var not in x_names:
                raise ParseError(f"unknown target coordinate {var!r}", line=line_no)
            texts[chart][var] = (expr.strip(), line_no)
    return texts, non_immersive


_GEN_RE = re.compile(r"^gen\s+chart([01])\s*:\s*(.*)$")


def _parse_gens(clause_list, x_names):
    texts: List[List[Tuple[str, int]]] = [[], []]
    for clause, line_no in clause_list:
        match = _GEN_RE.match(clause)
        if not match:
            raise ParseError(f"unknown [sheaf] clause {clause!r}", line=line_no)
        texts[int(match.group(1))].append((match.group(2), line_no))
    return texts


def _parse_per_chart(clause_list, what, optional=False):
    texts: Dict[int, Tuple[str, int]] = {}
    for clause, line_no in clause_list:
        match = _CHART_RE.match(clause)
        if not match:
            raise ParseError(f"unknown [{what}] clause {clause!r}", line=line_no)
        chart = int(match.group(1))
        if chart in texts:
            raise ParseError(f"duplicate [{what}] for chart{chart}", line=line_no)
        texts[chart] = (match.group(2), line_no)
    if not optional and not texts:
        raise ParseError(f"the [{what}] section is required")
    return texts


def _parse_window(clause_list):
    if not clause_list:
        return (-8, 8)
    if len(clause_list) > 1:
        raise ParseError("multiple [window] clauses")
    clause, line_no = clause_list[0]
    words = clause.split()
    if len(words) != 2:
        raise ParseError("window needs two integers", line=line_no)
    lo, hi = (_integer(w, "window needs two integers", line_no) for w in words)
    if lo > hi:
        raise ParseError("window lower bound exceeds upper bound", line=line_no)
    return (lo, hi)


def _parse_order(clause_list):
    if not clause_list:
        return 4
    if len(clause_list) > 1:
        raise ParseError("multiple [order] clauses")
    clause, line_no = clause_list[0]
    order = _integer(clause, "order needs an integer", line_no)
    if order < 1:
        raise ParseError("order must be >= 1", line=line_no)
    return order
