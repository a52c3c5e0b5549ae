"""Parsers for polynomial, field, point, integer, window, and grid literals.

Grammar for polynomials: terms separated by + or -, each term an optional rational
coefficient (p or p/q) and variable powers (name, or name^k), with an optional '*'
between two of these factors; whitespace is insignificant.  Digits are ASCII
only, and an integer literal is ASCII digits with an optional leading '-'.
Negative exponents are accepted only when the caller allows Laurent input.
`split_list` splits lists and keeps each piece's offset, so errors carry the
1-based line/column of the offending token in the whole text (shifted by
`col_offset` when that text is part of a longer line).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from .algebra import Poly
from .errors import ParseError
from .vectorfields import VectorField

__all__ = ["split_list", "parse_names", "read_names", "parse_poly", "parse_field",
           "parse_point", "parse_rational", "parse_integer", "parse_window",
           "parse_grid"]

_INTEGER_RE = re.compile(r"-?[0-9]+")


def _is_digit(c: str) -> bool:
    """An ASCII digit; int() and str.isdecimal() also take other scripts' digits."""
    return "0" <= c <= "9"


class _Scanner:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        p = self.pos if pos is None else pos
        return ParseError(message, line=self.line, column=self.col_offset + p + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def at_end(self) -> bool:
        return self.peek() == ""

    def read_int(self, allow_sign: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer", start)
        return int(self.text[start:self.pos])

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        name = self.text[start:self.pos]
        if name[0].isdigit():
            raise self.error(f"names cannot start with a digit: {name!r}", start)
        return name


def _parse_term(sc: _Scanner, names: Sequence[str], allow_laurent: bool,
                num_vars: int, sign: int) -> Tuple[Tuple[int, ...], Fraction]:
    coeff = Fraction(sign)
    have_coeff = False
    pending_div = False
    after_star = False
    if _is_digit(sc.peek()):
        num = sc.read_int()
        coeff = Fraction(sign * num)
        have_coeff = True
        if sc.peek() == "/":
            sc.take()
            if _is_digit(sc.peek()):
                den_pos = sc.pos
                den = sc.read_int()
                if den == 0:
                    raise sc.error("zero denominator", den_pos)
                coeff = Fraction(sign * num, den)
            else:
                pending_div = True  # '1/x' style: divide by the next factor
    exponents = [0] * num_vars
    saw_factor = False
    while True:
        c = sc.peek()
        if c == "*" and not pending_div:
            if after_star or not (have_coeff or saw_factor):
                raise sc.error("unexpected '*'")
            sc.take()
            after_star = True
            c = sc.peek()
            if c == "":
                raise sc.error("dangling '*'")
            continue
        if c == "/" and after_star:
            raise sc.error("unexpected '/'")
        if c == "/" and not pending_div and (have_coeff or saw_factor):
            sc.take()
            pending_div = True
            c = sc.peek()
        if not (c.isalpha() or c == "_"):
            if pending_div:
                raise sc.error("expected a variable after '/'")
            break
        name_pos = sc.pos
        name = sc.read_name()
        if name not in names:
            raise sc.error(f"unknown variable {name!r}", name_pos)
        k = names.index(name)
        power = 1
        if sc.peek() == "^":
            sc.take()
            exp_pos = sc.pos
            power = sc.read_int(allow_sign=True)
        else:
            exp_pos = name_pos
        if pending_div:
            power = -power
            pending_div = False
        if power < 0 and not allow_laurent:
            raise sc.error("negative exponents need Laurent input", exp_pos)
        exponents[k] += power
        saw_factor = True
        after_star = False
    if not have_coeff and not saw_factor:
        raise sc.error("expected a term")
    return tuple(exponents), coeff


def parse_poly(text: str, names: Sequence[str], allow_laurent: bool = False,
               line: int = 1, col_offset: int = 0) -> Poly:
    """Parse one polynomial in the named variables."""
    names = list(names)
    num_vars = len(names)
    sc = _Scanner(text, line, col_offset)
    if sc.at_end():
        raise sc.error("empty polynomial")
    terms = {}    # kept canonical, in first-occurrence order: zero sums drop out
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    while True:
        exponents, coeff = _parse_term(sc, names, allow_laurent, num_vars, sign)
        if exponents in terms:
            coeff += terms[exponents]
        if coeff:
            terms[exponents] = coeff
        else:
            terms.pop(exponents, None)
        if sc.at_end():
            return Poly._raw(num_vars, terms)
        c = sc.take()
        if c == "+":
            sign = 1
        elif c == "-":
            sign = -1
        else:
            raise sc.error(f"unexpected {c!r}", sc.pos - 1)
        if sc.at_end():
            raise sc.error("dangling sign")


def split_list(text: str, sep: str = ",") -> List[Tuple[str, int]]:
    """Split on the character `sep`, keeping each piece's start offset in `text`."""
    pieces = []
    start = 0
    for piece in text.split(sep):
        pieces.append((piece, start))
        start += len(piece) + 1
    return pieces


def parse_names(text: str, line: int = 1, col_offset: int = 0, where: str = "",
                reserved: Mapping[str, str] = {}) -> Tuple[str, ...]:
    """Comma-separated distinct variable names, checked by `read_names`."""
    return read_names(split_list(text), line, col_offset, where, reserved)


def read_names(pieces: Sequence[Tuple[str, int]], line: int = 1, col_offset: int = 0,
               where: str = "", reserved: Mapping[str, str] = {}) -> Tuple[str, ...]:
    """Distinct variable names from (piece, offset) pairs; `where` ends each message.

    A name is what a polynomial reads as one.  `reserved` maps a name to the
    error it raises at the name's column.
    """
    names = tuple(piece.strip() for piece, _ in pieces)
    if not all(names):
        raise ParseError(f"empty variable name{where}", line, col_offset + 1)
    for (piece, offset), name in zip(pieces, names):
        sc = _Scanner(piece, line, col_offset + offset + piece.find(name))
        if not (name[0].isalpha() or name[0] == "_") or sc.read_name() != name:
            raise sc.error(f"invalid variable name {name!r}{where}", 0)
        if name in reserved:
            raise sc.error(reserved[name], 0)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"duplicate variable name {name!r}{where}", line,
                             col_offset + 1)
    return names


def parse_field(text: str, names: Sequence[str], col_offset: int = 0) -> VectorField:
    """Comma-separated component polynomials, one per variable."""
    pieces = split_list(text)
    if len(pieces) != len(names):
        raise ParseError(f"{len(pieces)} components for {len(names)} variables",
                         column=col_offset + 1)
    comps = [parse_poly(part, names, col_offset=col_offset + offset)
             for part, offset in pieces]
    return VectorField(comps)


def parse_rational(text: str, line: int = 1, col_offset: int = 0) -> Fraction:
    sc = _Scanner(text, line, col_offset)
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    num = sc.read_int()
    den = 1
    if sc.peek() == "/":
        sc.take()
        den_pos = sc.pos
        den = sc.read_int()
        if den == 0:
            raise sc.error("zero denominator", den_pos)
    if not sc.at_end():
        raise sc.error("trailing input after rational")
    return Fraction(sign * num, den)


def parse_integer(text: str, message: str, line: int = 1, col_offset: int = 0) -> int:
    """Integer literal: ASCII digits with an optional leading '-', nothing else.

    `message` is the error for any other text.
    """
    if not _INTEGER_RE.fullmatch(text):
        raise ParseError(message, line, col_offset + 1)
    return int(text)


def parse_window(text: str, line: int = 1, col_offset: int = 0) -> Tuple[int, int]:
    """Degree window literal 'lo hi': two integers with lo <= hi."""
    words = text.split()
    if len(words) != 2:
        raise ParseError("window needs two integers", line, col_offset + 1)
    lo, hi = (parse_integer(word, "window needs two integers", line, col_offset)
              for word in words)
    if lo > hi:
        raise ParseError("window lower bound exceeds upper bound", line, col_offset + 1)
    return lo, hi


def parse_point(text: str, dim: int) -> Tuple[Fraction, ...]:
    pieces = split_list(text)
    if len(pieces) != dim:
        raise ParseError(f"{len(pieces)} coordinates for dimension {dim}")
    return tuple(parse_rational(part, col_offset=offset) for part, offset in pieces)


def parse_grid(text: str,
               names: Sequence[str]) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Grid literal 'x=-1:1:1, y=0:2:1' -> per-variable (start, stop, step).

    Every declared variable must get a range; ranges are exact rationals with a
    positive step.
    """
    ranges = {}
    for part, offset in split_list(text):
        sc = _Scanner(part, col_offset=offset)
        name_pos = sc.pos
        name = sc.read_name()
        if name not in names:
            raise sc.error(f"unknown variable {name!r}", name_pos)
        if sc.take() != "=":
            raise sc.error("expected '='")
        bounds = []
        remainder = part[sc.pos:]
        segments = remainder.split(":")
        if len(segments) != 3:
            raise sc.error("range must be start:stop:step")
        seg_offset = sc.pos
        for seg in segments:
            bounds.append(parse_rational(seg, col_offset=offset + seg_offset))
            seg_offset += len(seg) + 1
        start, stop, step = bounds
        if step <= 0:
            raise sc.error("step must be positive")
        if start > stop:
            raise sc.error("start exceeds stop")
        if name in ranges:
            raise sc.error(f"duplicate range for {name!r}", name_pos)
        ranges[name] = (start, stop, step)
    missing = [n for n in names if n not in ranges]
    if missing:
        raise ParseError(f"no range for variable(s): {', '.join(missing)}")
    return [ranges[n] for n in names]
