"""Compact text grammar for measure expressions.

    expr     := term ('*' term)*
    term     := atom ('^' exponent)?
    atom     := 'mp' '(' rational ')' | 'as'
              | 'rat' '(' coeffs ';' coeffs ')'
    exponent := rational | '(' rational ')'
    rational := integer, fraction like 1/3, or decimal like 0.5
    coeffs   := rational (',' rational)*   (ascending polynomial)

Examples: mp(1)^3, as*mp(0.5), mp(1)^(1/3), rat(2,2;1,2).
Failures raise ParseError carrying the caret position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import closedform, measures
from .errors import ParseError

__all__ = ["parse_measure", "parse_target", "FAMILY_ALIASES"]

FAMILY_ALIASES = ("as", "fc2", "fc3", "bures", "bures2", "mp-sqrt", "mp-cbrt")

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:/\d+)?")
_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_-]*")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self._skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self.pos += 1

    def match(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def name(self):
        self._skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a factor name", self.text, self.pos)
        self.pos = m.end()
        return m.group(0).lower()

    def rational(self):
        self._skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a rational number", self.text, self.pos)
        self.pos = m.end()
        try:
            return Fraction(m.group(0))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {m.group(0)!r}", self.text, m.start()) from None
        except ValueError as exc:
            raise ParseError(str(exc), self.text, m.start()) from exc

    def done(self):
        self._skip_ws()
        return self.pos >= len(self.text)


def _parse_coeffs(sc):
    coeffs = [sc.rational()]
    while sc.match(","):
        coeffs.append(sc.rational())
    return coeffs


def _parse_atom(sc):
    start = sc.pos
    name = sc.name()
    if name == "mp":
        sc.expect("(")
        c = sc.rational()
        sc.expect(")")
        return measures.mp(c)
    if name == "as":
        return measures.arcsine()
    if name == "rat":
        sc.expect("(")
        numer = _parse_coeffs(sc)
        sc.expect(";")
        denom = _parse_coeffs(sc)
        sc.expect(")")
        return measures.rational_factor(numer, denom)
    raise ParseError(f"unknown factor {name!r}", sc.text, start)


def _parse_term(sc):
    spec = _parse_atom(sc)
    if sc.match("^"):
        if sc.match("("):
            expo = sc.rational()
            sc.expect(")")
        else:
            expo = sc.rational()
        spec = measures.free_power(spec, expo)
    return spec


def parse_measure(text):
    """Parse a measure expression into a MeasureSpec."""
    sc = _Scanner(text)
    spec = _parse_term(sc)
    while sc.match("*"):
        spec = measures.boxtimes(spec, _parse_term(sc))
    if not sc.done():
        raise ParseError("unexpected trailing input", text, sc.pos)
    return spec


def parse_target(text):
    """Resolve a CLI measure argument.

    Returns (family, spec): family is the closed-form Family when the
    argument is one of the aliases (or a plain mp(c) / as atom), else
    None; spec is always the equivalent MeasureSpec.
    """
    t = text.strip().lower()
    if t in FAMILY_ALIASES:
        fam = closedform.family(t)
        return fam, fam.measure
    if re.fullmatch(r"mp\(\s*" + _NUMBER.pattern + r"\s*\)", t):
        fam = closedform.family(t.replace(" ", ""))
        return fam, fam.measure
    return None, parse_measure(text)
