"""`RingSignature.parse` against the character-level oracle in parse_oracle.py.

On every text of a seeded corpus the two give the same element, or a
ParseError with the same message and position.  The corpus holds the edge
cases of the grammar and its budgets, non-ASCII digits, names and spaces,
and random valid and broken texts.
"""

import random
import tracemalloc
from fractions import Fraction

import parse_oracle
from courantkit.ring import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    ExpGen,
    ParseError,
    RingSignature,
)

GAUSS = RingSignature(
    ("x", "y", "z", "éa"),
    (
        ExpGen("E", (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0))),
        ExpGen("_F2", (Fraction(0),) * 4),
    ),
)
RATIONAL = RingSignature(("x", "y"), (ExpGen("E", (Fraction(2), Fraction(0))),), mode="rational")

EDGES = [
    # non-ASCII digits, names and spaces
    "2²", "²", "x²", "½", "٣*x", "١٢/٣", "１２*x", "éa^2*x", "éa²", "3/²", "3/4²", "x^²", "x^٣",
    "x +　y", " x* y ", "x\x1c+\x1fy", "Ⅻ", "x*Ⅻ",
    # the cases the grammar leaves to the order of reading
    "3 / 0", "3/ 0", "3 /0", "x/0", "3/(0)", "x/(x-x)", "x^ - 2", "x^-2", "x^- 2", "x^--2", "x^-",
    "x^", "x^y", "x^(2)", "x^2y", "2x", "x y", "0^-1", "0^0", "0^3", "i^3", "i^-1", "i^-6", "1/i",
    "(1+i)/(1-i)", "x/(2*E)", "x/(2*E)^2", "1/2/3", "2/3^2", "2^2/3", "1/2^-1", "2/4", "007",
    "x^007", "-0", "--x", "x--y", "x-+y", "+x", "2*-x", "x*/y", "", "   ", "()", "(x", "x)",
    "((x)", "x/x", "x/x^0", "x/(x+1)", "1/x", "E^-1", "E^-3/E^-2", "x/E^2", "y*E/(3*E^2)",
    "x^65", "x^-65", "E^-64", "(x+1)^-1", "(x+1)^-65", "(2*E)^-2", "(x-x)^0", "(x-x)^-1",
    "(x+y)/(x+y)", "0*x", "x*0*(x+y)", "i*i", "i", "q", "x + q", "_q", "_F2^3*x", "x + * y",
    "(2-i)*x^2*E^-3 + 1/3*y", "(3/2+3/4*i)*x^2*y*E^-1", "(2-i)*(3+i)*x", "x - x", "x - x + y",
    # the budgets
    "(x+y+z+1)^60", "(x+y+1)^30", "(x+y+z+1)^8*(x+y+z+1)^8", "0*(x+y+z+1)^8*(x+y+z+1)^8",
    "(x+y+z+1)^8*(x+y+z+1)^8*0", "(x+y+z+1)^8*0*(x+y+z+1)^8", "(x+y+z+1)^8/(x-x)",
    " + ".join(f"x^{a}*y^{b}" for a in range(15) for b in range(14)),
    " + ".join(f"x^{a}*y^{b}" for a in range(15) for b in range(14)) + " - x^0*y^0",
    " + ".join(f"x^{a}*y^{b} - x^{a}*y^{b}" for a in range(15) for b in range(14)),
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    "1 + " + "(" * 400 + "x" + ")" * 400,
    "7" * MAX_LITERAL_DIGITS, "7" * (MAX_LITERAL_DIGITS + 1), "x/" + "3" * (MAX_LITERAL_DIGITS + 1),
    "x^" + "1" * (MAX_LITERAL_DIGITS + 1), "1/" + "2" * MAX_LITERAL_DIGITS,
]

ATOMS = ["0", "1", "2", "12", "1/2", "3/4", "2/4", "0/3", "3/0", "i", "x", "y", "E", "éa", "_F2",
         "q", "٣", "²", "½", "x²", "2²", "00", "7 / 2"]
NOISE = ["+", "-", "*", "/", "^", "^-", " ", "(", ")", "　", "--", "^2", "^-1", "^0", "^ - 2",
         "^65", "**", "\t", " "]


def _random_text(rng: random.Random, depth: int = 0) -> str:
    k = rng.random()
    if depth > 3 or k < 0.35:
        atom = rng.choice(ATOMS)
        if rng.random() < 0.3:
            atom += "^" + rng.choice(["2", "-1", "0", "3", "-2", " -3", "64", "-64"])
        return atom
    if k < 0.5:
        power = f"^{rng.randint(-3, 4)}" if rng.random() < 0.4 else ""
        return "(" + _random_text(rng, depth + 1) + ")" + power
    if k < 0.6:
        return "-" + _random_text(rng, depth + 1)
    op = rng.choice([" + ", "-", "*", " / ", "*", "+"])
    return _random_text(rng, depth + 1) + op + _random_text(rng, depth + 1)


def _broken(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        if rng.random() < 0.4 and chars:
            del chars[min(at, len(chars) - 1)]
        else:
            chars.insert(at, rng.choice(NOISE + ATOMS))
    return "".join(chars)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as ex:
        return ex.message, ex.pos


def _disagreements(sig, texts):
    out = []
    for text in texts:
        new = _outcome(sig.parse, text)
        old = _outcome(lambda t: parse_oracle.parse(sig, t), text)
        if new != old:
            out.append((text[:80], new, old))
    return out


def test_parser_agrees_with_the_oracle_on_the_edge_cases():
    for sig in (GAUSS, RATIONAL):
        assert _disagreements(sig, EDGES) == []


def test_parser_agrees_with_the_oracle_on_random_texts():
    rng = random.Random(16)
    texts = []
    for _ in range(3000):
        text = _random_text(rng)
        texts.append(_broken(rng, text) if rng.random() < 0.5 else text)
    assert _disagreements(GAUSS, texts[::2]) == []
    assert _disagreements(RATIONAL, texts[1::2]) == []


def test_errors_keep_their_messages_and_positions():
    expected = {
        "2²": ("number has too many digits", 0),
        "²": ("number has too many digits", 0),
        "x²": ("unknown name 'x²'", 0),
        "½": ("expected a number, name or '('", 0),
        "3 / 0": ("zero denominator", 1),
        "3/²": ("denominator has too many digits", 2),
        "x^ - 2": ("coordinate monomials are not invertible", 1),
        "0^-1": ("only single-term elements are invertible", 1),
        "x/(x+1)": ("division only by rationals or units", 1),
        "(x+y+z+1)^60": ("expression exceeds the limit of 200 terms", 9),
        "(x+y+z+1)^8*(x+y+z+1)^8": ("expression exceeds the limit of 200 terms", 11),
        "x y": ("unexpected character 'y'", 2),
        "(x": ("expected ')'", 2),
        "7" * (MAX_LITERAL_DIGITS + 1): ("number has too many digits", 0),
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1): (
            f"parentheses nest deeper than the limit of {MAX_NESTING}", MAX_NESTING),
    }
    for text, want in expected.items():
        assert _outcome(GAUSS.parse, text) == want, text
    x = GAUSS.coord("x")
    assert GAUSS.parse("٣*x") == 3 * x
    assert GAUSS.parse("x +　x") == 2 * x
    assert GAUSS.parse("0^0") == GAUSS.one()
    assert GAUSS.parse("i^3") == GAUSS.parse("-i")
    assert GAUSS.parse("1/2/3") == GAUSS.const(Fraction(1, 6))
    assert GAUSS.parse("x/(2*E)") == x * GAUSS.exp_gen("E") ** -1 / 2
    assert GAUSS.parse("éa^2") == GAUSS.coord("éa") ** 2


def test_parsing_memory_does_not_grow_with_the_token_count():
    text = "x+" * 300000 + "x"
    tracemalloc.start()
    try:
        value = RATIONAL.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 300001 * RATIONAL.coord("x")
    assert peak < 1_000_000


def test_bare_zero_and_one_are_the_shared_constants():
    # the two texts that skip the scanner, and their near neighbours, which
    # do not: each gives exactly what the oracle gives, element or error
    texts = ["0", "1", "00", "01", " 0", "1 ", "+1", "-0", "1/1", "0^2", "١", "²",
             "1" * (MAX_LITERAL_DIGITS + 1)]
    for sig in (GAUSS, RATIONAL):
        assert _disagreements(sig, texts) == []
        assert sig.parse("0") is sig.zero() and sig.parse("1") is sig.one()
