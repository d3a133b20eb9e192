"""JSON definitions: serialize and parse presentations with path diagnostics.

A definition document is a single JSON object.  All ring elements are strings
in the expression grammar of the coefficient ring; all frame and coordinate
indices are 1-based in documents and 0-based in memory.  Parsing is strict:
unknown keys, malformed indices and inconsistent shapes raise SchemaError with
the JSON path of the offending value, and ring expression errors keep their
character position.

Each block has one reader, which documents and the CLI flags share, so only
the root of an error's $-path says where a block came from: `sections_from_json`
(subbundles, --subbundle), `vform_from_json` (H, two_form, a section's xi),
`jacobi_pair_from_json` (jacobi, --lambda/--e) and `gcr_from_json` (gcr, --gcr).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .algebroid import MAX_MODULE_RANK, Algebroid
from .courant import CourantPresentation, CSection
from .exterior import AForm, FScalar, Multivector, _fscalar, _unchecked
from .gcr import Distribution, GCRStructure, build_H_bundle, cr_to_gcr, tangent_restriction
from .ring import MAX_LITERAL_DIGITS, ExpGen, ParseError, RingElem, RingSignature


class SchemaError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.message = message
        self.path = path


def _expect(doc, typ, path, what):
    if not isinstance(doc, typ):
        raise SchemaError(f"expected {what}", path)
    return doc


def _check_keys(doc, allowed, path):
    extra = set(doc) - set(allowed)
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}", path)


def _int_at_least(value, minimum: int, what: str, path) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise SchemaError(f"expected a {what}", path)
    return value


def _spelled_length(text: str) -> int:
    """Length of text with its exponent written out as digits ("1e5": 6)."""
    mantissa, _, exponent = text.lower().partition("e")
    if not exponent or len(text) > MAX_LITERAL_DIGITS:
        return len(text)
    try:
        return len(mantissa) + abs(int(exponent))
    except ValueError:  # not an exponent: Fraction rejects the text
        return len(text)


def _fraction(value, path) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a rational number", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # the literal budget of the ring parser, with the exponent spelled out
        if _spelled_length(value) > MAX_LITERAL_DIGITS:
            raise SchemaError(f"rational has more than {MAX_LITERAL_DIGITS} digits", path)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"bad rational {value!r}", path) from None
    raise SchemaError("expected a rational number", path)


def parse_elem(sig: RingSignature, value, path) -> RingElem:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError("expected a ring expression string", path)
    text = str(value)
    try:
        return sig.parse(text)
    except ParseError as ex:
        raise SchemaError(str(ex), path) from None


def _matrix(sig, doc, nrows, ncols, path):
    _expect(doc, list, path, "a matrix (list of rows)")
    if nrows is not None and len(doc) != nrows:
        raise SchemaError(f"expected {nrows} rows, got {len(doc)}", path)
    out = []
    for i, row in enumerate(doc):
        _expect(row, list, f"{path}[{i}]", "a row (list)")
        if ncols is not None and len(row) != ncols:
            raise SchemaError(f"expected {ncols} entries, got {len(row)}", f"{path}[{i}]")
        out.append([parse_elem(sig, v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def _canonical_int(text: str):
    """The integer that text spells in canonical decimal ("-2", "17"), else None.

    "01", " 1" and "+1" are refused, so that no two spellings of one key can
    both appear in a JSON object and the later one silently win.
    """
    try:
        k = int(text)
    except ValueError:
        return None
    return k if str(k) == text else None


def _index_key(key, size, width, path) -> tuple:
    parts = key.split(",") if key else []
    if len(parts) != width:
        raise SchemaError(f"expected {width} indices, got {len(parts)}", path)
    out = []
    for p in parts:
        k = _canonical_int(p)
        if k is None:
            raise SchemaError(f"bad index {p!r}", path)
        if not 1 <= k <= size:
            raise SchemaError(f"index {k} out of range 1..{size}", path)
        out.append(k - 1)
    if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
        raise SchemaError("indices must be strictly increasing", path)
    return tuple(out)


# -- ring signature --------------------------------------------------------------


def sig_to_json(sig: RingSignature) -> dict:
    doc = {"coords": list(sig.coords), "mode": sig.mode}
    if sig.exps:
        doc["exps"] = [
            {"name": e.name, "row": [str(f) for f in e.row]} for e in sig.exps
        ]
    return doc


def sig_from_json(doc, path="$.ring") -> RingSignature:
    _expect(doc, dict, path, "an object")
    _check_keys(doc, ("coords", "exps", "mode"), path)
    coords = _expect(doc.get("coords", []), list, f"{path}.coords", "a list of names")
    for i, c in enumerate(coords):
        _expect(c, str, f"{path}.coords[{i}]", "a name string")
    exps = []
    for i, e in enumerate(doc.get("exps", [])):
        epath = f"{path}.exps[{i}]"
        _expect(e, dict, epath, "an object")
        _check_keys(e, ("name", "row"), epath)
        name = _expect(e.get("name"), str, f"{epath}.name", "a name string")
        row = _expect(e.get("row"), list, f"{epath}.row", "a list of rationals")
        exps.append(
            ExpGen(name, tuple(_fraction(v, f"{epath}.row[{j}]") for j, v in enumerate(row)))
        )
    mode = doc.get("mode", "gaussian")
    if mode not in ("gaussian", "rational"):
        raise SchemaError(f"unknown mode {mode!r}", f"{path}.mode")
    try:
        return RingSignature(tuple(coords), tuple(exps), mode=mode)
    except ValueError as ex:
        raise SchemaError(str(ex), path) from None


# -- forms, scalars, sections ------------------------------------------------------


def _terms_to_json(w, coeff_to_json) -> dict:
    """Document of a form or multivector: degree and 1-based index keys."""
    return {
        "degree": w.degree,
        "terms": {",".join(str(i + 1) for i in I): coeff_to_json(c) for I, c in w.sorted_terms()},
    }


def _terms_from_json(doc, rank, path) -> tuple:
    """Degree and the (index, value, path) entries of a form or multivector document."""
    _expect(doc, dict, path, "an object")
    _check_keys(doc, ("degree", "terms"), path)
    degree = _int_at_least(doc.get("degree"), 0, "non-negative integer degree", f"{path}.degree")
    tdoc = _expect(doc.get("terms", {}), dict, f"{path}.terms", "an object")

    def entries():
        for key, value in tdoc.items():
            kpath = f"{path}.terms[{key!r}]"
            yield _index_key(key, rank, degree, kpath), value, kpath

    return degree, entries()


def aform_to_json(w: AForm) -> dict:
    return _terms_to_json(w, lambda vec: [c.to_str() for c in vec])


def vform_from_json(alg: Algebroid, doc, path, degree: int, what: str) -> AForm:
    """A module-valued form that must have the given degree; what names it in the error."""
    found, entries = _terms_from_json(doc, alg.rank, path)
    terms = {}
    for I, vec, kpath in entries:
        _expect(vec, list, kpath, "a coefficient list")
        if len(vec) != alg.rank_v:
            raise SchemaError(f"expected {alg.rank_v} coefficients, got {len(vec)}", kpath)
        terms[I] = tuple(parse_elem(alg.sig, v, f"{kpath}[{j}]") for j, v in enumerate(vec))
    if found != degree:
        raise SchemaError(f"{what} must have degree {degree}", f"{path}.degree")
    return AForm(alg.sig, alg.rank, alg.rank_v, degree, terms)


def fscalar_to_json(s: FScalar) -> dict:
    return {str(g): s.parts[g].to_str() for g in sorted(s.parts)}


def fscalar_from_json(sig, doc, path) -> FScalar:
    """A graded scalar; every grade and part is checked here, so it is built unchecked."""
    _expect(doc, dict, path, "an object mapping grade to expression")
    parts = {}
    for key, value in doc.items():
        g = _canonical_int(key)
        if g is None:
            raise SchemaError(f"bad grade {key!r}", path)
        e = parse_elem(sig, value, f"{path}[{key!r}]")
        if not e.is_zero():
            parts[g] = e
    return _fscalar(sig, parts)


def multivector_to_json(P: Multivector) -> dict:
    return _terms_to_json(P, fscalar_to_json)


def multivector_from_json(sig, rank, doc, path) -> Multivector:
    """A multivector, built unchecked: `_terms_from_json` checks every index.

    A key of degree increasing indices in 1..rank exists only for degree <= rank.
    """
    degree, entries = _terms_from_json(doc, rank, path)
    terms = {}
    for I, value, kpath in entries:
        c = fscalar_from_json(sig, value, kpath)
        if c.parts:
            terms[I] = c
    return _unchecked(Multivector, sig, rank, degree, terms)


def csection_to_json(s: CSection) -> dict:
    return {"x": [c.to_str() for c in s.x], "xi": aform_to_json(s.xi)}


def csection_from_json(alg: Algebroid, doc, path) -> CSection:
    _expect(doc, dict, path, "an object")
    _check_keys(doc, ("x", "xi"), path)
    xdoc = _expect(doc.get("x", []), list, f"{path}.x", "a coefficient list")
    if len(xdoc) != alg.rank:
        raise SchemaError(f"expected {alg.rank} coefficients, got {len(xdoc)}", f"{path}.x")
    x = [parse_elem(alg.sig, v, f"{path}.x[{j}]") for j, v in enumerate(xdoc)]
    xi = None
    if "xi" in doc:
        xi = vform_from_json(alg, doc["xi"], f"{path}.xi", 1, "section form part")
    return CSection(alg, x, xi)


def sections_from_json(alg: Algebroid, doc, path) -> list:
    """A list of sections, the one at index i read at path[i]."""
    _expect(doc, list, path, "a list of sections")
    return [csection_from_json(alg, s, f"{path}[{i}]") for i, s in enumerate(doc)]


def jacobi_pair_from_json(alg: Algebroid, doc, path) -> tuple:
    """(lambda, e) over alg: the bivector at path.lambda and the vector at path.e."""
    lam = multivector_from_json(alg.sig, alg.rank, doc.get("lambda", {}), f"{path}.lambda")
    e = multivector_from_json(alg.sig, alg.rank, doc.get("e", {}), f"{path}.e")
    if lam.degree != 2:
        raise SchemaError("expected a bivector", f"{path}.lambda.degree")
    if e.degree != 1:
        raise SchemaError("expected a vector", f"{path}.e.degree")
    return lam, e


# -- algebroid ----------------------------------------------------------------------


def algebroid_to_json(alg: Algebroid) -> dict:
    """Top-level definition fragment: rankA, anchor, structure, module."""
    doc = {
        "rankA": alg.rank,
        "anchor": [[c.to_str() for c in row] for row in alg.anchor],
    }
    if alg.structure:
        doc["structure"] = {
            f"{i + 1},{j + 1}": [c.to_str() for c in vec]
            for (i, j), vec in sorted(alg.structure.items())
        }
    has_action = any(
        any(any(not c.is_zero() for c in row) for row in mat) for mat in alg.theta
    )
    if alg.rank_v != 1 or has_action:
        module = {"rankV": alg.rank_v}
        if has_action:
            module["action"] = [
                [[c.to_str() for c in row] for row in mat] for mat in alg.theta
            ]
        doc["module"] = module
    return doc


def algebroid_from_json(sig: RingSignature, doc, path="$") -> Algebroid:
    rank = _int_at_least(doc.get("rankA"), 1, "positive integer rankA", f"{path}.rankA")
    rank_v = 1
    if "module" in doc:
        mdoc = _expect(doc["module"], dict, f"{path}.module", "an object")
        _check_keys(mdoc, ("rankV", "action"), f"{path}.module")
        rank_v = _int_at_least(
            mdoc.get("rankV", 1), 1, "positive integer rankV", f"{path}.module.rankV"
        )
        if rank_v > MAX_MODULE_RANK:
            raise SchemaError(
                f"module rank {rank_v} is over the limit of {MAX_MODULE_RANK}",
                f"{path}.module.rankV",
            )
    anchor = _matrix(sig, doc.get("anchor", []), rank, sig.ncoords, f"{path}.anchor")
    structure = {}
    sdoc = _expect(doc.get("structure", {}), dict, f"{path}.structure", "an object")
    for key, vec in sdoc.items():
        kpath = f"{path}.structure[{key!r}]"
        i, j = _index_key(key, rank, 2, kpath)
        _expect(vec, list, kpath, "a coefficient list")
        if len(vec) != rank:
            raise SchemaError(f"expected {rank} coefficients, got {len(vec)}", kpath)
        structure[(i, j)] = tuple(
            parse_elem(sig, v, f"{kpath}[{m}]") for m, v in enumerate(vec)
        )
    theta = None
    if "module" in doc and "action" in doc["module"]:
        adoc = _expect(doc["module"]["action"], list, f"{path}.module.action", "a list")
        if len(adoc) != rank:
            raise SchemaError(
                f"expected {rank} matrices, got {len(adoc)}", f"{path}.module.action"
            )
        theta = [
            _matrix(sig, mat, rank_v, rank_v, f"{path}.module.action[{i}]")
            for i, mat in enumerate(adoc)
        ]
    try:
        return Algebroid(sig, rank, rank_v, anchor, structure, theta)
    except ValueError as ex:
        raise SchemaError(str(ex), path) from None


# -- whole definitions ---------------------------------------------------------------

_TOP_KEYS = (
    "name",
    "ring",
    "rankA",
    "anchor",
    "structure",
    "module",
    "H",
    "allow_nonclosed",
    "two_form",
    "subbundles",
    "gcr",
    "jacobi",
    "expected",
)


def definition_to_json(payload: dict) -> dict:
    """Catalog payload (rich objects) to a plain JSON-able document."""
    alg = payload["algebroid"]
    doc = {"ring": sig_to_json(alg.sig)}
    doc.update(algebroid_to_json(alg))
    if "name" in payload:
        doc["name"] = payload["name"]
    C = payload.get("courant")
    if C is not None and not C.twist.is_zero():
        doc["H"] = aform_to_json(C.twist)
        if not C.closed_twist:
            doc["allow_nonclosed"] = True
    if payload.get("two_form") is not None:
        doc["two_form"] = aform_to_json(payload["two_form"])
    if payload.get("subbundles"):
        doc["subbundles"] = {
            name: [csection_to_json(s) for s in gens]
            for name, gens in sorted(payload["subbundles"].items())
        }
    S = payload.get("gcr")
    if S is None and payload.get("distribution") is not None:
        S = cr_to_gcr(payload["courant"], payload["distribution"], payload["j_matrix"])
    if S is not None:
        dist = S.hb.dist
        doc["gcr"] = {
            "h": dist.h,
            "frame": [[c.to_str() for c in row] for row in dist.frame],
            "j": [[c.to_str() for c in row] for row in S.j],
        }
    if payload.get("jacobi") is not None:
        jj = payload["jacobi"]
        doc["jacobi"] = {
            "restrict": jj["algebroid"].rank != alg.rank,
            "lambda": multivector_to_json(jj["lambda"]),
            "e": multivector_to_json(jj["e"]),
        }
    if payload.get("expected"):
        doc["expected"] = payload["expected"]
    return doc


def gcr_from_json(C: CourantPresentation, doc, path) -> GCRStructure:
    """A gcr block ({h, frame, j}) on an already built presentation."""
    alg = C.alg
    _expect(doc, dict, path, "an object")
    _check_keys(doc, ("h", "frame", "j"), path)
    h = _int_at_least(doc.get("h"), 1, "positive integer h", f"{path}.h")
    frame = _matrix(alg.sig, doc.get("frame", []), alg.rank, alg.rank, f"{path}.frame")
    j = _matrix(alg.sig, doc.get("j", []), 2 * h, 2 * h, f"{path}.j")
    try:
        return GCRStructure(build_H_bundle(C, Distribution(alg, frame, h)), j)
    except ValueError as ex:
        raise SchemaError(str(ex), path) from None


def definition_from_json(doc) -> dict:
    """Parse a definition document back into rich objects.

    Construction errors (invalid brackets, non-closed twist without the
    explicit flag, degenerate frames) are schema errors: the document
    describes an object that cannot be built.
    """
    _expect(doc, dict, "$", "an object")
    _check_keys(doc, _TOP_KEYS, "$")
    if "ring" not in doc:
        raise SchemaError("missing required key 'ring'", "$")
    if "rankA" not in doc:
        raise SchemaError("missing required key 'rankA'", "$")
    sig = sig_from_json(doc["ring"], "$.ring")
    alg = algebroid_from_json(sig, doc, "$")
    payload = {"algebroid": alg}
    if "name" in doc:
        payload["name"] = _expect(doc["name"], str, "$.name", "a string")

    twist = vform_from_json(alg, doc["H"], "$.H", 3, "twist") if "H" in doc else None
    allow = doc.get("allow_nonclosed", False)
    if not isinstance(allow, bool):
        raise SchemaError("expected a boolean", "$.allow_nonclosed")
    try:
        payload["courant"] = CourantPresentation(alg, twist, allow_nonclosed=allow)
    except ValueError as ex:
        raise SchemaError(str(ex), "$.H") from None

    if "two_form" in doc:
        payload["two_form"] = vform_from_json(alg, doc["two_form"], "$.two_form", 2, "two_form")

    if "subbundles" in doc:
        sdoc = _expect(doc["subbundles"], dict, "$.subbundles", "an object")
        payload["subbundles"] = {
            name: sections_from_json(alg, gens, f"$.subbundles[{name!r}]")
            for name, gens in sdoc.items()
        }

    if "gcr" in doc:
        payload["gcr"] = gcr_from_json(payload["courant"], doc["gcr"], "$.gcr")

    if "jacobi" in doc:
        jdoc = _expect(doc["jacobi"], dict, "$.jacobi", "an object")
        _check_keys(jdoc, ("restrict", "lambda", "e"), "$.jacobi")
        restrict = jdoc.get("restrict", True)
        if not isinstance(restrict, bool):
            raise SchemaError("expected a boolean", "$.jacobi.restrict")
        try:
            tangent = tangent_restriction(alg) if restrict else alg
        except ValueError as ex:
            raise SchemaError(str(ex), "$.jacobi") from None
        lam, e = jacobi_pair_from_json(tangent, jdoc, "$.jacobi")
        payload["jacobi"] = {"algebroid": tangent, "lambda": lam, "e": e}

    if "expected" in doc:
        payload["expected"] = _expect(doc["expected"], dict, "$.expected", "an object")
    return payload


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


def loads_json(text: str, path: str = "$"):
    """JSON text to a document; syntax errors keep their position.

    path names the document in the error, "$.e1" for the --e1 argument.
    Nesting deeper than the decoder's recursion allows is an error at path too.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        where = f"line {ex.lineno} column {ex.colno}"
        raise SchemaError(f"invalid JSON: {ex.msg} ({where})", path) from None
    except RecursionError:
        raise SchemaError("invalid JSON: arrays and objects nest too deeply", path) from None


def loads_definition(text: str) -> dict:
    """JSON text to a rich payload; JSON syntax errors keep their position."""
    return definition_from_json(loads_json(text))
