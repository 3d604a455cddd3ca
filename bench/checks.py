"""Output checks that do not use the code under test.

Polynomials are read back from the CLI's own text and JSON renderings into
plain ``{frozenset of (var, exp): coeff}`` dicts, so that a defect in the
package's polynomial layer cannot hide a defect in its output.  Every check
returns ``None`` on success or a one-line reason on failure.
"""

import hashlib
import json
from math import factorial


def a000260(n):
    """Intervals of the size-n rotation lattice: 2 (4n+1)! / ((n+1)! (3n+2)!)."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def mask_verify_json(data):
    """The verify report list with its per-suite ``wall_time`` dropped."""
    reports = json.loads(data)
    for rep in reports:
        rep.pop("wall_time", None)
    return json.dumps(reports, sort_keys=True).encode()


def digest(kind, data):
    """Digest of one command's stdout; ``kind`` names the masking rule."""
    if kind == "verify_json":
        data = mask_verify_json(data)
    return sha256(data)


def _key(exps):
    return frozenset((name, e) for name, e in exps.items() if e)


def parse_poly_text(text):
    """Read the ``str`` form of a polynomial: ``3 x y^2 - z + 1``."""
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "- " + text[1:]
    else:
        text = "+ " + text
    tokens = text.split()
    out = {}
    i = 0
    while i < len(tokens):
        sign = tokens[i]
        if sign not in ("+", "-"):
            raise ValueError(f"expected a sign at token {i} of {text[:60]!r}")
        i += 1
        coeff = None
        exps = {}
        while i < len(tokens) and tokens[i] not in ("+", "-"):
            tok = tokens[i]
            if tok.isdigit():
                if coeff is not None or exps:
                    raise ValueError(f"misplaced coefficient {tok!r}")
                coeff = int(tok)
            else:
                name, _, e = tok.partition("^")
                exps[name] = exps.get(name, 0) + (int(e) if e else 1)
            i += 1
        if coeff is None and not exps:
            raise ValueError("empty term")
        coeff = 1 if coeff is None else coeff
        key = _key(exps)
        out[key] = out.get(key, 0) + (coeff if sign == "+" else -coeff)
    return {k: c for k, c in out.items() if c}


def parse_poly_json(records):
    out = {}
    for rec in records:
        key = _key(rec["exp"])
        out[key] = out.get(key, 0) + rec["coeff"]
    return {k: c for k, c in out.items() if c}


def parse_series_text(lines):
    """Read ``[t^k] poly`` lines into ``{k: poly}``."""
    out = {}
    for line in lines:
        head, _, body = line.partition("] ")
        if not head.startswith("[t^"):
            raise ValueError(f"not a series line: {line[:60]!r}")
        out[int(head[3:])] = parse_poly_text(body)
    return out


def parse_series_json(doc):
    return {k: parse_poly_json(c) for k, c in enumerate(doc["coeffs"]) if c}


def remap(poly, rule):
    """Apply a monomial map: ``rule`` sends each variable to a target name,
    or to ``None`` for the substitution var = 1."""
    out = {}
    for key, c in poly.items():
        exps = {}
        for name, e in key:
            target = rule.get(name, name)
            if target is not None:
                exps[target] = exps.get(target, 0) + e
        k = _key(exps)
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _series_sections(text):
    """Split the text output of ``series`` into its titled sections."""
    sections = {}
    current = None
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith("["):
            current = line[:-1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return sections


def _first_difference(a, b, upto, label):
    for k in range(upto):
        if a.get(k, {}) != b.get(k, {}):
            return f"{label} differ at t^{k}"
    return None


# ---- enumerate ------------------------------------------------------------

def check_poly_total(poly_text, n):
    poly = parse_poly_text(poly_text.decode())
    total = sum(poly.values())
    if total != a000260(n):
        return f"DD_{n} coefficient sum {total} != A000260({n}) = {a000260(n)}"
    return None


def check_poly_against_full(poly_text, full_json, n):
    """DD_n(x, y, ybar, 1) equals [t^n] of the FULL series at u = v = 1."""
    dd = remap(parse_poly_text(poly_text.decode()), {"xbar": None})
    full = parse_series_json(json.loads(full_json)["intervals"])
    if n not in full:
        return f"FULL series has no t^{n} coefficient"
    series_side = remap(full[n], {"u": None, "v": None})
    if dd != series_side:
        return f"DD_{n}(x, y, ybar, 1) != [t^{n}] FULL(u=v=1)"
    return None


def check_csv_rows(csv_text, n):
    lines = csv_text.decode().rstrip("\n").split("\n")
    if not lines or lines[0] != "n,lo,hi,dx,dy,dybar,dxbar,q,ll,rr,sync":
        return "CSV header is missing or wrong"
    rows = len(lines) - 1
    if rows != a000260(n):
        return f"CSV has {rows} rows, expected A000260({n}) = {a000260(n)}"
    return None


# ---- series ---------------------------------------------------------------

def check_q_against_full(q_text, full_json, upto):
    """The q series at q = 1 equals the FULL series through t^(upto-1)."""
    sections = _series_sections(q_text.decode())
    full_doc = json.loads(full_json)
    for name in ("intervals", "indecomposable"):
        if name not in sections:
            return f"q output has no {name!r} section"
        q = {k: remap(p, {"q": None}) for k, p in parse_series_text(sections[name]).items()}
        q = {k: p for k, p in q.items() if p}
        full = parse_series_json(full_doc[name])
        reason = _first_difference(q, full, upto, f"Q(q=1) and FULL {name}")
        if reason:
            return reason
    return None


def check_canopy_against_full(canopy_json, full_json, upto):
    """CANOPY equals FULL at x = 1, v = u, y = LL, ybar = RR through t^(upto-1)."""
    canopy = parse_series_json(json.loads(canopy_json))
    full = parse_series_json(json.loads(full_json)["intervals"])
    rule = {"x": None, "v": "u", "y": "LL", "ybar": "RR"}
    full = {k: remap(p, rule) for k, p in full.items()}
    return _first_difference(canopy, full, upto, "CANOPY and FULL(x=1, v=u, y=LL, ybar=RR)")


# ---- verify ---------------------------------------------------------------

def check_verify_passed(verify_json, suites):
    reports = json.loads(verify_json)
    ids = [r.get("check_id") for r in reports]
    if ids != list(suites):
        return f"verify reported suites {ids}, expected {list(suites)}"
    bad = [r["check_id"] for r in reports if r.get("status") != "pass"]
    if bad:
        return f"verify suites not passing: {bad}"
    return None
