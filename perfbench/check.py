"""Correctness checks that share no code with ``hypstab``.

Certificates are re-expanded with sympy, scan points are checked against
sympy gradients, LP decisions are checked against the brute-force oracle and
re-verified by hand, and statuses are compared with the known-answer table.

Each check returns ``(hard, failed)``.  ``hard`` lists broken exact promises;
any entry fails the whole run.  ``failed`` names why the operation counts as
failed (it raised, exited non-zero, or contradicts the known answer), or is
``None``.
"""
from __future__ import annotations

import json
from fractions import Fraction

import sympy

import known

NEGATIVE = {"NotSemiStable", "NotStable"}


def symbols(nvars: int):
    return sympy.symbols(f"x0:{nvars}")


def to_sympy(text: str, nvars: int):
    xs = symbols(nvars)
    return sympy.sympify(text.replace("^", "**"), locals={str(x): x for x in xs})


def certificate_error(text: str, nvars: int, cert: dict) -> str | None:
    """Re-expand f under x_j -> sum_k sigma[k][j] * x_k and check every
    support weight; None when the certificate holds."""
    xs = symbols(nvars)
    sigma = sympy.Matrix([[sympy.Rational(v) for v in row] for row in cert["sigma"]])
    r = [int(v) for v in cert["r"]]
    if sigma.shape != (nvars, nvars) or len(r) != nvars:
        return "certificate has the wrong size"
    if sigma.det() == 0:
        return "certificate matrix is singular"
    if sum(r) != 0 or not any(r):
        return f"weights {r} are zero or do not sum to zero"
    images = {xs[j]: sum(sigma[k, j] * xs[k] for k in range(nvars)) for j in range(nvars)}
    g = sympy.Poly(sympy.expand(to_sympy(text, nvars).xreplace(images)), *xs)
    floor = 1 if cert["strict"] else 0
    for exp in g.monoms():
        weight = sum(e * w for e, w in zip(exp, r))
        if weight < floor:
            return f"monomial {exp} of the transformed polynomial has weight {weight}"
    return None


def nonsingular_points(text: str, nvars: int, points) -> list:
    """Reported scan points whose gradient does not vanish."""
    xs = symbols(nvars)
    f = to_sympy(text, nvars)
    grads = [sympy.diff(f, x) for x in xs]
    bad = []
    for p in points:
        values = dict(zip(xs, (sympy.Rational(c) for c in p)))
        if any(g.xreplace(values) != 0 for g in grads):
            bad.append(p)
    return bad


def check_analyze(inp, outcome: dict) -> tuple[list[str], str | None]:
    """Check one ``analyze`` run: ``outcome`` has ``rc``, ``out`` (the JSON
    report text) and ``error``."""
    if outcome.get("error") or outcome["rc"] != 0:
        return [], f"exit {outcome['rc']}: {outcome.get('error') or outcome.get('err', '')}".strip()
    report = json.loads(outcome["out"])
    nvars = inp.n + 1
    hard = []
    certs = {}
    for kind in ("strict", "nonstrict"):
        cert = report["search"][f"{kind}_certificate"]
        if cert is None:
            continue
        if cert["strict"] != (kind == "strict"):
            hard.append(f"{inp.name}: {kind} certificate has strict = {cert['strict']}")
        err = certificate_error(inp.text, nvars, cert)
        if err:
            hard.append(f"{inp.name}: {kind} certificate fails re-expansion: {err}")
        else:
            certs[kind] = cert
    status = report["status"]
    if status == "NotSemiStable" and "strict" not in certs:
        hard.append(f"{inp.name}: NotSemiStable without a verified strict certificate")
    if status == "NotStable" and not certs:
        hard.append(f"{inp.name}: NotStable without a verified certificate")
    for p in nonsingular_points(inp.text, nvars, report["scan"]["points"]):
        hard.append(f"{inp.name}: scan point {p} has a nonzero gradient")
    failed = None
    if known.contradicts(inp.known, status):
        failed = f"{inp.name}: status {status} contradicts {known.KNOWN[inp.known].truth}"
        if status in NEGATIVE:
            hard.append(f"certificate-backed {failed}")
    return hard, failed


def _member(support, r, strict: bool) -> bool:
    floor = 1 if strict else 0
    return any(r) and sum(r) == 0 and all(
        sum(e * w for e, w in zip(exp, r)) >= floor for exp in support
    )


def barycentric_error(support, n: int, d: int, cert, strict: bool) -> str | None:
    """Check that convex weights on support monomials average to the
    centroid (no strictly destabilizing r), and for the non-strict question
    that they are positive on monomials whose shifts span the zero-sum
    hyperplane (no non-zero r with all weights >= 0)."""
    exps = [tuple(c["monomial"]) for c in cert]
    lams = [Fraction(c["lambda"]) for c in cert]
    centroid = Fraction(d, n + 1)
    if not set(exps) <= set(support):
        return "certificate uses monomials outside the support"
    if sum(lams) != 1 or any(lam < 0 for lam in lams):
        return "weights are not convex"
    for j in range(n + 1):
        if sum(lam * e[j] for lam, e in zip(lams, exps)) != centroid:
            return "weights do not average to the centroid"
    if not strict:
        if any(lam == 0 for lam in lams):
            return "non-strict certificate has a zero weight"
        shifted = sympy.Matrix([[sympy.Rational(e[j]) - sympy.Rational(d, n + 1) for j in range(n + 1)] for e in exps])
        if shifted.rank() != n:
            return "shifted monomials do not span the zero-sum hyperplane"
    return None


def check_crosscheck(inp, outcome: dict) -> tuple[list[str], str | None]:
    """Check one LP decision against the oracle over the box [-B, B]^(n+1)."""
    if outcome.get("error"):
        return [], f"{inp.name}: raised {outcome['error']}"
    result = json.loads(outcome["out"])
    lp, oracle = result["lp"], result["oracle"]
    poly = sympy.Poly(to_sympy(inp.text, inp.n + 1), *symbols(inp.n + 1))
    support = [tuple(e) for e in poly.monoms()]
    d = poly.total_degree()
    strict, bound = inp.strict, inp.oracle_bound
    hard = []
    if oracle is not None and not _member(support, oracle, strict):
        hard.append(f"{inp.name}: oracle witness {oracle} is not in the weight cone")
    if lp["feasible"]:
        w = lp["witness"]
        if w is None or not _member(support, w, strict):
            hard.append(f"{inp.name}: LP witness {w} is not in the weight cone")
        elif oracle is None and max(abs(v) for v in w) <= bound:
            hard.append(f"{inp.name}: LP witness {w} lies in the box but the oracle found none")
    else:
        if oracle is not None:
            hard.append(f"{inp.name}: oracle found {oracle} but the LP says infeasible")
        cert = lp["infeasibility_certificate"]
        err = "missing" if cert is None else barycentric_error(support, inp.n, d, cert, strict)
        if err:
            hard.append(f"{inp.name}: infeasibility certificate: {err}")
    return hard, None


def check(inp, outcome: dict) -> tuple[list[str], str | None]:
    if inp.strict is None:
        return check_analyze(inp, outcome)
    return check_crosscheck(inp, outcome)


def decided(inp, outcome: dict) -> bool:
    if outcome.get("error") or outcome.get("rc", 0) != 0:
        return False
    if inp.strict is not None:
        return True
    return json.loads(outcome["out"])["status"] != "Inconclusive"


def certified(inp, outcome: dict) -> bool:
    """Status rests on a certificate: a negative analyze status, or any LP
    decision (each carries a witness or an infeasibility certificate)."""
    if not decided(inp, outcome):
        return False
    if inp.strict is not None:
        return True
    return json.loads(outcome["out"])["status"] in NEGATIVE
