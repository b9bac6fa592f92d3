"""Independent checks of what the CLI printed.

Nothing here imports ``pabraid``: every polynomial is rebuilt from the
definitions in the README and every sign is evaluated exactly with
``Fraction``.  A printed decimal carries 10 significant digits, so a
printed witness is accepted when it lies within half a unit of its last
digit of the exact enclosure.

``check`` returns the number of result rows the call printed and a problem
description, or ``None`` when the output is correct.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

from workloads import Call

DEFAULT_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- exact polynomial helpers (ascending integer coefficients) -----------------


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(coeffs, x: Fraction) -> int:
    v = _value(coeffs, x)
    return (v > 0) - (v < 0)


def core_poly(m: int) -> list[int]:
    """``R_m(t) = t^m (t - 1) - 2``."""
    coeffs = [0] * (m + 2)
    coeffs[0], coeffs[m], coeffs[m + 1] = -2, -1, 1
    return coeffs


def combination(base: list[int], n: int, sign: int) -> list[int]:
    """``t^n P + sign * P_*`` with ``P_*`` the coefficient reversal of ``P``."""
    out = [0] * n + list(base)
    for i, c in enumerate(reversed(base)):
        out[i] += sign * c
    return _trim(out)


def family_class(family: str, m: int, n: int) -> str:
    if family == "beta" or abs(m - n) >= 2:
        return "pseudo_anosov"
    return "periodic" if m == n else "reducible"


def family_poly(family: str, m: int, n: int) -> list[int]:
    if family == "beta":
        return combination(core_poly(m), n + 1, 1)
    m, n = min(m, n), max(m, n)
    return combination(core_poly(m), n + 1, -1)


def _squarefree(coeffs: list[int]) -> list[Fraction]:
    """``f / gcd(f, f')`` over the rationals: same real roots, all simple."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] -= q * c
            a.pop()
            _trim(a)
        return a

    f = [Fraction(c) for c in coeffs]
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, rem(a, b)
    if len(a) == 1:
        return f
    # exact division f / a
    quotient = [Fraction(0)] * (len(f) - len(a) + 1)
    rest = list(f)
    for k in range(len(quotient) - 1, -1, -1):
        q = rest[k + len(a) - 1] / a[-1]
        quotient[k] = q
        for j, c in enumerate(a):
            rest[k + j] -= q * c
    _require(not any(rest), "internal: inexact squarefree division")
    return quotient


def _brackets_root(coeffs: list[int], centre: Fraction, radius: Fraction) -> bool:
    """Whether ``coeffs`` has a real root in ``[centre - radius, centre + radius]``
    that its squarefree part certifies by a sign change (or hits exactly)."""
    g = _squarefree(coeffs)
    lo, hi = _sign(g, centre - radius), _sign(g, centre + radius)
    return lo * hi <= 0


# -- printed numbers ---------------------------------------------------------------


def _half_unit(token: Decimal) -> Fraction:
    """Half a unit in the 10th significant digit of a printed decimal."""
    if token == 0:
        return Fraction(0)
    return Fraction(5) * Fraction(10) ** (token.adjusted() - 10)


def _tol(call: Call) -> Fraction:
    argv = list(call.argv)
    value = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL
    return Fraction(value)


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line, parse_float=Decimal) for line in stdout.splitlines()]


# -- per command ---------------------------------------------------------------------


def _check_dilatation(call: Call, stdout: str) -> int:
    _, family, m_text, n_text = call.argv[:4]
    m, n = int(m_text), int(n_text)
    kind = family_class(family, m, n)
    tol = _tol(call)
    lines = stdout.splitlines()
    _require(len(lines) == 1, f"expected one line, got {len(lines)}")
    if "--csv" in call.argv:
        cells = lines[0].split(",")
        _require(cells[:4] == [family, m_text, n_text, kind], f"wrong row head {cells[:4]}")
        if kind != "pseudo_anosov":
            _require(cells[4:] == ["", ""], "non-pA member printed a dilatation")
            return 1
        lam, log_lam = Decimal(cells[4]), Decimal(cells[5])
        _require(
            _brackets_root(family_poly(family, m, n), Fraction(lam), _half_unit(lam) + tol),
            f"no root of the family polynomial near lambda={lam}",
        )
        _require(abs(float(log_lam) - math.log(float(lam))) <= 1e-8, "log_lambda != log(lambda)")
        return 1
    data = _json_lines(stdout)[0]
    _require((data["family"], data["m"], data["n"]) == (family, m, n), "wrong member echoed")
    _require(data["tn_class"] == kind, f"tn_class {data['tn_class']} != {kind}")
    if kind != "pseudo_anosov":
        _require(data["poly"] is None and data["root"] is None, "non-pA member printed a root")
        return 1
    poly = [int(c) for c in data["poly"]]
    _require(poly == family_poly(family, m, n), "printed poly is not the closed form")
    _check_enclosure(poly, data["root"], tol)
    return 1


def _check_enclosure(poly: list[int], root: dict, tol: Fraction) -> None:
    lower, upper = Fraction(root["lower"]), Fraction(root["upper"])
    witness = root["witness"]
    _require(lower < upper <= lower + tol, "enclosure empty or wider than --tol")
    _require(_sign(poly, lower) * _sign(poly, upper) < 0, "poly does not change sign across the enclosure")
    half = _half_unit(witness)
    _require(lower - half <= Fraction(witness) <= upper + half, f"witness {witness} outside its enclosure")


def _check_horseshoe(call: Call, stdout: str) -> int:
    code = call.argv[1]
    [data] = _json_lines(stdout)
    _require(data["code"] == code, "wrong code echoed")
    _require(data["canonical"] == min(code[i:] + code[:i] for i in range(len(code))), "wrong canonical rotation")
    if call.expect is None:
        _require(data["family"] is None and data["lambda"] is None, "random code matched a family")
        return 1
    m, n, form = call.expect
    _require(data["family"] == {"m": m, "n": n, "form": form}, f"wrong family {data['family']}")
    lam = data["lambda"]
    _require(
        _brackets_root(family_poly("sigma", m, n), Fraction(lam), _half_unit(lam) + _tol(call)),
        f"no root of the sigma({m},{n}) polynomial near lambda={lam}",
    )
    return 1


def _check_verify(call: Call, stdout: str) -> int:
    [data] = _json_lines(stdout)
    checks = data["checks"]
    failed = [c["id"] for c in checks if not c["passed"]]
    _require(not failed, f"verify checks failed: {failed}")
    _require(data["summary"] == {"passed": len(checks), "total": len(checks)}, "summary disagrees with checks")
    return len(checks)


_CHECKERS = {
    "dilatation": _check_dilatation,
    "horseshoe": _check_horseshoe,
    "verify": _check_verify,
}


def check(call: Call, exit_code: int, stdout: str) -> tuple[int, str | None]:
    """Rows printed by ``call`` and the first problem found, if any."""
    if exit_code != 0:
        return 0, f"exit code {exit_code}"
    try:
        return _CHECKERS[call.argv[0]](call, stdout), None
    except CheckFailed as exc:
        return 0, str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, f"unparsable output: {exc!r}"
