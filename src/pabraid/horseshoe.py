"""Binary codes of periodic horseshoe orbits and their braid family parameters.

A period-k orbit of the horseshoe map is recorded by its binary itinerary;
cyclic rotations of the word describe the same orbit.  Two code shapes
correspond to the sigma braid family with parameters ``(m, n)``, ``n >= m+2``:

* form A: ``1 0^(n-1) 1 0^m``
* form B: ``1 0^(n-1) 1 0^(m-1) 1``

Both have length ``m + n + 1``, the strand count of the braid.  Form A has
two 1s and form B three, so a word is matched by the runs of 0s (the gaps)
between its cyclically neighbouring 1s, in one pass and without trying
rotations.  Codes outside these shapes (for example the period-8 word
10010110) belong to other braid types and are reported as unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CodeOrbit:
    word: str
    period: int
    canonical: str
    primitive: bool


@dataclass(frozen=True)
class FamilyMatch:
    m: int
    n: int
    form: str  # "A" or "B"


def _validate_binary(word: str) -> None:
    if not word:
        raise ValueError("code must be a nonempty binary string")
    if any(ch not in "01" for ch in word):
        raise ValueError(f"code must contain only 0 and 1, got {word!r}")


def _rotations(word: str):
    doubled = word + word
    for i in range(len(word)):
        yield doubled[i : i + len(word)]


def canonicalize(word: str) -> CodeOrbit:
    """Normalise a code to the lexicographically least rotation.

    The period is the raw word length; words that are a repetition of a
    shorter block are flagged as non-primitive rather than rejected.
    """
    _validate_binary(word)
    canonical = min(_rotations(word))
    primitive = (word + word).find(word, 1) == len(word)
    return CodeOrbit(word, len(word), canonical, primitive)


def code_to_family(word: str) -> FamilyMatch | None:
    """Match the orbit code (up to rotation) against the two family shapes.

    Form A is a word with two 1s whose gaps are ``a < b`` with ``a >= 1``
    (then ``m = a``, ``n = b + 1``); form B is a word with three 1s whose
    gaps, in cyclic order, are ``(n - 1, m - 1, 0)`` with ``n - m >= 2``.
    Each match is unique.  Returns None when neither shape fits; that is a
    value, not an error.
    """
    _validate_binary(word)
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    gaps = [(ones[(k + 1) % len(ones)] - i - 1) % len(word) for k, i in enumerate(ones)]
    if len(gaps) == 2:
        a, b = sorted(gaps)
        if 1 <= a < b:
            return FamilyMatch(a, b + 1, "A")
    elif len(gaps) == 3:
        for k in range(3):
            n_gap, m_gap, last = gaps[k:] + gaps[:k]
            if last == 0 and n_gap - m_gap >= 2:
                return FamilyMatch(m_gap + 1, n_gap + 1, "B")
    return None


def family_to_codes(m: int, n: int) -> tuple[str, str]:
    """The form-A and form-B codes of the sigma member ``(m, n)``, ``n >= m+2``.

    Both have length ``m + n + 1`` and round-trip through
    :func:`code_to_family`.
    """
    if m < 1 or n < m + 2:
        raise ValueError("codes exist for m >= 1 and n >= m + 2")
    form_a = "1" + "0" * (n - 1) + "1" + "0" * m
    form_b = "1" + "0" * (n - 1) + "1" + "0" * (m - 1) + "1"
    return form_a, form_b
