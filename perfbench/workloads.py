"""Seeded call lists for the four benchmark workloads.

A workload is an endless stream of *rounds*; a round is a list of CLI calls
that the closed loop always runs to the end.  ``large-members`` uses
stratified rounds (every round covers the same grid of sizes in a seeded
order), so that two seeds differ in detail but not in the mix of work, and
a run never stops partway through a size grid.

The program under test only ever sees the generated argv.  Everything here
is a pure function of ``(workload, seed)``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("small-members", "large-members", "verify-quick", "verify-mix")

#: Seeds whose calls have recorded stdout digests (the default and a held-out one).
RECORDED_SEEDS = (1, 2)

#: Rounds per recorded seed; several times what one run at this commit needs.
RECORD_ROUNDS = {"small-members": 0, "large-members": 20, "verify-quick": 1, "verify-mix": 10}

#: Rounds replayed by a traced run: about 8 to 11 s of calls at the baseline.
TRACE_ROUNDS = {"small-members": 1500, "large-members": 3, "verify-quick": 1, "verify-mix": 1}

# Five strand counts (matrix dimensions 22..66) whose call costs are at
# least twice apart, one horseshoe code and one beta member of each, and
# three unmatched codes: 13 calls, so the median call of a run always falls
# among the 32-strand members and the tail among the 65-strand ones, instead
# of between two sizes.
_LARGE_STRANDS = (21, 32, 43, 54, 65)
_LARGE_UNMATCHED = 3


@dataclass(frozen=True)
class Call:
    """One ``pabraid.cli.main(argv)`` invocation.

    ``expect`` holds what the generator knows about the right answer (the
    family member a horseshoe code encodes).
    """

    argv: tuple[str, ...]
    expect: tuple | None = ()

    def key(self) -> str:
        """Digest-table key of the argv."""
        return hashlib.sha256("\x1f".join(self.argv).encode()).hexdigest()[:16]


def rounds(workload: str, seed: int) -> Iterator[list[Call]]:
    """The endless round stream of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def first_rounds(workload: str, seed: int, count: int) -> list[list[Call]]:
    stream = rounds(workload, seed)
    return [next(stream) for _ in range(count)]


def recorded_calls(workload: str) -> list[Call]:
    """Every call whose digest is recorded: the whole small-member grid, and
    the first rounds of the recorded seeds for the other workloads."""
    if workload == "small-members":
        return [
            _small_call(family, m, n, csv, tight)
            for family in ("beta", "sigma")
            for m in range(1, 9)
            for n in range(1, 9)
            for csv in (False, True)
            for tight in (False, True)
        ]
    calls: dict[str, Call] = {}
    for seed in RECORDED_SEEDS:
        for rnd in first_rounds(workload, seed, RECORD_ROUNDS[workload]):
            for call in rnd:
                calls.setdefault(call.key(), call)
    return list(calls.values())


# -- small-members -----------------------------------------------------------


def _small_call(family: str, m: int, n: int, csv: bool, tight: bool) -> Call:
    argv = ["dilatation", family, str(m), str(n)]
    if csv:
        argv.append("--csv")
    if tight:
        argv += ["--tol", "1e-30"]
    return Call(tuple(argv))


def _small(rng: random.Random) -> Iterator[list[Call]]:
    # Uniform over the grid, so periodic and reducible sigma members keep
    # their natural share (16 of 128 members are periodic, 14 reducible).
    while True:
        family = rng.choice(("beta", "sigma"))
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        yield [_small_call(family, m, n, rng.random() < 0.5, rng.random() < 0.5)]


# -- large-members -----------------------------------------------------------


def _matched_code(rng: random.Random, strands: int) -> Call:
    m = rng.randint(1, (strands - 3) // 2)
    n = strands - 1 - m
    form = rng.choice("AB")
    if form == "A":
        code = "1" + "0" * (n - 1) + "1" + "0" * m
    else:
        code = "1" + "0" * (n - 1) + "1" + "0" * (m - 1) + "1"
    shift = rng.randrange(len(code))
    return Call(("horseshoe", code[shift:] + code[:shift]), expect=(m, n, form))


def _unmatched_code(rng: random.Random) -> Call:
    # At least four 1s, so no rotation can take either family shape.
    while True:
        code = "".join(rng.choice("01") for _ in range(rng.randint(100, 3000)))
        if code.count("1") >= 4:
            return Call(("horseshoe", code), expect=None)


def _large(rng: random.Random) -> Iterator[list[Call]]:
    while True:
        calls = []
        for strands in _LARGE_STRANDS:
            m = rng.randint(1, strands - 2)
            calls.append(Call(("dilatation", "beta", str(m), str(strands - 1 - m))))
            calls.append(_matched_code(rng, strands))
        calls += [_unmatched_code(rng) for _ in range(_LARGE_UNMATCHED)]
        rng.shuffle(calls)
        yield calls


# -- verify-quick --------------------------------------------------------------


def _verify_quick(rng: random.Random) -> Iterator[list[Call]]:
    # The check ranges are fixed by the program; the seed has nothing to vary.
    while True:
        yield [Call(("verify", "--depth", "quick"))]


# -- verify-mix ----------------------------------------------------------------


def _verify_mix(rng: random.Random) -> Iterator[list[Call]]:
    # verify spends its time in interpreted mpmath code, which the shared
    # machine this was tuned on slowed by up to a third for a minute at a
    # time, far more than the big-integer arithmetic of char_poly.  Two
    # large-members rounds around each verify call keep about three fifths of
    # a run's time in char_poly, so the run's figures hold steady while
    # verify, minimizer, perron_root and the numeric path stay measured.
    large = _large(rng)
    while True:
        calls = next(large) + next(large) + [Call(("verify", "--depth", "quick"))]
        rng.shuffle(calls)
        yield calls


_GENERATORS = {
    "small-members": _small,
    "large-members": _large,
    "verify-quick": _verify_quick,
    "verify-mix": _verify_mix,
}
