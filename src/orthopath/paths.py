"""Motzkin paths, pavings, and the merge constructions that tie them together.

A path is a start level plus a step sequence over U (up), D (down),
H (across by one) and, for generalized paths, HH (across by two).
Vertices are always derived from the steps, never stored.

Rendering: ``"3:DUH"`` is start level 3 with steps D, U, H; the two-unit
across step prints parenthesized, ``"0:H(HH)"``.  A paving prints as its
block list, ``"[{2,3},{5}] on 1..9"``.

Enumeration is depth-first with reachability pruning and yields paths in
lexicographic order of their step sequences under U < D < H < HH.

Boundary note: merging a paving domino into a path inserts a D,U pair at
the current level, which dips one unit below the axis when that level is
0.  ``enumerate_paths`` therefore has a ``boundary_dips`` switch that
additionally admits paths whose only sub-axis visits are such D,U
excursions entered from level 0.  The default (False) is the strict
census of paths that stay at or above the axis.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

from .scalars import Record

UP = "U"
DOWN = "D"
ACROSS = "H"
ACROSS2 = "HH"

STEP_ORDER = (UP, DOWN, ACROSS, ACROSS2)
_DX = {UP: 1, DOWN: 1, ACROSS: 1, ACROSS2: 2}
_DY = {UP: 1, DOWN: -1, ACROSS: 0, ACROSS2: 0}


class MotzkinPath(Record):
    """A lattice path given by its start level and step sequence.

    Paths are made, hashed and compared once per path enumerated, so
    ``__init__``, ``__eq__`` and ``__hash__`` are written out rather than
    derived from ``_fields``.  The checks stay a method of their own,
    ``__post_init__``, which ``bench/tracing.py`` wraps to time them.
    """

    __slots__ = _fields = ("start", "steps")

    def __init__(self, start: int, steps: Tuple[str, ...]) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Reject a negative start level or an unknown step."""
        if self.start < 0:
            raise ValueError("start level must be nonnegative")
        for s in self.steps:
            if s not in _DX:
                raise ValueError(f"unknown step {s!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.start == other.start and self.steps == other.steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.steps))

    @property
    def x_length(self) -> int:
        return sum(_DX[s] for s in self.steps)

    @property
    def end_level(self) -> int:
        return self.start + sum(_DY[s] for s in self.steps)

    @property
    def is_plain(self) -> bool:
        """True when no HH step occurs."""
        return ACROSS2 not in self.steps

    def vertices(self) -> List[Tuple[int, int]]:
        """The (x, level) vertex list, reconstructed from the steps."""
        x, y = 0, self.start
        out = [(x, y)]
        for s in self.steps:
            x += _DX[s]
            y += _DY[s]
            out.append((x, y))
        return out

    def edges(self) -> List[Tuple[int, int, str]]:
        """(x, level, step) for each edge, with its start vertex."""
        x, y = 0, self.start
        out = []
        for s in self.steps:
            out.append((x, y, s))
            x += _DX[s]
            y += _DY[s]
        return out

    def is_standard(self) -> bool:
        """True when every vertex lies at or above the axis."""
        y = self.start  # nonnegative, checked at construction
        for s in self.steps:
            y += _DY[s]
            if y < 0:
                return False
        return True

    def is_boundary_valid(self) -> bool:
        """Standard, except D,U excursions from level 0 may touch level -1."""
        steps = self.steps
        y = self.start
        for t, s in enumerate(steps):
            y += _DY[s]
            # a vertex below the axis must be level -1, entered by a D from
            # level 0 and left by a U back to it
            if y < 0 and not (y == -1 and s == DOWN and steps[t + 1 : t + 2] == (UP,)):
                return False
        return True

    def __str__(self) -> str:
        # the two-unit across step prints parenthesized so that e.g. a
        # single HH edge cannot be confused with two plain H steps
        body = "".join("(HH)" if s == ACROSS2 else s for s in self.steps)
        return f"{self.start}:{body}"


def check_instance(m: int, n: int, k: int) -> None:
    """Reject a negative start level, end level or length."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError("levels and length must be nonnegative")


def enumerate_paths(
    m: int,
    n: int,
    k: int,
    allow_hh: bool = False,
    boundary_dips: bool = False,
) -> List[MotzkinPath]:
    """All paths from (0, m) to (k, n), in canonical (lexicographic) order.

    Returns the empty list when no path exists.  ``allow_hh`` admits the
    two-unit across step; ``boundary_dips`` admits level-0 D,U excursions
    (mutually exclusive with ``allow_hh``).
    """
    check_instance(m, n, k)
    if allow_hh and boundary_dips:
        raise ValueError("boundary dips only apply to plain paths")
    out: List[MotzkinPath] = []
    steps: List[str] = []

    def rec(x: int, lvl: int) -> None:
        rem = k - x
        if rem == 0:
            if lvl == n:
                out.append(MotzkinPath(m, tuple(steps)))
            return
        if abs(n - lvl) > rem:
            return
        if lvl < 0:
            # inside a boundary dip, the only continuation is U
            steps.append(UP)
            rec(x + 1, 0)
            steps.pop()
            return
        for s in STEP_ORDER:
            if s == ACROSS2 and not allow_hh:
                continue
            if _DX[s] > rem:
                continue
            new = lvl + _DY[s]
            if new < 0 and not (boundary_dips and lvl == 0 and s == DOWN):
                continue
            steps.append(s)
            rec(x + _DX[s], new)
            steps.pop()

    rec(0, m)
    return out


class Paving(Record):
    """Disjoint monominos and dominos on {1..k}; uncovered points are isolated.

    Blocks are kept as a tuple of tuples sorted by first element; a
    domino's two entries are consecutive.
    """

    __slots__ = _fields = ("ground_size", "blocks")

    def __init__(self, ground_size: int, blocks: Tuple[Tuple[int, ...], ...]) -> None:
        seen = set()
        for block in blocks:
            if len(block) not in (1, 2):
                raise ValueError(f"block {block} is not a monomino or domino")
            if len(block) == 2 and block[1] != block[0] + 1:
                raise ValueError(f"domino {block} is not consecutive")
            for p in block:
                if p < 1 or p > ground_size:
                    raise ValueError(f"point {p} outside 1..{ground_size}")
                if p in seen:
                    raise ValueError(f"point {p} covered twice")
                seen.add(p)
        if blocks != tuple(sorted(blocks)):
            raise ValueError("blocks must be sorted")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "blocks", blocks)

    def isolated(self) -> Tuple[int, ...]:
        covered = {p for block in self.blocks for p in block}
        return tuple(p for p in range(1, self.ground_size + 1) if p not in covered)

    def __str__(self) -> str:
        body = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"[{body}] on 1..{self.ground_size}"


def enumerate_pavings(k: int) -> List[Paving]:
    """All pavings of {1..k}, ordered by their sorted block lists."""
    if k < 0:
        raise ValueError("ground size must be nonnegative")
    acc: List[Paving] = []
    blocks: List[Tuple[int, ...]] = []

    def rec(pos: int) -> None:
        if pos > k:
            acc.append(Paving(k, tuple(blocks)))
            return
        rec(pos + 1)  # isolated point
        blocks.append((pos,))
        rec(pos + 1)
        blocks.pop()
        if pos + 1 <= k:
            blocks.append((pos, pos + 1))
            rec(pos + 2)
            blocks.pop()

    rec(1)
    acc.sort(key=lambda p: p.blocks)
    return acc


def _merged_steps(
    path: MotzkinPath, paving: Paving, domino_steps: Tuple[str, ...]
) -> MotzkinPath:
    if not path.is_plain:
        raise ValueError("merge input paths must be plain")
    iso = set(paving.isolated())
    if len(iso) != len(path.steps):
        raise ValueError(
            f"paving has {len(iso)} isolated points but the path has "
            f"{len(path.steps)} steps"
        )
    starts = {b[0]: b for b in paving.blocks}
    original = iter(path.steps)
    out: List[str] = []
    pos = 1
    while pos <= paving.ground_size:
        if pos in iso:
            out.append(next(original))
            pos += 1
        else:
            block = starts[pos]
            if len(block) == 1:
                out.append(ACROSS)
                pos += 1
            else:
                out.extend(domino_steps)
                pos += 2
    return MotzkinPath(path.start, tuple(out))


def merge_pair(path: MotzkinPath, paving: Paving) -> MotzkinPath:
    """Merge for the single-family expansion: monomino -> H, domino -> D,U.

    Walking positions 1..k of the paving in order, an isolated point
    consumes the next original step.  The result can dip one unit below
    the axis (only inside an inserted D,U at level 0); see the module
    docstring.
    """
    return _merged_steps(path, paving, (DOWN, UP))


def merge_pair_generalized(path: MotzkinPath, paving: Paving) -> MotzkinPath:
    """Merge for the two-family expansion: monomino -> H, domino -> one HH."""
    return _merged_steps(path, paving, (ACROSS2,))


def merge_preimages(merged: MotzkinPath) -> List[Tuple[MotzkinPath, Paving]]:
    """All pairs (path, paving) whose merge_pair image is ``merged``.

    Every H of the merged path has two possible origins (an original H
    step, or a monomino), every D,U factor additionally admits a domino
    origin; combinations whose residual path dips below the axis are not
    valid preimages and are dropped.
    """
    if not merged.is_plain:
        raise ValueError("merge_preimages applies to plain paths")
    steps = merged.steps
    k = len(steps)
    h_spots = [i for i, s in enumerate(steps) if s == ACROSS]
    du_spots = [
        i for i, s in enumerate(steps[:-1]) if s == DOWN and steps[i + 1] == UP
    ]
    out: List[Tuple[MotzkinPath, Paving]] = []
    for h_count in range(len(h_spots) + 1):
        for hs in combinations(h_spots, h_count):
            for d_count in range(len(du_spots) + 1):
                for ds in combinations(du_spots, d_count):
                    removed = set(hs)
                    for i in ds:
                        removed.add(i)
                        removed.add(i + 1)
                    residual = MotzkinPath(
                        merged.start,
                        tuple(s for i, s in enumerate(steps) if i not in removed),
                    )
                    if not residual.is_standard():
                        continue
                    blocks = sorted(
                        [(i + 1,) for i in hs] + [(i + 1, i + 2) for i in ds]
                    )
                    out.append((residual, Paving(k, tuple(blocks))))
    return out
