"""Design parameters and the legal-value heuristics from Section IV-C.

A :class:`ParamSpace` holds the candidate values of a metaprogrammed
design's parameters (tile sizes, parallelization factors, MetaPipe
toggles), pruned as the paper does: divisors of iteration counts and
data dimensions, and each local memory capped at a fixed size.

A point is its index: its mixed-radix position in the cross product of
the candidates in declaration order, the last parameter fastest (as in
``itertools.product``). Sampling, sharding, caching and checkpoints carry
indices; :meth:`ParamSpace.decode` turns them into parameter columns,
over which the constraints run as boolean masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np

_CHUNK = 1 << 20  # indices decoded at a time when enumerating a space

Point = Dict[str, object]


def divisors(n: int) -> List[int]:
    """All positive integer divisors of ``n`` in ascending order."""
    if n <= 0:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class _Sized:
    @property
    def size(self) -> int:
        return len(self.candidates)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class IntParam(_Sized):
    """An integer-valued design parameter with an explicit candidate list."""

    name: str
    candidates: Sequence[int]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"parameter {self.name!r} has no candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"parameter {self.name!r} repeats a candidate")


@dataclass(frozen=True)
class BoolParam(_Sized):
    """A boolean design parameter (e.g. a MetaPipe toggle)."""

    name: str
    candidates: Sequence[bool] = (False, True)


@dataclass
class ParamSpace:
    """An ordered collection of parameters plus legality constraints.

    A point is legal only if every constraint accepts it, e.g. "the
    parallelization factor divides the tile size". A constraint runs on
    one point's values (:meth:`is_legal`) and on whole columns
    (:meth:`legal`), so it uses operators (``%``, ``<=``, ``&``), not ``and``.
    """

    params: List[object] = field(default_factory=list)
    constraints: List[Callable[[Point], bool]] = field(default_factory=list)

    def add(self, param):
        """Register a parameter (names must be unique)."""
        if any(p.name == param.name for p in self.params):
            raise ValueError(f"duplicate parameter name {param.name!r}")
        self.params.append(param)
        return param

    def int_param(self, name: str, candidates: Sequence[int]) -> IntParam:
        """Declare an integer parameter with an explicit candidate list."""
        return self.add(IntParam(name, tuple(candidates)))

    def bool_param(self, name: str) -> BoolParam:
        """Declare a boolean parameter (e.g. a MetaPipe toggle)."""
        return self.add(BoolParam(name))

    def constrain(self, predicate: Callable[[Point], bool]) -> None:
        """Add a legality predicate over full parameter assignments."""
        self.constraints.append(predicate)

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.params]

    @property
    def cardinality(self) -> int:
        """Size of the unconstrained cross-product space."""
        return math.prod(p.size for p in self.params)

    def decode(self, indices) -> Dict[str, np.ndarray]:
        """One column per parameter (int64 or bool) for point ``indices``."""
        rest, columns = np.asarray(indices, dtype=np.int64), {}
        for p in reversed(self.params):
            rest, digit = np.divmod(rest, p.size)
            columns[p.name] = np.asarray(p.candidates)[digit]
        return dict(reversed(columns.items()))

    def encode(self, point: Point) -> int:
        """Inverse of :meth:`decode`; :class:`ValueError` if ``point`` is
        not a dict of candidate values over exactly this space's names."""
        try:
            if len(point) != len(self.params):
                raise KeyError
            index = 0
            for p in self.params:
                index = index * p.size + p.candidates.index(point[p.name])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{point!r} is not a point of this space") from None
        return index

    def points(self, indices) -> List[Point]:
        """The parameter dicts of ``indices``, in order, with Python values."""
        columns = self.decode(indices)
        rows = zip(*(column.tolist() for column in columns.values()))
        return [dict(zip(columns, row)) for row in rows]

    def is_legal(self, point: Point) -> bool:
        """Whether ``point`` satisfies every registered constraint."""
        return all(c(point) for c in self.constraints)

    def legal(self, indices) -> np.ndarray:
        """Which of ``indices`` are legal, as a boolean mask. A constraint
        giving no boolean column (a Python ``and`` or ``if``) raises
        :class:`ValueError`; two spare rows make one-point chunks fail too."""
        indices = np.asarray(indices, dtype=np.int64)
        columns = self.decode(np.concatenate((indices, [0, 0])))
        mask = np.ones(len(indices) + 2, dtype=bool)
        for constraint in self.constraints:
            try:
                ok = constraint(columns)
            except (TypeError, ValueError):
                ok = None
            if not (isinstance(ok, np.ndarray) and ok.dtype == bool
                    and ok.shape == mask.shape):
                raise ValueError(f"a constraint over ({', '.join(self.names)})"
                                 " gives no boolean column: use &, | and ~, "
                                 "one constrain() call per condition")
            mask &= ok
        return mask[:-2]

    def legal_indices(self) -> np.ndarray:
        """Every legal point's index, ascending."""
        total = self.cardinality
        chunks = (np.arange(lo, min(lo + _CHUNK, total))
                  for lo in range(0, total, _CHUNK))
        return np.concatenate([chunk[self.legal(chunk)] for chunk in chunks])

    def iter_points(self) -> Iterator[Point]:
        """Iterate the full cross product (legal points only)."""
        legal = self.legal_indices()
        for lo in range(0, len(legal), _CHUNK):
            yield from self.points(legal[lo:lo + _CHUNK])

    def sample_indices(self, rng, max_points: int) -> np.ndarray:
        """Indices of up to ``max_points`` distinct random legal points.

        A space at most four times the budget is enumerated and its legal
        indices shuffled. A larger one draws a ``randrange`` digit per
        parameter per attempt, drops repeats, and masks chunks of as many
        attempts as points are still wanted: an attempt adds at most one
        point, so the draws are those of checking attempts one by one."""
        if self.cardinality <= max_points * 4:
            legal = self.legal_indices().tolist()
            rng.shuffle(legal)
            return np.array(legal[:max_points], dtype=np.int64)
        sizes = [p.size for p in self.params]
        seen: set = set()
        out: List[int] = []
        # Bound attempts so a tightly-constrained space cannot loop forever.
        attempts, max_attempts = 0, max_points * 50
        while len(out) < max_points and attempts < max_attempts:
            chunk = min(max_points - len(out), max_attempts - attempts)
            attempts += chunk
            fresh = []
            for _ in range(chunk):
                index = 0
                for size in sizes:
                    index = index * size + rng.randrange(size)
                if index not in seen:
                    seen.add(index)
                    fresh.append(index)
            drawn = np.array(fresh, dtype=np.int64)
            out += drawn[self.legal(drawn)].tolist()
        return np.array(out, dtype=np.int64)

    def sample(self, rng, max_points: int) -> List[Point]:
        """:meth:`sample_indices` as parameter dicts."""
        return self.points(self.sample_indices(rng, max_points))
