"""Circuit enumeration for finite rational vector configurations.

A circuit is a minimal linearly dependent subset: dependent, while every
proper subset is independent. Each circuit carries its unique primitive
integer coefficient vector as a dependency witness (sum of coefficient
times vector is exactly zero).

circuit_supports is the one scan for minimal dependent sets in the package:
geometry enumerates the affine simplexes of a point set P as the circuits
of its lift {(1, p) : p in P}, and checks general position with the same
scan capped in size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import InputError, InvariantError
from .exactla import (
    coerce_rational,
    entry_from_json,
    integer_row,
    nullspace_basis,
    primitive_integer_vector,
    rank,  # noqa: F401  (matroid.rank is wrapped by name in perfbench/tracing.py)
    rank_int_rows,
    vector_to_json,
)


@dataclass(frozen=True)
class VectorConfiguration:
    """Ordered list of vectors in R^D with optional display labels."""

    dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        vecs = tuple(tuple(coerce_rational(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for i, v in enumerate(vecs):
            if len(v) != self.dimension:
                raise InvariantError(f"vector {i} has length {len(v)}, expected {self.dimension}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(vecs):
                raise InvariantError("label count does not match vector count")
            if len(set(labels)) != len(labels):
                raise InvariantError("labels must be unique")

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """The vectors with denominators cleared per vector (exactla.integer_row).

        Scaling a vector never changes the rank of a subset, so every rank
        test runs on these, computed once per configuration.
        """
        return tuple(tuple(integer_row(v)) for v in self.vectors)

    def to_json_obj(self) -> dict:
        obj = {"dimension": self.dimension, "vectors": [vector_to_json(v) for v in self.vectors]}
        if self.labels:
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VectorConfiguration":
        try:
            dim = int(obj["dimension"])
            raw = obj["vectors"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"vector file needs 'dimension' and 'vectors': {exc}") from exc
        vectors = tuple(tuple(entry_from_json(x) for x in v) for v in raw)
        labels = tuple(obj["labels"]) if obj.get("labels") else None
        return cls(dim, vectors, labels)


def load_vectors(path: str) -> VectorConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    return VectorConfiguration.from_json_obj(obj)


@dataclass(frozen=True)
class Circuit:
    """Minimal dependent subset plus its primitive dependency coefficients."""

    members: tuple[int, ...]
    coefficients: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _check_indices(cfg: VectorConfiguration, subset: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted(set(subset)))
    for i in idx:
        if not 0 <= i < len(cfg):
            raise InputError(f"vector index {i} out of range 0..{len(cfg) - 1}")
    return idx


def subset_rank(cfg: VectorConfiguration, subset: Iterable[int]) -> int:
    """Rank of the chosen vectors."""
    idx = _check_indices(cfg, subset)
    rows = cfg.integer_rows
    return rank_int_rows([rows[i] for i in idx], cfg.dimension)


def configuration_rank(cfg: VectorConfiguration) -> int:
    return subset_rank(cfg, range(len(cfg)))


def is_circuit(cfg: VectorConfiguration, subset: Iterable[int]) -> bool:
    """True iff the subset is dependent and every proper subset is independent."""
    idx = _check_indices(cfg, subset)
    if len(idx) < 1:
        raise InputError("is_circuit needs at least one index")
    k = len(idx)
    if subset_rank(cfg, idx) != k - 1:
        return False
    return all(subset_rank(cfg, idx[:i] + idx[i + 1 :]) == k - 1 for i in range(k))


def _circuit_coefficients(cfg: VectorConfiguration, members: tuple[int, ...]) -> tuple[int, ...]:
    # Columns are the member vectors; a circuit has a 1-dimensional nullspace.
    basis = nullspace_basis(list(zip(*(cfg.vectors[i] for i in members))))
    if len(basis) != 1:
        raise InvariantError(f"subset {members} is not a circuit (nullity {len(basis)})")
    coeffs = primitive_integer_vector(basis[0])
    if any(c == 0 for c in coeffs):
        raise InvariantError(f"subset {members} is not minimal (zero coefficient)")
    return tuple(coeffs)


def circuit_supports(
    cfg: VectorConfiguration, max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Members of every circuit with at most max_size elements, sorted.

    Scans subsets in increasing size and keeps, as bitmasks, the independent
    subsets of the previous size (the empty set for size 1). A subset
    contains a smaller circuit exactly when one of its facets (the subsets
    one element smaller) is dependent, so a size-s subset is rank-tested
    only when all its facets are kept: then it is a circuit when its rank is
    s - 1, and independent, kept for size s + 1, when its rank is s. The
    zero vector shows up as a size-1 circuit (loop). No circuit has more
    than rank + 1 members, which caps the scan.
    """
    n = len(cfg)
    cap = configuration_rank(cfg) + 1 if n else 0
    top = cap if max_size is None else min(max_size, cap)
    bits = [1 << i for i in range(n)]
    found: list[tuple[int, ...]] = []
    independent = {0}
    for size in range(1, top + 1):
        kept = set()
        for members in combinations(range(n), size):
            mask = sum(bits[i] for i in members)
            if any(mask ^ bits[i] not in independent for i in members):
                continue
            if subset_rank(cfg, members) == size - 1:
                found.append(members)
            else:
                kept.add(mask)
        independent = kept
    return sorted(found)


def enumerate_circuits(
    cfg: VectorConfiguration, min_size: int = 1, max_size: int | None = None
) -> list[Circuit]:
    """All circuits with min_size <= size <= max_size, sorted by members.

    The supports come from circuit_supports; each gets its primitive
    coefficients, with (1,) for a loop.
    """
    return [
        Circuit(members, (1,) if len(members) == 1 else _circuit_coefficients(cfg, members))
        for members in circuit_supports(cfg, max_size)
        if len(members) >= min_size
    ]
