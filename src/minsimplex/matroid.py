"""Circuit enumeration for finite rational vector configurations.

A circuit is a minimal linearly dependent subset: dependent, while every
proper subset is independent. Each circuit carries its unique primitive
integer coefficient vector as a dependency witness (sum of coefficient
times vector is exactly zero).

circuit_supports is the one scan for minimal dependent sets in the package:
geometry enumerates the affine simplexes of a point set P as the circuits
of its lift {(1, p) : p in P}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import InputError, InvariantError
from .exactla import (
    coerce_rational,
    entry_from_json,
    nullspace_basis,
    primitive_integer_vector,
    rank,
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

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"v{i}"

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
    if not idx:
        return 0
    return rank([cfg.vectors[i] for i in idx])


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

    Scans subsets in increasing size, skipping any subset that contains a
    previously found circuit (a proper superset of a circuit is never one).
    After that pruning, a size-s survivor is a circuit exactly when its rank
    is s - 1; the zero vector shows up as a size-1 circuit (loop). No circuit
    has more than rank + 1 members, which caps the scan.
    """
    n = len(cfg)
    cap = configuration_rank(cfg) + 1 if n else 0
    top = cap if max_size is None else min(max_size, cap)
    found: list[tuple[int, tuple[int, ...]]] = []  # (bitmask, members)
    for size in range(1, top + 1):
        for members in combinations(range(n), size):
            mask = 0
            for i in members:
                mask |= 1 << i
            if any(cmask & mask == cmask for cmask, _ in found):
                continue
            if subset_rank(cfg, members) == size - 1:
                found.append((mask, members))
    return sorted(members for _, members in found)


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
