"""Species parsing and minimal balanced reactions.

A species is an atom-count vector over a fixed, ordered atom universe; a
balanced reaction is a zero-sum integer combination of species vectors, and
it is minimal exactly when its support is a circuit of the composition
configuration. Reactions are oriented deterministically: the first listed
participating species is always a reactant.
"""

from __future__ import annotations

import re
from math import comb
from operator import mul
from typing import Sequence

from .errors import InputError, InvariantError
from .exactla import parse_json, read_text
from .matroid import VectorConfiguration, configuration_rank, enumerate_circuits
from .record import Record

_ELEMENT_RE = re.compile(r"[A-Z][a-z]?")
_COUNT_RE = re.compile(r"[1-9][0-9]*")
_MAX_GROUP_DEPTH = 4


class FormulaError(InputError):
    """Malformed chemical formula; carries the offending string position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class AtomUniverse(Record):
    """Fixed-order list of distinct atom symbols."""

    def __init__(self, symbols: tuple[str, ...]):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise InvariantError("atom symbols must be distinct")
        self.__dict__.update(symbols=symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise InputError(f"element {symbol!r} not in universe {list(self.symbols)}") from None


class Species(Record):
    def __init__(self, name: str, composition: tuple[int, ...]):
        comp = composition
        if not isinstance(comp, (list, tuple)) or not all(type(x) is int for x in comp):
            raise InputError(f"composition of {name!r} must be a list of integers: {comp!r}")
        comp = tuple(comp)
        if any(x < 0 for x in comp):
            raise InvariantError(f"negative atom count in {name}: {comp}")
        if not any(comp):
            raise InvariantError(f"species {name!r} has an all-zero composition")
        self.__dict__.update(name=name, composition=comp)


def _read_count(formula: str, i: int) -> tuple[int, int]:
    """The count written at formula[i:], 1 if there is none, and the position after it."""
    m = _COUNT_RE.match(formula, i)
    if not m:
        return 1, i
    try:  # int() refuses more digits than sys.get_int_max_str_digits(), as json does
        return int(m.group()), m.end()
    except ValueError as exc:
        raise FormulaError(f"count {m.group()[:20]}...: {exc}", i) from exc


def _parse_counts(formula: str) -> dict[str, int]:
    """Element -> count map, insertion-ordered by first appearance."""
    counts: dict[str, int] = {}
    stack: list[dict[str, int]] = []
    current = counts
    i = 0
    n = len(formula)
    if not formula.strip():
        raise FormulaError("empty formula", 0)
    while i < n:
        ch = formula[i]
        if ch == "(":
            if len(stack) + 1 > _MAX_GROUP_DEPTH:
                raise FormulaError(f"groups nested deeper than {_MAX_GROUP_DEPTH}", i)
            stack.append(current)
            current = {}
            i += 1
        elif ch == ")":
            if not stack:
                raise FormulaError("unmatched ')'", i)
            if not current:
                raise FormulaError("empty group", i)
            mult, i = _read_count(formula, i + 1)
            group = current
            current = stack.pop()
            for sym, cnt in group.items():
                current[sym] = current.get(sym, 0) + cnt * mult
        else:
            m = _ELEMENT_RE.match(formula, i)
            if not m:
                raise FormulaError(f"unexpected character {ch!r}", i)
            sym = m.group()
            cnt, i = _read_count(formula, m.end())
            current[sym] = current.get(sym, 0) + cnt
    if stack:
        raise FormulaError("unclosed '('", n)
    return counts


def parse_formula(formula: str, universe: AtomUniverse) -> Species:
    """Parse a molecular formula into a composition vector over the universe."""
    counts = _parse_counts(formula)
    vec = [0] * len(universe)
    for sym, cnt in counts.items():
        if sym not in universe:
            raise InputError(
                f"unknown element {sym!r} in {formula!r}; universe is {list(universe.symbols)}"
            )
        vec[universe.index(sym)] += cnt
    return Species(formula, tuple(vec))


class Reaction(Record):
    """Balanced minimal reaction with primitive positive coefficients per side."""

    def __init__(
        self, reactants: tuple[tuple[Species, int], ...], products: tuple[tuple[Species, int], ...]
    ):
        if not reactants or not products:
            raise InvariantError("a reaction needs both reactants and products")
        # one net vector, reactants minus products: the signed coefficients
        # against each atom's column of the compositions
        signed, compositions = [], []
        for sp, c in reactants:
            if c <= 0:
                raise InvariantError("reaction coefficients must be positive")
            signed.append(c)
            compositions.append(sp.composition)
        for sp, c in products:
            if c <= 0:
                raise InvariantError("reaction coefficients must be positive")
            signed.append(-c)
            compositions.append(sp.composition)
        widths = {*map(len, compositions)}
        if len(widths) != 1:
            raise InvariantError(f"species have mixed composition lengths {sorted(widths)}")
        net = [sum(map(mul, signed, column)) for column in zip(*compositions)]
        if any(net):
            atom = next(i for i, x in enumerate(net) if x)
            lhs = sum(c * sp.composition[atom] for sp, c in reactants)
            rhs = sum(c * sp.composition[atom] for sp, c in products)
            raise InvariantError(f"unbalanced atom index {atom}: {lhs} != {rhs}")
        self.__dict__.update(reactants=reactants, products=products)

    @property
    def species_count(self) -> int:
        return len(self.reactants) + len(self.products)

    @property
    def is_isomerization(self) -> bool:
        # 2-circuits: parallel composition vectors (isomers or multiple doses)
        return self.species_count == 2

    def equation(self) -> str:
        def side(parts: tuple[tuple[Species, int], ...]) -> str:
            return " + ".join(f"{c} {sp.name}" if c != 1 else sp.name for sp, c in parts)

        return f"{side(self.reactants)} -> {side(self.products)}"

    def to_json_obj(self) -> dict:
        return {
            "reactants": [{"name": sp.name, "coefficient": c} for sp, c in self.reactants],
            "products": [{"name": sp.name, "coefficient": c} for sp, c in self.products],
            "equation": self.equation(),
            "isomerization": self.is_isomerization,
        }


def minimal_reactions(species: Sequence[Species]) -> list[Reaction]:
    """One reaction per circuit of the composition-vector configuration.

    The primitive dependency coefficients, whose first entry enumerate_circuits
    makes positive, are split by sign into reactants (positive) and products
    (negative, negated), so that the first listed participating species lands
    on the reactant side. No species is the zero vector, so every circuit
    has at least two members.
    """
    if len(species) < 2:
        return []
    widths = {len(sp.composition) for sp in species}
    if len(widths) != 1:
        raise InvariantError(f"species have mixed composition lengths {sorted(widths)}")
    cfg = VectorConfiguration(widths.pop(), tuple(sp.composition for sp in species))
    reactions = []
    for circuit in enumerate_circuits(cfg):
        pairs = list(zip(circuit.members, circuit.coefficients))
        reactants = tuple((species[i], c) for i, c in pairs if c > 0)
        products = tuple((species[i], -c) for i, c in pairs if c < 0)
        reactions.append(Reaction(reactants, products))
    return reactions


class ReactionReport(Record):
    # benchmark is C(n, r+1): the generic-count scale for this rank
    def __init__(
        self, species_count: int, atom_kinds: int, configuration_rank: int,
        counts_by_size: dict[int, int], benchmark: int,
    ):
        self.__dict__.update(
            species_count=species_count, atom_kinds=atom_kinds,
            configuration_rank=configuration_rank, counts_by_size=counts_by_size, benchmark=benchmark,
        )

    def to_json_obj(self) -> dict:
        return {
            "species_count": self.species_count,
            "atom_kinds": self.atom_kinds,
            "configuration_rank": self.configuration_rank,
            "counts_by_size": {str(k): v for k, v in sorted(self.counts_by_size.items())},
            "benchmark": self.benchmark,
        }


def reaction_count_report(species: Sequence[Species], reactions: Sequence[Reaction]) -> ReactionReport:
    """Counts of the species' minimal reactions by participant count, next to the
    C(n, r+1) scale; reactions is minimal_reactions(species)."""
    if not species:
        return ReactionReport(0, 0, 0, {}, 0)
    counts: dict[int, int] = {}
    for r in reactions:
        counts[r.species_count] = counts.get(r.species_count, 0) + 1
    width = len(species[0].composition)
    cfg = VectorConfiguration(width, tuple(sp.composition for sp in species))
    r = configuration_rank(cfg)
    return ReactionReport(len(species), width, r, counts, comb(len(species), r + 1))


def _located(path: str, noun: str, j: int, build, *args):
    """build(*args), where an input error, or a composition that Species
    refuses, becomes an InputError naming the file and the 0-based index j
    of the formula or record."""
    try:
        return build(*args)
    except (InputError, InvariantError) as exc:
        raise InputError(f"{path}: {noun} {j}: {exc}") from exc


def _species(record: dict, universe: AtomUniverse | None) -> Species:
    if "composition" in record:
        species = Species(record.get("name", "?"), record["composition"])
        if universe is not None and len(species.composition) != len(universe):
            raise InputError(
                f"composition of {species.name!r} has {len(species.composition)} atom counts;"
                f" universe {list(universe.symbols)} has {len(universe)}"
            )
        return species
    if "formula" in record:
        composition = parse_formula(record["formula"], universe).composition
        return Species(record.get("name", record["formula"]), composition)
    raise InputError(f"needs 'formula' or 'composition': {record}")


def load_species(path: str, universe: AtomUniverse | None = None) -> list[Species]:
    """Read species from plain text (one formula per line) or JSON.

    JSON records carry either a "formula" or a raw "composition". With no
    universe given, the formulas' elements in order of first appearance are
    the universe, and a file of compositions alone has none. A species is
    named by its "name", else by its formula, else "?". A malformed formula,
    an element outside the universe, a negative or all-zero composition and
    a composition of another width than the universe are InputErrors that
    name the file and the formula's or record's position, counted from 0,
    and so is a name given twice, with both species' positions: the
    reactions could not tell them apart.
    """
    text = read_text(path)
    if text.lstrip().startswith("["):
        records = parse_json(text, path)
        if not all(isinstance(r, dict) for r in records):
            raise InputError(f"{path}: species JSON must be a list of objects")
        for key in ("formula", "name"):
            if not all(isinstance(r[key], str) for r in records if key in r):
                raise InputError(f"{path}: every '{key}' must be a string")
        noun = "record"
    else:
        lines = [line.strip() for line in text.splitlines()]
        records = [{"formula": line} for line in lines if line and not line.startswith("#")]
        noun = "formula"
    if not records:
        raise InputError(f"{path}: no species found")
    formulas = [(j, r["formula"]) for j, r in enumerate(records) if "formula" in r]
    if universe is None and formulas:  # the elements in order of first appearance
        universe = AtomUniverse(tuple(dict.fromkeys(
            sym for j, f in formulas for sym in _located(path, noun, j, _parse_counts, f)
        )))
    out = [_located(path, noun, j, _species, r, universe) for j, r in enumerate(records)]
    widths = {len(sp.composition) for sp in out}
    if len(widths) > 1:
        raise InputError(f"{path}: compositions of mixed lengths {sorted(widths)}")
    first: dict[str, int] = {}
    for j, sp in enumerate(out):
        i = first.setdefault(sp.name, j)
        if i != j:
            raise InputError(f"{path}: species {i} and {j} are both named {sp.name!r}")
    return out
