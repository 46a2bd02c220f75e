import json
import random
import re
from collections import Counter

import pytest

from minsimplex.errors import InputError, InvariantError
from minsimplex.matroid import VectorConfiguration
from minsimplex.stoichiometry import (
    AtomUniverse,
    FormulaError,
    Reaction,
    Species,
    load_species,
    minimal_reactions,
    parse_formula,
    reaction_count_report,
)

from support import circuit_coefficients_oracle, oracle_circuits

CHO = AtomUniverse(("C", "H", "O"))


def test_parse_footnote_vectors():
    assert parse_formula("H2O", CHO).composition == (0, 2, 1)
    assert parse_formula("CH3COOH", CHO).composition == (2, 4, 2)
    assert parse_formula("O2", CHO).composition == (0, 0, 2)


def test_parse_groups():
    universe = AtomUniverse(("C", "H", "O", "N"))
    assert parse_formula("(NH4)2CO3", universe).composition == (1, 8, 3, 2)
    assert parse_formula("Ca(OH)2", AtomUniverse(("Ca", "O", "H"))).composition == (1, 2, 2)
    # nesting to depth 4 is supported, deeper is refused
    assert parse_formula("((((H)2)2)2)2", AtomUniverse(("H",))).composition == (16,)
    with pytest.raises(FormulaError):
        parse_formula("(((((H)))))", AtomUniverse(("H",)))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaError) as err:
        parse_formula("H2O)", CHO)
    assert err.value.position == 3
    with pytest.raises(FormulaError) as err:
        parse_formula("H2*O", CHO)
    assert err.value.position == 2
    with pytest.raises(FormulaError):
        parse_formula("H0", CHO)
    with pytest.raises(FormulaError):
        parse_formula("", CHO)


def test_unknown_element():
    with pytest.raises(InputError, match="unknown element 'N'"):
        parse_formula("NH3", CHO)


def test_species_invariants():
    with pytest.raises(InvariantError):
        Species("nothing", (0, 0, 0))
    with pytest.raises(InvariantError):
        Species("anti", (-1, 2))


def test_water_formation():
    universe = AtomUniverse(("H", "O"))
    species = [parse_formula(f, universe) for f in ("H2", "O2", "H2O")]
    reactions = minimal_reactions(species)
    assert len(reactions) == 1
    assert reactions[0].equation() == "2 H2 + O2 -> 2 H2O"
    assert not reactions[0].is_isomerization


def test_peroxide_decomposition_orientation():
    # the first listed species (H2O) is oriented as a reactant by convention
    universe = AtomUniverse(("H", "O"))
    species = [parse_formula(f, universe) for f in ("H2O", "H2O2", "O2")]
    reactions = minimal_reactions(species)
    assert len(reactions) == 1
    r = reactions[0]
    assert r.equation() == "2 H2O + O2 -> 2 H2O2"
    names = {sp.name: c for sp, c in r.reactants} | {sp.name: c for sp, c in r.products}
    assert names == {"H2O": 2, "O2": 1, "H2O2": 2}


def test_independent_pair_no_reactions():
    universe = AtomUniverse(("H", "O"))
    species = [parse_formula(f, universe) for f in ("H2", "O2")]
    assert minimal_reactions(species) == []


def test_single_species_no_reactions():
    assert minimal_reactions([Species("X", (1,))]) == []


def test_isomer_pair_tagged():
    species = [Species("glucose", (6, 12, 6)), Species("fructose", (6, 12, 6))]
    reactions = minimal_reactions(species)
    assert len(reactions) == 1
    assert reactions[0].is_isomerization
    assert reactions[0].equation() == "glucose -> fructose"


def test_reaction_supports_match_circuits():
    # One reaction per circuit of the compositions, in the circuits' order: its
    # support is the circuit, and its signed coefficients, reactants positive
    # and products negated, in member order, are the circuit's primitive
    # dependency, so the first member is a reactant. Isomers (equal
    # compositions) and multiples (parallel ones) give two-species reactions.
    rng = random.Random(97)
    seen = Counter()
    for _ in range(40):
        n = rng.randint(2, 7)
        width = rng.randint(1, 4)
        species = []
        for i in range(n):
            kind = rng.random() if species else 1.0
            if kind < 0.15:
                comp = rng.choice(species).composition
            elif kind < 0.3:
                comp = tuple(rng.randint(2, 3) * x for x in rng.choice(species).composition)
            else:
                comp = tuple(rng.randint(0, 3) for _ in range(width))
                if not any(comp):
                    comp = comp[:-1] + (1,)
            species.append(Species(f"s{i}", comp))
        cfg = VectorConfiguration(width, tuple(sp.composition for sp in species))
        want = [(m, circuit_coefficients_oracle(cfg, m)) for m in oracle_circuits(cfg)]
        got = []
        for r in minimal_reactions(species):
            reactants = [(int(sp.name[1:]), c) for sp, c in r.reactants]
            products = [(int(sp.name[1:]), -c) for sp, c in r.products]
            assert reactants == sorted(reactants) and products == sorted(products)
            assert all(c > 0 for _, c in reactants) and all(c < 0 for _, c in products)
            members, coefficients = zip(*sorted(reactants + products))
            got.append((members, coefficients))
            seen["isomer" if coefficients == (1, -1) else "multiple" if len(members) == 2 else 3] += 1
        assert got == want
        seen[f"width {width}"] += bool(got)
    kinds = ("isomer", "multiple", 3, "width 1", "width 2", "width 3", "width 4")
    assert all(seen[kind] for kind in kinds), seen


def test_reaction_balance_verified():
    universe = AtomUniverse(("C", "H", "O"))
    formulas = ("CH4", "O2", "CO2", "H2O")
    species = [parse_formula(f, universe) for f in formulas]
    for r in minimal_reactions(species):
        for atom in range(3):
            lhs = sum(c * sp.composition[atom] for sp, c in r.reactants)
            rhs = sum(c * sp.composition[atom] for sp, c in r.products)
            assert lhs == rhs


def test_reaction_refuses_unbalanced_and_malformed_sides():
    h2, o2, h2o = (parse_formula(f, CHO) for f in ("H2", "O2", "H2O"))
    w2 = Species("W", (1, 1))
    assert Reaction(((h2, 2), (o2, 1)), ((h2o, 2),)).equation() == "2 H2 + O2 -> 2 H2O"
    empty = "a reaction needs both reactants and products"
    positive = "reaction coefficients must be positive"
    # with several faults, the first of: an empty side, a coefficient that is
    # not positive, mixed widths, an unbalanced atom
    for reactants, products, message in (
        (((h2, 2), (o2, 1)), ((h2o, 1),), "unbalanced atom index 1: 4 != 2"),
        (((h2, 1),), ((h2, 2),), "unbalanced atom index 1: 2 != 4"),
        (((h2, 1),), (), empty),
        (((h2, 0),), ((h2, 1),), positive),
        (((h2, 1),), ((h2, -1),), positive),
        (((h2, 0),), (), empty),
        ((), ((w2, 1), (h2, 1)), empty),
        (((h2, 1), (o2, 0)), ((h2o, 1),), positive),
        (((w2, 1),), ((h2, 0),), positive),
        (((w2, -1),), ((h2, 1),), positive),
        (((h2, 1), (w2, 1)), ((h2o, -2),), positive),
        (((h2, 1), (w2, 1)), ((h2o, 1),), "species have mixed composition lengths [2, 3]"),
    ):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            Reaction(reactants, products)


@pytest.mark.parametrize("widths", [(2, 3), (3, 2), (3, 1, 2), (1, 3, 2, 3)])
def test_reaction_refuses_mixed_composition_widths(widths):
    # A -> B balances on the atoms that both have; B's or A's third atom must
    # still count. Each width is named once, in ascending order.
    a, *rest = (Species(name, (1, 0, 5)[:w]) for name, w in zip("ABCD", widths))
    listed = str(sorted(set(widths)))
    assert listed == ("[2, 3]" if len(widths) == 2 else "[1, 2, 3]")
    with pytest.raises(InvariantError, match=f"^species have mixed composition lengths {re.escape(listed)}$"):
        Reaction(((a, 1),), tuple((sp, 1) for sp in rest))


def test_reaction_minimality_reverified():
    # dropping any one participant must leave an independent vector set
    from minsimplex.matroid import subset_rank

    universe = AtomUniverse(("C", "H", "O"))
    formulas = ("CH4", "O2", "CO2", "H2O", "CO", "H2")
    species = [parse_formula(f, universe) for f in formulas]
    cfg = VectorConfiguration(3, tuple(sp.composition for sp in species))
    index = {sp.name: i for i, sp in enumerate(species)}
    reactions = minimal_reactions(species)
    assert reactions
    for r in reactions:
        support = sorted(
            index[sp.name] for sp, _ in r.reactants + r.products
        )
        for drop in support:
            rest = [i for i in support if i != drop]
            assert subset_rank(cfg, rest) == len(rest)


def test_report_counts():
    universe = AtomUniverse(("H", "O"))
    species = [parse_formula(f, universe) for f in ("H2", "O2", "H2O")]
    report = reaction_count_report(species, minimal_reactions(species))
    assert report.counts_by_size == {3: 1}
    assert report.configuration_rank == 2
    assert report.benchmark == 1  # C(3, 3)
    empty = reaction_count_report([], [])
    assert empty.species_count == 0 and empty.counts_by_size == {}


def test_universe_inference_order(tmp_path):
    # with no universe given, the atom order is H, O, C, Na, Cl: first appearance
    path = tmp_path / "species.txt"
    path.write_text("H2O\nCO2\nNaCl\n")
    compositions = [sp.composition for sp in load_species(str(path))]
    assert compositions == [(2, 1, 0, 0, 0), (0, 2, 1, 0, 0), (0, 0, 0, 1, 1)]


def test_load_species_text_and_json(tmp_path):
    txt = tmp_path / "species.txt"
    txt.write_text("# water system\nH2\nO2\nH2O\n")
    species = load_species(str(txt))
    assert [sp.name for sp in species] == ["H2", "O2", "H2O"]
    assert species[2].composition == (2, 1)  # inferred order H, O

    jpath = tmp_path / "species.json"
    jpath.write_text(json.dumps([
        {"name": "hydrogen", "formula": "H2"},
        {"name": "mystery", "composition": [0, 2]},
    ]))
    loaded = load_species(str(jpath), AtomUniverse(("H", "O")))
    assert loaded[0].name == "hydrogen"
    assert loaded[0].composition == (2, 0)
    assert loaded[1].composition == (0, 2)

    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(InputError):
        load_species(str(empty))
