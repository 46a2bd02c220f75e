import json
import random

import pytest

from minsimplex.errors import InputError, InvariantError
from minsimplex.matroid import VectorConfiguration, enumerate_circuits
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
    rng = random.Random(97)
    for _ in range(10):
        n = rng.randint(2, 6)
        width = rng.randint(1, 3)
        species = []
        for i in range(n):
            comp = tuple(rng.randint(0, 3) for _ in range(width))
            if not any(comp):
                comp = comp[:-1] + (1,)
            species.append(Species(f"s{i}", comp))
        cfg = VectorConfiguration(width, tuple(sp.composition for sp in species))
        circuit_supports = [c.members for c in enumerate_circuits(cfg)]
        reaction_supports = []
        for r in minimal_reactions(species):
            names = [sp.name for sp, _ in r.reactants] + [sp.name for sp, _ in r.products]
            reaction_supports.append(tuple(sorted(int(nm[1:]) for nm in names)))
        assert sorted(reaction_supports) == sorted(circuit_supports)


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
    assert Reaction(((h2, 2), (o2, 1)), ((h2o, 2),)).equation() == "2 H2 + O2 -> 2 H2O"
    for reactants, products, message in (
        (((h2, 2), (o2, 1)), ((h2o, 1),), "unbalanced atom index 1: 4 != 2"),
        (((h2, 1),), ((h2, 2),), "unbalanced atom index 1: 2 != 4"),
        (((h2, 1),), (), "needs both reactants and products"),
        (((h2, 0),), ((h2, 1),), "coefficients must be positive"),
        (((h2, 1),), ((h2, -1),), "coefficients must be positive"),
    ):
        with pytest.raises(InvariantError, match=message):
            Reaction(reactants, products)


@pytest.mark.parametrize("widths", [(2, 3), (3, 2)])
def test_reaction_refuses_mixed_composition_widths(widths):
    # A -> B balances on the atoms that both have; B's or A's third atom must still count
    a, b = (Species(name, (1, 0, 5)[:w]) for name, w in zip("AB", widths))
    with pytest.raises(InvariantError, match=r"mixed composition lengths \[2, 3\]"):
        Reaction(((a, 1),), ((b, 1),))


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
