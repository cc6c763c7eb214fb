"""Mutation kill rows: each named mutant of the code below must be rejected by
the acceptance criteria its row lists (or, for a comparator that says
"equal" to everything, by the comparator control).  A mutant is rebound
wherever a ``qmono`` module holds the original, so calls through imported
names see it too; only the listed criteria run, to keep the file fast."""

import dataclasses
import sys

import pytest

from qmono import acceptance
from qmono.algebra import Polynomial
from qmono.errors import ComparatorError
from qmono.macdonald import ExpansionTable
from qmono.partitions import z_of
from qmono.specialize import UNIVERSE_QT

Q = Polynomial.variable(UNIVERSE_QT, "q")
CONTROL = "comparator control"


def doubled(f):
    return lambda *args: f(*args) * 2


def entries_scaled(scale):
    """A row_expansion_table whose every entry is multiplied by scale(n)."""
    def mutate(f):
        def table(n, basis):
            t = f(n, basis)
            return ExpansionTable(n, basis, tuple((mu, c * scale(n)) for mu, c in t.entries))
        return table
    return mutate


def table_scaled(scale):
    """A table-valued function whose every value c of partition lam becomes
    c * scale(lam)."""
    def mutate(f):
        return lambda *args: {lam: c * scale(lam) for lam, c in f(*args).items()}
    return mutate


def numerator_doubled(f):
    """A function returning (N, D) or (N, L) whose N is doubled."""
    def split(*args):
        N, L = f(*args)
        return N * 2, L
    return split


def value_doubled(f):
    def oracle(mu):
        result = f(mu)
        return dataclasses.replace(result, value=result.value * 2)
    return oracle


def littlewood_doubled(f):
    """constant_identity with its Littlewood value doubled, prop5 untouched."""
    def identity(mu, kind, memo):
        value = f(mu, kind, memo)
        return value * 2 if kind == "littlewood" else value
    return identity


def always_equal(f):
    return lambda *args: True


def prop5_shared_across_lengths(families):
    """prop5 in one share group, so one peel memo serves every length."""
    prop5 = dataclasses.replace(families["prop5"], share=lambda parts: None)
    return {**families, "prop5": prop5}


# name: (module, attribute, mutation, the criteria, by number, that must fail)
MUTANTS = {
    "heine_coefficient x2": ("macdonald", "heine_coefficient", doubled, (10,)),
    "row_expansion_table entries x2": (
        "macdonald", "row_expansion_table", entries_scaled(lambda n: 2), (10,)
    ),
    "row_expansion_table entries x q^n": (
        "macdonald", "row_expansion_table", entries_scaled(lambda n: Q ** n), (10,)
    ),
    "row_polynomial x2": (
        "macdonald", "row_polynomial", lambda f: lambda *args: f(*args).scale(2), (10,)
    ),
    "_omega_factor x2": ("macdonald", "_omega_factor", doubled, (10,)),
    "_deformed_power_table x2": (
        "macdonald", "_deformed_power_table", table_scaled(lambda lam: 2), (10,)
    ),
    "_deformed_power_table without its 1/z": (
        "macdonald", "_deformed_power_table", table_scaled(z_of), (10,)
    ),
    "positivity N x2": ("positivity", "_numerator_and_leftover", numerator_doubled, (9,)),
    "rearrangement_peel numerator x2": ("partitions", "rearrangement_peel", numerator_doubled, (7, 2)),
    "littlewood value x2": ("identities", "constant_identity", littlewood_doubled, (7,)),
    "prop5 memo shared across lengths": (
        "acceptance", "VERIFY_FAMILIES", prop5_shared_across_lengths, (7,)
    ),
    "oracle_powersum x2": ("specialize", "oracle_powersum", value_doubled, (2,)),
    "frac_eq always true": ("algebra", "frac_eq", always_equal, (CONTROL,)),
}


def rebind(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a ``qmono`` module holds ``original``."""
    modules = [m for name, m in sys.modules.items() if name == "qmono" or name.startswith("qmono.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def rejects(killer) -> bool:
    if killer == CONTROL:
        try:
            acceptance.comparator_control()
        except ComparatorError:
            return True
        return False
    return not acceptance.ALL_CRITERIA[killer - 1]().passed


@pytest.mark.parametrize("name", MUTANTS)
def test_the_listed_criteria_kill_the_mutant(name, monkeypatch):
    module, attr, mutation, killers = MUTANTS[name]
    original = getattr(sys.modules[f"qmono.{module}"], attr)
    rebind(monkeypatch, original, mutation(original))
    assert [k for k in killers if not rejects(k)] == []


@pytest.mark.parametrize("killer", [CONTROL, 2, 7, 9, 10])
def test_the_killers_pass_the_unmutated_code(killer):
    assert not rejects(killer)
