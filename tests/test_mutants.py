"""Mutation kill rows: each named mutant of the code below must be rejected by
the acceptance criteria its row lists (or, for a comparator that says
"equal" to everything, by the comparator control).  A mutant is rebound
wherever a ``qmono`` module holds the original, so calls through imported
names see it too; only the listed criteria run, to keep the file fast."""

import dataclasses
import inspect
import sys
import textwrap

import pytest

from qmono import acceptance, identities
from qmono.algebra import Polynomial
from qmono.errors import ComparatorError
from qmono.macdonald import ExpansionTable
from qmono.partitions import z_of
from qmono.specialize import UNIVERSE_QT

Q = Polynomial.variable(UNIVERSE_QT, "q")
T = Polynomial.variable(UNIVERSE_QT, "t")
CONTROL = "comparator control"
# No side kept from an earlier run hides a mutant, and no mutated side
# outlives its row.
pytestmark = pytest.mark.usefixtures("cold_memos")


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


def split_mutated(numerator, leftover):
    """A function returning (N, L) whose N and L are passed through the two
    maps."""
    def mutate(f):
        def split(*args):
            N, L = f(*args)
            return numerator(N), leftover(L)
        return split
    return mutate


def numerator_doubled(f):
    """A function returning (N, D) or (N, L) whose N is doubled."""
    return split_mutated(lambda N: N * 2, lambda L: L)(f)


def value_doubled(f):
    def oracle(*args):
        result = f(*args)
        return dataclasses.replace(result, value=result.value * 2)
    return oracle


def side_doubled(side):
    """_symmetrized with the sum of one form doubled, the others untouched."""
    def mutate(f):
        return lambda form, n: f(form, n) * 2 if form == side else f(form, n)
    return mutate


def thm6_right_exponent_raised(f):
    """_numerator with thm6-right's exponent of x_k one higher at position 2."""
    def numerator(form, X, Y, k, i, x_prefix):
        if form == identities.SIDE_RIGHT and i == 2:
            return Y[k - 1] - X[k - 1] ** (len(X) - i + 2)
        return f(form, X, Y, k, i, x_prefix)
    return numerator


def littlewood_doubled(f):
    """constant_identity with its Littlewood value doubled, prop5 untouched."""
    def identity(mu, kind, memo):
        value = f(mu, kind, memo)
        return value * 2 if kind == "littlewood" else value
    return identity


def always_equal(f):
    return lambda *args: True


def rows_one_short(f):
    """peel_polynomial reading back from its rows less the last; a list of
    one row stays whole, as none would be left to read from.  The slots are
    laid out by the row count, so a short list misreads instead of raising."""
    def peel(mu, steps, step, den, universe, rows, memo):
        return f(mu, steps, step, den, universe, rows[:-1] or rows, memo)
    return peel


def last_step_doubled(f):
    """A step rule whose steps into the empty state count twice: every path
    takes one such step, so the peel's N doubles and D stays."""
    return lambda parts: [
        (rest, ways if rest else 2 * ways, s, args) for rest, ways, s, args in f(parts)
    ]


def lift_one_short(f):
    """The peel walker rebuilt from its source with the first term of each
    state lifted by one fewer of the den factors it misses, the smallest."""
    lifts = (
        ("for term, have in terms:", "for at, (term, have) in enumerate(terms):"),
        ("for t, _ in sorted(lcm - have):", "for t, _ in sorted(lcm - have)[at == 0:]:"),
    )
    source = textwrap.dedent(inspect.getsource(f))
    for line, short in lifts:
        assert source.count(line) == 1, line
        source = source.replace(line, short)
    namespace = dict(vars(sys.modules[f.__module__]))
    exec(source, namespace)
    return namespace[f.__name__]


def ways_dropped(f):
    """_sub_multisets with every sub-multiset counted once, as if it came from
    one set of positions: the block peel without its binomials."""
    return lambda parts: [(rest, size, total, 1) for rest, size, total, _ in f(parts)]


def prop5_shared_across_lengths(families):
    """prop5 in one share group, so one peel memo serves every length."""
    prop5 = dataclasses.replace(families["prop5"], share=lambda parts: None)
    return {**families, "prop5": prop5}


# name: (module, attribute, mutation, the criteria, by number, that must fail)
# Criteria 5, 6, 9 and 10 also kill the doubled closed forms; the row lists
# only the three cheap ones.  The thm6-right exponent row runs criterion 6
# alone: under it prop7 loses its cancellation and criterion 7 takes ~20 s.
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
    "_generator x2": (
        "macdonald", "_generator", lambda f: lambda *args: f(*args).scale(2), (10,)
    ),
    "positivity N x2": ("positivity", "_numerator_and_leftover", numerator_doubled, (9,)),
    "positivity N + t": (
        "positivity", "_numerator_and_leftover", split_mutated(lambda N: N + T, lambda L: L), (9,)
    ),
    "positivity L x (1 + q)": (
        "positivity",
        "_numerator_and_leftover",
        split_mutated(
            lambda N: N,
            lambda L: L * (Polynomial.one(L.universe) + Polynomial.variable(L.universe, "q")),
        ),
        (9,),
    ),
    "thm6-left x2": ("identities", "_symmetrized", side_doubled(identities.SIDE_LEFT), (6, 8)),
    "thm7-right x2": ("identities", "_symmetrized", side_doubled(identities.SIDE_CYCLE), (6, 8)),
    "thm6-right x2": ("identities", "_symmetrized", side_doubled(identities.SIDE_RIGHT), (6,)),
    "thm6-right exponent +1 at position 2": (
        "identities", "_numerator", thm6_right_exponent_raised, (6,)
    ),
    "closed forms x2": ("specialize", "monomial_spec", value_doubled, (2, 3, 4)),
    # The power-sum oracle peels under the block rule, so criterion 2 sees
    # the closed forms change against it.
    "rearrangement rule numerator x2": (
        "partitions", "rearrangement_steps", last_step_doubled, (7, 2)
    ),
    # Both closed forms and the power-sum oracle share the peel's codec, and
    # misread alike, so neither criterion 1 nor 2 sees this one; criterion
    # 3's direct oracle counts arrangements without it.
    "peel_polynomial rows one short": ("partitions", "peel_polynomial", rows_one_short, (3, 9)),
    # The closed forms and the power-sum oracle share the walker's lift, but
    # the two rules leave different terms short, so criterion 2 still sees
    # this one; so do every criterion that peels a partition with two
    # distinct parts and criterion 3's direct oracle, which does not peel.
    # Criterion 4 peels only (1^k), a state of one term, and passes it.
    "peel lift one factor short": (
        "partitions", "peel", lift_one_short, (1, 2, 3, 5, 6, 7, 9, 10)
    ),
    "block rule binomial multiplicity dropped": (
        "partitions", "_sub_multisets", ways_dropped, (2,)
    ),
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


@pytest.mark.parametrize("killer", [CONTROL, 2, 3, 4, 6, 7, 8, 9, 10])
def test_the_killers_pass_the_unmutated_code(killer):
    assert not rejects(killer)
