import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qmono").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_the_package_sources_are_found():
    assert "__init__.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_only_the_kernel_reads_the_term_map(path):
    # Polynomial.terms is keyed by packed monomials; every other module
    # reads a polynomial's terms through Polynomial.items(), or its
    # coefficients alone through Polynomial.coefficients().
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert reads == []


# A polynomial's term map is never changed after construction: cached values
# (its hash and sort key) rely on it.  Aliases are the names a function binds
# to ``x.terms`` or ``x._at(w)``, which may be that same dict.
_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
_CONSTRUCTORS = {"__init__", "_raw"}


def _is_term_map(node, aliases):
    if isinstance(node, ast.Attribute):
        return node.attr == "terms"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "_at"
    return isinstance(node, ast.Name) and node.id in aliases


def _term_map_writes(source):
    """The line of every write into an existing term map in ``source``."""
    writes = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
                for target, value in pairs:
                    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                        pairs += list(zip(target.elts, value.elts))
                    elif isinstance(target, ast.Name) and _is_term_map(value, ()):
                        aliases.add(target.id)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = _is_term_map(node.value, aliases)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = node.func.attr in _MUTATORS and _is_term_map(node.func.value, aliases)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = node.attr == "terms" and func.name not in _CONSTRUCTORS
            else:
                hit = False
            if hit:
                writes.append(node.lineno)
    return writes


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_code_writes_into_an_existing_term_map(path):
    assert _term_map_writes(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(p):\n    p.terms[0] = 1",
        "def f(p):\n    p.terms[0] += 1",
        "def f(p):\n    del p.terms[0]",
        "def f(p):\n    p.terms.update({})",
        "def f(p):\n    p.terms.pop(0)",
        "def f(p, w):\n    p._at(w).pop(0)",
        "def f(p):\n    t = p.terms\n    t[0] = 1",
        "def f(p, w):\n    a, b = p._at(w), 2\n    del a[0]",
        "def f(p):\n    t = p.terms\n    t.update({})",
        "def f(p):\n    p.terms = {}",
    ],
)
def test_the_term_map_check_sees_each_kind_of_write(source):
    assert _term_map_writes(source) != []


def test_every_exported_name_resolves():
    import qmono

    assert [name for name in qmono.__all__ if not hasattr(qmono, name)] == []


def _classes_in(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for sub in ast.walk(node.exc):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


def test_every_error_class_is_raised():
    # An error class that no module raises is dead public API.
    errors = next(p for p in SOURCES if p.name == "errors.py")
    raised = set().union(*(_raised_names(p) for p in SOURCES if p != errors))
    assert sorted(_classes_in(errors) - {"QmonoError"} - raised) == []


def _callers(path, callee):
    """(module, caller) of every call to ``callee``.  The caller is the
    enclosing top-level definition, or ``Class.method`` for a call inside a
    method of a top-level class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if not isinstance(top, ast.ClassDef):
            owners.append((top, name))
            continue
        for item in top.body:
            method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            owners.append((item, f"{name}.{item.name}" if method else name))
    callers = set()
    for owner, name in owners:
        for node in ast.walk(owner):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == callee:
                    callers.add((path.name, name))
    return callers


def test_the_caller_check_names_methods(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class C:\n    x = f()\n\n    def m(self):\n        self.f()\n\n\ndef g():\n    f()\n"
    )
    assert _callers(path, "f") == {("m.py", "C"), ("m.py", "C.m"), ("m.py", "g")}


def test_only_a_product_multiplies_term_pairs():
    # Substitution is a monomial map, one key shift and one coefficient
    # scale per term, so the term pair loop has one caller in the runtime:
    # the product of two polynomials.
    callers = set().union(*(_callers(p, "_mul_terms") for p in SOURCES))
    assert callers == {("algebra.py", "Polynomial.__mul__")}


def test_one_lift_brings_a_numerator_over_the_lcm():
    # A sum and an equality bring a numerator over the denominator factor
    # powers it lacks in one place, so a change to the lift lands once.
    callers = set().union(*(_callers(p, "_lifted") for p in SOURCES))
    assert callers == {
        ("algebra.py", "_merged"),
        ("algebra.py", "FactoredFraction.sum"),
        ("algebra.py", "FactoredFraction.eq"),
    }


def test_the_list_product_is_defined_once():
    # algebra.product is the one helper that multiplies a list of
    # polynomials; math.prod is left to lists of ints.
    defined = {
        (p.name, node.name)
        for p in SOURCES
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in ("product", "image_product")
    }
    assert defined == {("algebra.py", "product")}
    callers = set().union(*(_callers(p, "prod") for p in SOURCES))
    assert callers == {
        ("identities.py", "constant_identity"),
        ("partitions.py", "Partition.repetition_factor"),
        ("partitions.py", "check_peel_cost"),
        ("partitions.py", "z_of"),
    }
    users = {module for p in SOURCES for module, _ in _callers(p, "product")}
    assert users == {
        "acceptance.py", "algebra.py", "identities.py", "macdonald.py", "positivity.py"
    }


def _product_accumulations(source):
    """The enclosing top-level definition of each ``x = x * y``,
    ``x = y * x`` or ``x *= y`` inside a loop of ``source``."""
    owners = set()
    for top in ast.parse(source).body:
        for loop in ast.walk(top):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.AugAssign):
                    hit = isinstance(node.op, ast.Mult) and isinstance(node.target, ast.Name)
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
                    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                    operands = (node.value.left, node.value.right)
                    hit = isinstance(node.value.op, ast.Mult) and any(
                        isinstance(o, ast.Name) and o.id in names for o in operands
                    )
                else:
                    hit = False
                if hit:
                    owners.add(top.name)
    return owners


@pytest.mark.parametrize(
    "source",
    [
        "def f(xs):\n    p = 1\n    for x in xs:\n        p = p * x",
        "def f(xs):\n    p = 1\n    for x in xs:\n        p = x * p",
        "def f(xs):\n    p = 1\n    while xs:\n        p *= xs.pop()",
        "class C:\n    def m(self, xs):\n        for x in xs:\n            for y in x:\n                p = p * y",
    ],
)
def test_the_accumulation_check_sees_each_form(source):
    assert _product_accumulations(source) != set()


def test_no_loop_accumulates_a_product():
    # A product of a list is one algebra.product (math.prod for ints).  Only
    # the kernel and the one peel walker, whose values may be ints, keep a
    # running product.
    owners = {
        (p.name, owner)
        for p in SOURCES
        if p.name != "algebra.py"
        for owner in _product_accumulations(p.read_text())
    }
    assert owners == {("partitions.py", "peel")}


# The callers of each Kronecker codec helper: a dense product's rows and a
# rearrangement peel's ints are read back by the one slot reader and sized
# by the one slot bound.
_CODEC_CALLERS = {
    "_evaluate": {"_row_product"},
    "_read": {"_row_product", "PeelInts.polynomial"},
    "_slot_size": {"_row_product", "PeelInts.__init__"},
    "_bias": {"_evaluate", "_read"},
}


@pytest.mark.parametrize("callee", _CODEC_CALLERS)
def test_one_kronecker_codec(callee):
    # One dense path: a power squares through the product, so rows are
    # evaluated in one place; a peel evaluates its factors by shifts.
    callers = set().union(*(_callers(p, callee) for p in SOURCES))
    assert callers == {("algebra.py", owner) for owner in _CODEC_CALLERS[callee]}


def _names(path):
    """Every name a module reads, imports or defines."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            out.add(node.name)
    return out


def test_one_function_sizes_peels_and_reads_back():
    # The closed forms, prop5, positivity and the power-sum oracle hand a
    # step rule and its term maps to partitions.peel_polynomial, which
    # derives the l1 bound, builds the codec, peels and reads back.  No
    # other module names the codec, and the only peel called directly is
    # Littlewood's on ints, so no caller sizes slots or states an l1 norm of
    # its own.
    builders = set().union(*(_callers(p, "PeelInts") for p in SOURCES))
    assert builders == {("partitions.py", "peel_polynomial")}
    assert {p.name for p in SOURCES if "PeelInts" in _names(p)} == {"algebra.py", "partitions.py"}
    peels = set().union(*(_callers(p, "peel") for p in SOURCES))
    assert peels == {("partitions.py", "peel_polynomial"), ("identities.py", "constant_identity")}


def test_only_the_reference_enumerates_rearrangements():
    # Every rearrangement sum goes through partitions.peel under the
    # rearrangement rule.
    # Criterion 5's literal reference is the one place outside
    # partitions.py that lists the rearrangements.
    callers = set().union(
        *(_callers(p, "derangements") for p in SOURCES if p.name != "partitions.py")
    )
    assert callers == {("acceptance.py", "rearrangement_sum")}


def test_no_source_lists_the_permutations():
    # The power-sum oracle peels set partitions of the positions, so no
    # runtime code lists the n! permutations; permutations_with_cycles is
    # the tests' literal reference.
    callers = set().union(*(_callers(p, "permutations_with_cycles") for p in SOURCES))
    assert callers == set()


def _references(path):
    """(owner, referenced name) for every name or attribute read in a
    module.  The owner is the enclosing top-level definition, or
    ``Class.method`` for a read inside a method of a top-level class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    refs = set()

    def read(node, owner):
        if isinstance(node, ast.Name):
            refs.add((owner, node.id))
        elif isinstance(node, ast.Attribute):
            refs.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                read(child, f"{node.name}.{child.name}")
            else:
                read(child, owner)

    for top in tree.body:
        read(top, getattr(top, "name", None))
    return refs


def _public_definitions(path):
    """The public top-level functions of a module, as ``name``, and the
    public methods of its top-level classes, as ``Class.name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_every_public_function_is_used_by_the_package():
    # A public function or method that only the tests call is a check the
    # selftest never runs, or dead code.  An import, an __all__ entry or a
    # read inside the definition itself is not a use.  The one exception is
    # the power-sum oracle's literal reference, which perfbench/tracer.py
    # looks up by name in partitions.py: it moves into the tests with the
    # next change to the benchmark (ROADMAP item 1).
    refs = set().union(*(_references(p) for p in SOURCES))
    unused = []
    for path in SOURCES:
        for qualname in _public_definitions(path):
            name = qualname.rpartition(".")[2]
            if not any(ref == name and owner != qualname for owner, ref in refs):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == ["partitions.permutations_with_cycles"]


# Process-wide caches whose values no mutant of the kill matrix changes: the
# polynomials 1 - q^s, the packed keys of read-back rows, the argument parser
# and the tables of monomial strings, each a function of its key alone.
_VALUE_FREE_CACHES = {
    "specialize.one_minus_q_power",
    "algebra._packed_rows",
    "cli.build_parser",
    "algebra._monomial_texts",
}


def _cached_functions(path):
    """``module.name`` of every function a ``functools`` cache decorates."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    yield f"{path.stem}.{node.name}"


def test_every_cache_is_emptied_by_cold_memos_or_holds_no_value_a_mutant_changes():
    # A kept value a mutant built would outlive its kill row and hide the
    # next row's mutant, so every cache that holds such values is one that
    # ``cold_memos`` empties.
    from conftest import MEMOS

    cleared = {f"{memo.__module__.rpartition('.')[2]}.{memo.__wrapped__.__name__}" for memo in MEMOS}
    cached = set().union(*(_cached_functions(p) for p in SOURCES))
    assert cached - cleared - _VALUE_FREE_CACHES == set()
    assert cleared | _VALUE_FREE_CACHES <= cached
