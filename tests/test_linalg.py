"""Sparse exact rank and echelon forms."""
import ast
import random
from fractions import Fraction
from pathlib import Path

from weylrack import fk, signed, yd
from weylrack.cyclotomic import CyclotomicField
from weylrack.linalg import (
    _inv,
    back_substitute,
    echelon,
    rank,
)


def dense_rref(rows, ncols):
    """Plain dense Gauss-Jordan over Fraction (oracle): lead -> {col: value}
    of the row of the reduced echelon form with a 1 at ``lead``, lead dropped."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    leads = []
    for col in range(ncols):
        rk = len(leads)
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        inv = 1 / mat[rk][col]
        mat[rk] = [v * inv for v in mat[rk]]
        for i in range(len(mat)):
            if i != rk and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rk])]
        leads.append(col)
    return {
        lead: {c: v for c, v in enumerate(row) if v and c != lead}
        for lead, row in zip(leads, mat)
    }


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols))


def test_rank_fuzz_against_dense_oracle():
    rng = random.Random(41)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {
                c: Fraction(rng.randint(-3, 3))
                for c in range(ncols)
                if rng.random() < 0.6
            }
            rows.append({c: v for c, v in row.items() if v})
        assert rank(rows) == dense_rank(rows, ncols)


def test_echelon_reads_a_one_shot_generator_like_its_list():
    rng = random.Random(43)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        rows = [
            {c: Fraction(rng.randint(-2, 2)) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(nrows)
        ]
        pivots = echelon(rows)
        streamed = echelon(dict(row) for row in rows)
        assert streamed == pivots and list(streamed) == list(pivots)


def test_int_rows_with_non_unit_pivots_against_dense_oracle():
    rng = random.Random(47)
    fractions_seen = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        rows = [
            {c: rng.randint(-4, 4) for c in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        pivots = echelon(rows)
        assert len(pivots) == dense_rank(rows, ncols)
        values = [v for tail in pivots.values() for v in tail.values()]
        assert all(type(v) in (int, Fraction) for v in values)
        fractions_seen += any(type(v) is Fraction for v in values)
        reduced = back_substitute(pivots)
        assert reduced == dense_rref(rows, ncols)
        assert all(c not in reduced for tail in reduced.values() for c in tail)
    assert fractions_seen  # the non-unit fallback was exercised


def test_reduced_form_does_not_depend_on_row_order(monkeypatch):
    # the fk linear engine feeds echelon its rows sparsest first; that is sound
    # because echelon leads with a row's least column, so back_substitute
    # returns the row space's reduced echelon form in any row order
    captured = []
    fk_echelon = fk.echelon

    def capturing_echelon(rows):
        captured.append([dict(row) for row in rows])
        return fk_echelon(rows)

    monkeypatch.setattr(fk, "echelon", capturing_echelon)
    fk.graded_dims_linear(fk.fk_presentation(4), 7)
    e4_degree_7 = captured[-1]
    rng = random.Random(53)
    sparse = [
        {c: rng.choice((1, -1, 2, -3)) for c in rng.sample(range(40), rng.randint(1, 6))}
        for _ in range(60)
    ]
    for rows in (e4_degree_7, sparse):
        orders = (
            rows,
            random.Random(59).sample(rows, len(rows)),
            sorted(rows, key=len),
            sorted(rows, key=len, reverse=True),
        )
        forms = [back_substitute(echelon(order)) for order in orders]
        assert all(form == forms[0] for form in forms)
    # densest first, the E_4 rows meet non-unit pivots, so the orders above
    # reach the same form through different arithmetic
    tails = echelon(sorted(e4_degree_7, key=len, reverse=True)).values()
    assert any(type(v) is Fraction for tail in tails for v in tail.values())


def test_inverse_keeps_int_units():
    assert _inv(1) == 1 and type(_inv(1)) is int
    assert _inv(-1) == -1 and type(_inv(-1)) is int
    assert _inv(2) == Fraction(1, 2) and type(_inv(2)) is Fraction
    assert _inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_non_unit_pivot_keeps_integral_tail_entries_int():
    # 1/2 * 4 is integral and comes out as the int 2; 1/2 * 3 stays a Fraction
    tail = echelon([{0: 2, 1: 4, 2: 3}])[0]
    assert tail == {1: 2, 2: Fraction(3, 2)}
    assert type(tail[1]) is int
    assert type(tail[2]) is Fraction


# the one function in the package allowed a true division: its operands are
# never both int, so `/` stays exact; every other module, cyclotomic
# inverses included, divides through it
_DIVISION_HELPERS = {"linalg.py": "_inv"}
# the one other `/` in the package, by module and source text: a path join
_PATH_JOINS = {("cache.py", 'Path(directory) / "results.jsonl"')}


def _true_divisions_and_floats(path):
    """(line, what) for every true division outside the module's division
    helper and its path joins, and every float literal or ``float(...)``
    call, in the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    allowed = set()
    if path.name in _DIVISION_HELPERS:
        name = _DIVISION_HELPERS[path.name]
        helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        allowed = {id(sub) for sub in ast.walk(helper)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if (path.name, ast.get_source_segment(source, node)) not in _PATH_JOINS:
                found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
    return found


def test_no_floating_point_in_exact_engines():
    # int scalars and coefficients flow through every module, where `/`
    # would silently produce a float; inverses go through linalg._inv, and
    # CycScalar.inverse solves its system on linalg.echelon, instead
    paths = sorted(Path(signed.__file__).parent.glob("*.py"))
    assert {"nichols.py", "rack.py", "classify.py", "suites.py"} <= {p.name for p in paths}
    for path in paths:
        assert _true_divisions_and_floats(path) == [], path.name
    # each exemption still names code that exists
    for name, text in _PATH_JOINS:
        assert text in (Path(signed.__file__).with_name(name)).read_text(encoding="utf-8")


def _imports(tree):
    """(bound name, imported module, line) for every import in ``tree``;
    the module of ``from .x import y`` reads "x"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.asname or a.name.split(".")[0], a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.module or "", node.lineno) for a in node.names]
    return found


def test_every_import_is_used():
    # no linter runs on the package, so an import left behind by a deletion
    # would go unnoticed; __init__ imports only to re-export
    package = Path(signed.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [(line, name) for name, _, line in _imports(tree) if name not in read]
        assert unused == [], path.name


def test_nichols_layer_does_not_import_the_certificate_layer():
    tree = ast.parse(Path(yd.__file__).read_text(encoding="utf-8"))
    assert not [m for _, m, _ in _imports(tree) if m.split(".")[-1] == "classify"]


def test_certificate_layer_lists_no_class():
    # type-D certificates come from constructed pairs and a lazy class scan;
    # nothing in that layer may reach for a class listing
    for name in ("classify", "rack"):
        path = Path(signed.__file__).with_name(f"{name}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {bound for bound, _, _ in _imports(tree)}
        assert not used & {"enumerate_class", "all_classes"}, name


def test_nichols_engine_reads_only_the_braided_space():
    # the engine's symmetry comes from C^{-1}, never from the group: it may
    # not import the element, class or module layers
    tree = ast.parse(Path(signed.__file__).with_name("nichols.py").read_text(encoding="utf-8"))
    imported = {name for bound, m, _ in _imports(tree) for name in (bound, m.split(".")[-1])}
    assert not imported & {"classes", "signed", "yd"}


def test_rank_handles_fill_in_on_new_pivot_columns():
    # elimination introduces a leading entry in a column that already has a
    # pivot; a single substitution pass would miscount
    rows = [
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 2: Fraction(-1)},
    ]
    assert rank(rows) == 2


def test_rank_with_cyclotomic_scalars():
    F = CyclotomicField(3)
    z = F.zeta()
    # z satisfies 1 + z + z^2 = 0, so the rows below are dependent
    rows = [
        {0: F.one, 1: z},
        {0: z, 1: z * z},
        {0: F.one, 1: F.one},
    ]
    assert rank(rows) == 2
