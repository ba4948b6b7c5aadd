"""Static checks on the package source and its declared entry points."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "exhopf").glob("*.py"))
# bench/ is left out: its worker imports modules it never names, on purpose
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ count as used (re-exports)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert; library invariants raise typed errors
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=lambda p: p.name if p in SOURCES else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_unused_import_detector_sees_a_dead_name():
    tree = ast.parse("import os\nfrom math import comb, factorial\nprint(comb(3, 1))\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["os", "factorial"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _loaded_names(node):
    """Every name read below `node`, as a bare name or an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _dead_private_names(trees):
    """Private module-level functions, private methods of module-level
    classes and private `self._x` attributes that no code reads; a
    function's reads of itself do not count."""
    loads = {}
    for tree in trees:
        for name in _loaded_names(tree):
            loads[name] = loads.get(name, 0) + 1
    dead = []
    for tree in trees:
        methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in tree.body + methods:
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                own = sum(1 for name in _loaded_names(node) if name == node.name)
                if loads.get(node.name, 0) == own:
                    dead.append(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and _private(node.attr)
                    and node.attr not in loads
                ):
                    dead.append(f"self.{node.attr}")
    return sorted(set(dead))


def test_no_dead_private_functions_or_attributes():
    assert _dead_private_names([_tree(path) for path in SOURCES]) == []


def test_dead_private_detector_sees_dead_names():
    module = ast.parse(
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._read = {}\n"
        "        self._unread = {}\n"
        "        self.public = {}\n"
        "    def get(self):\n"
        "        return self._read, self._called()\n"
        "    def _called(self):\n"
        "        return 1\n"
        "    def _uncalled(self, n):\n"
        "        return self._uncalled(n - 1) if n else 0\n"
    )
    assert _dead_private_names([module]) == [
        "_dead", "_recursive", "_uncalled", "self._unread"
    ]


def _uncommented_caches(tree, lines):
    """Names of the functions decorated with `lru_cache` whose decorators
    have no comment block directly above them that holds a number (what
    the cache saves, as measured)."""
    bare = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "attr", None) or getattr(target, "id", None)
            if name != "lru_cache":
                continue
            first = min(d.lineno for d in node.decorator_list)
            block = []
            for line in reversed(lines[: first - 1]):
                if not line.strip().startswith("#"):
                    break
                block.append(line)
            if not any(ch.isdigit() for ch in "".join(block)):
                bare.append(node.name)
    return bare


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_says_what_it_saves(path):
    # a measurement behind every cache that stays: the comment directly
    # above each `@lru_cache` gives what it saves, in numbers
    text = path.read_text()
    assert _uncommented_caches(_tree(path), text.splitlines()) == []


def test_cache_comment_detector_sees_a_bare_cache():
    text = (
        "from functools import lru_cache\n"
        "# saves 3 ms a process\n@lru_cache(maxsize=None)\ndef measured(x):\n    return x\n"
        "# cached\n@lru_cache\ndef vague(x):\n    return x\n"
        "# saves 3 ms\n\n@lru_cache(maxsize=4)\ndef detached(x):\n    return x\n"
        "@functools.lru_cache(maxsize=None)\ndef bare(x):\n    return x\n"
    )
    assert _uncommented_caches(ast.parse(text), text.splitlines()) == ["vague", "detached", "bare"]


# F_p arithmetic lives in ffpoly (`inverse`, `add_into`, `mul_into`, `solve`);
# every `% p` elsewhere is pinned here, (module, function): (count, reason),
# so a new hand-written elimination or sum fails the test below
RESIDUE_SITES = {
    ("groebner.py", "_divide"): (1, "the division step, the measured inner loop"),
    ("hopf.py", "multiply_basis"): (1, "the sign of a basis product"),
    ("hopf.py", "_bockstein_unit_inverse"): (1, "the check that u is a unit"),
    ("printed.py", "lemma22"): (1, "canonical residues of the printed values"),
    ("steenrod.py", "_on_slot"): (1, "the binomial coefficient mod p"),
    ("symfun.py", "_chern_forms"): (2, "c_1 = 3 omega_r"),
}


def _residue_sites(tree):
    """{innermost enclosing function: number of `% p` and `% <x>.p`}."""
    sites = {}

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(right, ast.Name) and right.id == "p") or (
                isinstance(right, ast.Attribute) and right.attr == "p"
            ):
                sites[func] = sites.get(func, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_residue_arithmetic_stays_in_ffpoly():
    found = {
        (path.name, func): n
        for path in SOURCES
        if path.name != "ffpoly.py"
        for func, n in _residue_sites(_tree(path)).items()
    }
    assert found == {site: n for site, (n, _) in RESIDUE_SITES.items()}


def test_residue_detector_sees_a_hand_written_elimination():
    module = ast.parse(
        "def solve(rows, p, ring):\n"
        "    def pivot(row):\n        return row[0] % p\n"
        "    x = pivot(rows[0])\n    x %= ring.p\n    return x % 7\n"
    )
    assert _residue_sites(module) == {"pivot": 1, "solve": 1}


# A library module imports or reads a private module-level name of another
# library module only here, (importer, module, name): reason, so a new
# reach into another module's internals fails the test below
PRIVATE_READS = {
    ("steenrod.py", "symfun", "_chern_forms"):
        "the naming rule of a Chern ring, which `power` checks and reads its c_1 from",
    ("steenrod.py", "symfun", "_wu_table"):
        "the ring's slot table of P^j(c_m^e), kept beside its Wu formulas",
}
LIBRARY = {path.stem for path in SOURCES}


def _private_reads(name, tree):
    """{(name, module, private name)} for every private module-level name
    of a library module that `tree` imports, or reads as an attribute of
    a library module it imports."""
    modules, found = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").removeprefix("exhopf").lstrip(".")
        if not source:  # from . import bst [as bst_mod], from exhopf import bst
            for alias in node.names:
                if alias.name in LIBRARY:
                    modules[alias.asname or alias.name] = alias.name
        elif source in LIBRARY:
            found |= {(name, source, a.name) for a in node.names if _private(a.name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.add((name, modules[node.value.id], node.attr))
    return found


def test_no_library_module_reads_another_ones_private_names():
    found = set().union(*(_private_reads(path.name, _tree(path)) for path in SOURCES))
    assert found == set(PRIVATE_READS)


def test_private_read_detector_sees_imports_and_attributes():
    module = ast.parse(
        "from . import bst as b, liedata\nfrom .symfun import _x, y\n"
        "from exhopf.ffpoly import _z\nfrom exhopf import hopf\n"
        "def f(self):\n"
        "    return b._presentation, liedata.theta_set, hopf._Combination, self._own\n"
    )
    assert _private_reads("printed.py", module) == {
        ("printed.py", "symfun", "_x"), ("printed.py", "ffpoly", "_z"),
        ("printed.py", "bst", "_presentation"), ("printed.py", "hopf", "_Combination"),
    }


# The naming rule of the Chern variables (c_j is the variable `c<j>`) is
# read and written where the rings are made (`liedata`) and where their Wu
# formulas are (`symfun._chern_forms`), and nowhere else
CHERN_NAME_OWNERS = {"liedata.py", "symfun.py"}


def _chern_name_sites(tree):
    """Lines that turn a variable name into a Chern index or back:
    `int(name[1:])`, `name.startswith("c")` or an f-string `f"c{j}"`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func, arg = node.func, node.args[0]
            if (isinstance(func, ast.Name) and func.id == "int"
                    and isinstance(arg, ast.Subscript) and isinstance(arg.slice, ast.Slice)
                    and isinstance(arg.slice.lower, ast.Constant) and arg.slice.upper is None):
                lines.add(node.lineno)
            if (isinstance(func, ast.Attribute) and func.attr == "startswith"
                    and isinstance(arg, ast.Constant) and arg.value == "c"):
                lines.add(node.lineno)
        if (isinstance(node, ast.JoinedStr) and len(node.values) > 1
                and isinstance(node.values[0], ast.Constant) and node.values[0].value == "c"
                and isinstance(node.values[1], ast.FormattedValue)):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_liedata_and_symfun_read_chern_variable_names():
    found = {path.name: lines for path in SOURCES
             if path.name not in CHERN_NAME_OWNERS and (lines := _chern_name_sites(_tree(path)))}
    assert found == {}
    owners = [_chern_name_sites(_tree(path)) for path in SOURCES if path.name in CHERN_NAME_OWNERS]
    assert all(owners) and len(owners) == len(CHERN_NAME_OWNERS)


def test_chern_name_detector_sees_each_form():
    module = ast.parse(
        "def f(ring, j, text):\n"
        "    for name in ring.names:\n"
        "        if name.startswith('c'):\n"
        "            j = int(name[1:])\n"
        "    return ring.variable(f'c{j}'), int(text[0:2]), f'w{j}', name.startswith('w')\n"
    )
    assert _chern_name_sites(module) == [3, 4, 5]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_console_scripts_resolve():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (name, target)


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # the traced benchmark wraps library names from outside (bench/spans.py);
    # a refactor that drops one of them fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, (owner, attr)


def test_traced_hopf_methods_are_methods_of_the_model():
    # the traced benchmark wraps `getattr(HopfModel, name)` for each name in
    # HOPF_METHODS; a hopf refactor that renames one fails here, not there
    from exhopf.hopf import HopfModel

    names = [
        ast.literal_eval(node.value)
        for node in _tree(ROOT / "bench" / "spans.py").body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOPF_METHODS"]
    ]
    assert len(names) == 1 and names[0], names
    missing = [n for n in names[0] if not callable(HopfModel.__dict__.get(n))]
    assert missing == [], missing


def test_benchmark_tracer_sees_the_wu_and_power_layers(monkeypatch):
    # the traced benchmark reads `symfun.wu_formula.*` and `steenrod.power.*`
    # on `tables`; a refactor that routes the Chern slots past the names the
    # tracer wraps reads zero there, and fails here
    from exhopf import bst

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "timed"
        bst.full_table("F4", 2)
        tracer.phase = None
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["symfun.wu_formula.calls"]["value"] > 0
    assert metrics["steenrod.power.calls"]["value"] > 0


@pytest.mark.parametrize("group,p", [("E8", 2), ("E8", 5)])
def test_benchmark_tracer_sees_the_hopf_layers(monkeypatch, group, p):
    # the traced benchmark reads `hopf.<method>.*` on `models`; a refactor
    # that routes the model checks past the methods the tracer wraps reads
    # zero there, and fails here.  Every method is called at both primes,
    # except `sq`, a p = 2 operation
    from exhopf import hopf

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "timed"
        hopf.check_suite(hopf.build_model(group, p))
        tracer.phase = None
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    calls = {m: metrics[f"hopf.{m}.calls"]["value"] for m in spans.HOPF_METHODS}
    silent = [m for m, n in calls.items() if n == 0 and not (m == "sq" and p != 2)]
    assert silent == [], calls


def test_benchmark_digests_hold(monkeypatch):
    # one cold worker per workload, every pair, checked against the recorded
    # output digests: an output change fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    run = importlib.import_module("run")
    recorded = json.loads(run.DIGESTS_FILE.read_text())
    attempted = failed = 0
    problems = []
    for workload, pairs in run.WORKLOADS.items():
        sample = run.spawn(workload, [run.label(pair) for pair in pairs])
        a, f, msgs = run.check_ops(workload, [sample], recorded)
        attempted, failed, problems = attempted + a, failed + f, problems + msgs
    assert (attempted, failed) == (60, 0), problems


def test_benchmark_selftest_passes():
    # bench/selftest.py checks, among others, that every traced layer moves on
    # the workloads that exercise it (`ffpoly.mul.calls` and
    # `ffpoly.order_key.calls` on `crosscheck`, say); a change that stops a
    # layer from moving fails here, not only in a traced benchmark run.  It
    # writes only under the git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
