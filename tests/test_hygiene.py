"""Source hygiene: no module of the package or of the tests imports a name
that it never uses, no module of the package keeps a process-lifetime cache,
no function, class or UPPER_CASE module-level constant of the package is
there only for the tests (or for nothing), no
module of the package or of the scripts opens a file by path in a "w"
mode, no code of the package but identities.judge and
identities.error_report builds a report or sets its verdict, no module
of the package uses mpmath's process-global precision, no function of
the package takes a parameter that it never reads, no default of a
function of the package is one that every call keeps, no comparison of
the package against VANISH_TOL does anything but guard a raise, and no
module of the package imports threading, concurrent.futures or
multiprocessing."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qident").glob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])
#: The code that may read a definition of the package: the package itself, the
#: benchmark harness and the scripts, but not the tests.
READERS = sorted([*SRC, *(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
#: The code that writes reports: the package and the scripts.
WRITERS = sorted([*SRC, *(ROOT / "scripts").glob("*.py")])

#: functools decorators whose cache lives as long as the process.
PROCESS_CACHES = {"lru_cache", "cache", "cached_property"}

#: The top-level functions of the package that may build an IdentityReport.
REPORT_BUILDERS = {"judge", "error_report"}
#: The report fields that hold the verdict.
VERDICT_FIELDS = {"status", "abs_residual", "rel_residual"}

#: The standard modules that start threads or processes.
CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}

#: mpmath's precision scopes: each sets a context's precision for a block.
PRECISION_SCOPES = {"workdps", "workprec", "extradps", "extraprec"}

#: The parameters every verifier takes because run_case passes them to all.
VERIFIER_PARAMETERS = {"tol"}

#: Statements that define a function or a class.
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(text):
    """(line, name) of each name bound by an import in the module source text
    that the module never reads, as a name, as the root of an attribute, or
    as an entry of __all__.  Imports from __future__ and names imported on a
    line marked `# noqa: F401` are skipped."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_scan_finds_and_skips():
    text = ("from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "import cmath  # noqa: F401\n"
            "from json import (\n"
            "    dumps,\n"
            "    loads,\n"
            ")\n"
            "import csv as table\n"
            "__all__ = ['loads']\n"
            "print(os.getcwd())\n")
    assert unused_imports(text) == [(2, "math"), (6, "dumps"), (9, "table")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def process_caches(text):
    """(line, name) of each use of a functools cache decorator in the module
    source text: imported from functools, or read as an attribute of
    functools (under any alias).  Such a cache outlives one evaluation: a
    repeated benchmark round would time cache hits instead of the
    computation, and one evaluation's state would reach the next.
    Per-evaluation state belongs in a context variable that run_case sets and
    resets (qcore.THETA_MEMO)."""
    nodes = list(ast.walk(ast.parse(text)))
    modules = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in PROCESS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_process_cache_scan_finds_each_form():
    text = ("import functools\n"
            "from functools import cached_property, reduce\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def f(x):\n"
            "    return x\n"
            "g = functools.cache(f)\n"
            "h = functools.reduce\n"
            "import functools as ft\n"
            "k = ft.lru_cache()(f)\n"
            "memo = {}\n")
    assert process_caches(text) == [(2, "cached_property"), (3, "lru_cache"),
                                    (6, "cache"), (9, "lru_cache")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_process_lifetime_caches(path):
    assert process_caches(path.read_text(encoding="utf-8")) == []


def top_level_definitions(text):
    """Names of the top-level functions and classes of a module source text."""
    return [node.name for node in ast.parse(text).body if isinstance(node, DEFINITIONS)]


def names_read(text):
    """Every name that a module source text reads: as a name, as an attribute,
    or as a string constant equal to it (bench/tracing.py names the functions
    it wraps in strings).  A function or class reading its own name inside its
    own definition does not count."""
    read = set()
    for stmt in ast.parse(text).body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                read.add(name)
    return read


def test_unread_definition_scan_finds_and_skips():
    text = ("import mod\n"
            "def walk(n):\n"
            "    return walk(n - 1) if n else 0\n"
            "class Box:\n"
            "    def get(self) -> 'Box':\n"
            "        return helper()\n"
            "def helper():\n"
            "    return mod.traced\n"
            "def traced():\n"
            "    pass\n"
            "def named():\n"
            "    pass\n"
            "TIMED = ['named']\n"
            "unused = None\n")
    read = names_read(text)
    assert [name for name in top_level_definitions(text) if name not in read] \
        == ["walk", "Box"]


def test_no_test_only_definitions():
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in READERS))
    unread = [f"{path.name}:{name}" for path in SRC
              for name in top_level_definitions(path.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


def top_level_constants(text):
    """Names of the UPPER_CASE module-level constants of a module source text:
    each name an assignment at the top level binds that has no lower-case
    letter (so not __all__)."""
    names = []
    for stmt in ast.parse(text).body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        names += [node.id for target in targets for node in ast.walk(target)
                  if isinstance(node, ast.Name) and node.id.isupper()]
    return names


def test_unread_constant_scan_finds_and_skips():
    text = ("import mod\n"
            "__all__ = ['LISTED']\n"
            "LISTED = 1\n"
            "STALE = 1e-280\n"
            "TOL: float = 1e-15\n"
            "LO, HI = 0, 1\n"
            "lower = 2\n"
            "def f(x):\n"
            "    LOCAL = 3\n"
            "    return x * TOL + HI + mod.READ\n"
            "READ = 4\n"
            "NAMED = 'x'\n"
            "TIMED = ['NAMED']\n")
    read = names_read(text)
    assert [name for name in top_level_constants(text) if name not in read] \
        == ["STALE", "LO", "TIMED"]


def test_no_unread_constants():
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in READERS))
    unread = [f"{path.name}:{name}" for path in SRC
              for name in top_level_constants(path.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


def truncating_opens(text):
    """Line of each open(...) call in the module source text with a constant
    mode that contains "w", unless its file is a name bound to os.open(...)
    in the module.  open(path, "w") truncates the file to zero before writing
    it, and on ext4 rewriting a truncated file starts writeback at close;
    reports are written in place through cli.write_text, which opens with
    os.open and wraps the descriptor."""
    nodes = list(ast.walk(ast.parse(text)))

    def os_open(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "open" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os")

    descriptors = {t.id for node in nodes if isinstance(node, ast.Assign) and os_open(node.value)
                   for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in nodes:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and node.args):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "w" in mode.value
                and not (isinstance(node.args[0], ast.Name)
                         and node.args[0].id in descriptors)):
            found.append(node.lineno)
    return sorted(found)


def test_truncating_open_scan_finds_and_skips():
    text = ("import os\n"
            "open(path, 'w')\n"
            "open(path)\n"
            "open(path, mode='wb')\n"
            "open(path, 'r', encoding='utf-8')\n"
            "with open(path, 'a') as fh, open(other, 'w+') as gh:\n"
            "    pass\n"
            "fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n"
            "open(fd, 'w', encoding='utf-8')\n"
            "open(fd2, 'w')\n"
            "open(path, 'x')\n")
    assert truncating_opens(text) == [2, 4, 6, 10]


@pytest.mark.parametrize("path", WRITERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_truncating_opens(path):
    assert truncating_opens(path.read_text(encoding="utf-8")) == []


def verdict_writes(text):
    """(line, name) of each place in the module source text that builds an
    IdentityReport outside the top-level functions in REPORT_BUILDERS (a call
    of IdentityReport, by name or attribute), or that sets a verdict field:
    an assignment of any form to an attribute in VERDICT_FIELDS, a setattr
    with such a constant name, or a replace(...) with such a keyword.  One
    rule, identities.judge, turns sides into residuals and a status."""
    found = []
    for stmt in ast.parse(text).body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and node.attr in VERDICT_FIELDS:
                found.append((node.lineno, node.attr))
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            if func == "IdentityReport" and own not in REPORT_BUILDERS:
                found.append((node.lineno, func))
            elif func == "setattr" and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in VERDICT_FIELDS:
                found.append((node.lineno, node.args[1].value))
            elif func == "replace":
                found += [(node.lineno, k.arg) for k in node.keywords
                          if k.arg in VERDICT_FIELDS]
    return sorted(found)


def test_verdict_write_scan_finds_and_skips():
    text = ("from dataclasses import replace\n"
            "def judge(sides):\n"
            "    return IdentityReport(status='pass')\n"
            "def error_report(exc):\n"
            "    return mod.IdentityReport(status='error')\n"
            "def verify(x):\n"
            "    rep = judge(x)\n"
            "    rep.status = 'fail'\n"
            "    rep.rel_residual += 1\n"
            "    rep.message, rep.case_id = 'm', 'c'\n"
            "    rep.case_id, rep.abs_residual = 'c', 0.0\n"
            "    setattr(rep, 'status', 'error')\n"
            "    counts[rep.status] += 1\n"
            "    return replace(rep, status='pass', message='m')\n"
            "class Other:\n"
            "    status: str\n"
            "    def make(self):\n"
            "        return IdentityReport()\n"
            "rep = IdentityReport()\n")
    assert verdict_writes(text) == [(8, "status"), (9, "rel_residual"),
                                    (11, "abs_residual"), (12, "status"),
                                    (14, "status"), (18, "IdentityReport"),
                                    (19, "IdentityReport")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_judge_and_error_report_write_verdicts(path):
    assert verdict_writes(path.read_text(encoding="utf-8")) == []


def global_precision_uses(text):
    """(line, name) of each use of mpmath's process-global state in the
    module source text: an attribute of the mpmath module (imported under any
    alias) or a name imported from it, other than MPContext; a precision
    scope of PRECISION_SCOPES, as a name or an attribute of anything; and an
    assignment of any form to mp.dps or mp.prec.  A high-precision value
    carries a context of its own (identities.mp_context), so no code sets a
    precision that outlives the value it was set for."""
    nodes = list(ast.walk(ast.parse(text)))
    modules = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
               for a in node.names if a.name == "mpmath"}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found += [(node.lineno, a.name) for a in node.names if a.name != "MPContext"]
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if (base in modules and node.attr != "MPContext") \
                    or node.attr in PRECISION_SCOPES \
                    or (base == "mp" and node.attr in ("dps", "prec")
                        and isinstance(node.ctx, ast.Store)):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in PRECISION_SCOPES:
            found.append((node.lineno, node.id))
    return sorted(found)


def test_global_precision_scan_finds_and_skips():
    text = ("import mpmath\n"
            "import mpmath as mm\n"
            "from mpmath import MPContext, mp, workdps\n"
            "ctx = mpmath.MPContext()\n"
            "ctx.dps = 40\n"
            "x = mm.mpf(1)\n"
            "with workdps(50):\n"
            "    pass\n"
            "mp.dps = 30\n"
            "mp.prec += 10\n"
            "with ctx.extradps(10):\n"
            "    y = ctx.mpmathify(x)\n"
            "z = x.context.dps + mp.dps\n")
    assert global_precision_uses(text) == [(3, "mp"), (3, "workdps"), (6, "mpf"),
                                           (7, "workdps"), (9, "dps"), (10, "prec"),
                                           (11, "extradps")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_global_mpmath_precision(path):
    assert global_precision_uses(path.read_text(encoding="utf-8")) == []


def unread_parameters(text):
    """(line, function, parameter) of each parameter of a function (or
    lambda) in the module source text that its body never reads as a name,
    nested functions included.  The tol of a verify_* function is skipped:
    run_case passes it to every verifier (VERIFIER_PARAMETERS)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, name, p.arg) for p in params if p.arg not in read
                  and not (name.startswith("verify_") and p.arg in VERIFIER_PARAMETERS)]
    return sorted(found)


def test_unread_parameter_scan_finds_and_skips():
    text = ("def f(a, b, *args, c=1, **kw):\n"
            "    b = 2\n"
            "    return a\n"
            "def outer(x, y):\n"
            "    def inner(z):\n"
            "        return x\n"
            "    return inner\n"
            "def verify_case(v, tol, rng):\n"
            "    return v\n"
            "def retry(tol, policy):\n"
            "    pass\n"
            "class Box:\n"
            "    def get(self, key):\n"
            "        return self.items\n"
            "g = lambda u, w: u\n")
    assert unread_parameters(text) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (1, "f", "kw"),
        (4, "outer", "y"), (5, "inner", "z"), (8, "verify_case", "rng"),
        (10, "retry", "policy"), (10, "retry", "tol"), (13, "get", "key"),
        (15, "<lambda>", "w")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default of a
    function in the parsed module, nested functions and methods included;
    position is the index of the argument a call passes it at (a method's
    self or cls not counted), or None for a keyword-only parameter."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        skip = 1 if id(node) in methods else 0
        found += [(node.name, p.arg, i - skip)
                  for i, p in enumerate(positional[first:], first)]
        found += [(node.name, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def passes(call, parameter, position):
    """Whether the call passes the parameter: by keyword, through a **
    argument, or by position, where a * argument may reach every position."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def one_value_knobs(texts, callers):
    """(function, parameter) of each parameter with a default of a function
    in the module source texts that no call in the caller source texts
    passes (a call names the function, or an attribute of that name): the
    default is then the one value in use, a constant, not an option.  A
    function that no call names is skipped (the unread-definition scan
    covers it), and so is main's argv."""
    calls = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = set()
    for text in texts:
        for function, parameter, position in defaulted_parameters(ast.parse(text)):
            named = calls.get(function, [])
            if named and (function, parameter) != ("main", "argv") \
                    and not any(passes(c, parameter, position) for c in named):
                found.add((function, parameter))
    return sorted(found)


def test_one_value_knob_scan_finds_and_skips():
    text = ("def f(a, b=1, *, c=2, d=3):\n"
            "    def inner(e=4):\n"
            "        pass\n"
            "    inner()\n"
            "def g(x, y=0):\n"
            "    pass\n"
            "def h(y=0):\n"
            "    pass\n"
            "def lonely(z=0):\n"
            "    pass\n"
            "def main(argv=None):\n"
            "    pass\n"
            "class Box:\n"
            "    def put(self, item, key=None, tag=''):\n"
            "        pass\n")
    callers = ("f(1, 2, c=3)\n"
               "f(1)\n"
               "mod.g(*args)\n"
               "h(**opts)\n"
               "main()\n"
               "box.put(1, 'k')\n")
    assert one_value_knobs([text], [text, callers]) == [
        ("f", "d"), ("inner", "e"), ("put", "tag")]


def test_no_one_value_knobs():
    assert one_value_knobs([p.read_text(encoding="utf-8") for p in SRC],
                           [p.read_text(encoding="utf-8") for p in READERS]) == []


def vanishing_stops(text):
    """Line of each comparison against VANISH_TOL (as a name or an attribute)
    in the module source text that is not the whole test of an if statement
    whose body is one raise and which has no else.  A factor that vanishes by
    value may only be a divisor that raises where it is met: a sum is cut by
    a QPower tag or a monomial key, never by matching a value to a power of
    q, and a zero numerator factor only multiplies its term."""
    nodes = list(ast.walk(ast.parse(text)))
    guards = {id(node.test) for node in nodes if isinstance(node, ast.If)
              and not node.orelse and len(node.body) == 1
              and isinstance(node.body[0], ast.Raise)}
    return sorted(node.lineno for node in nodes
                  if isinstance(node, ast.Compare) and id(node) not in guards
                  and any(getattr(c, "id", getattr(c, "attr", None)) == "VANISH_TOL"
                          for c in [node.left, *node.comparators]))


def test_vanishing_stop_scan_finds_and_skips():
    text = ("if abs(fd) < VANISH_TOL:\n"
            "    raise DivisionByVanishingFactor('pole')\n"
            "if abs(fn) < VANISH_TOL:  # a zero ends the side\n"
            "    done = True\n"
            "    break\n"
            "if VANISH_TOL > abs(fd):\n"
            "    raise DivisionByVanishingFactor\n"
            "else:\n"
            "    fd = 1\n"
            "small = abs(fn) < qcore.VANISH_TOL\n"
            "if abs(fn) < qcore.VANISH_TOL:\n"
            "    raise ZeroDivisionError\n"
            "if abs(fn) < VANISH_TOL and fd:\n"
            "    raise DivisionByVanishingFactor\n"
            "if abs(fn) < POLE_TOL:\n"
            "    done = True\n")
    assert vanishing_stops(text) == [3, 6, 10, 13]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_vanishing_stops(path):
    assert vanishing_stops(path.read_text(encoding="utf-8")) == []


def concurrency_imports(text):
    """(line, module) of each import in the module source text of a module in
    CONCURRENCY_MODULES or of one of their submodules.  A batch runs its
    samples one after another: under CPython's interpreter lock a thread pool
    gained nothing, and a process pool comes back only with a benchmark
    workload that shows its gain (ROADMAP item 5)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in CONCURRENCY_MODULES]
    return sorted(found)


def test_concurrency_import_scan_finds_and_skips():
    text = ("import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import os, multiprocessing.pool as mp\n"
            "import concurrency\n"
            "from . import threads\n"
            "from .concurrent import x\n"
            "def f():\n"
            "    import concurrent.futures\n"
            "import contextvars\n")
    assert concurrency_imports(text) == [(1, "threading"), (2, "concurrent.futures"),
                                         (3, "multiprocessing.pool"),
                                         (8, "concurrent.futures")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_concurrency_imports(path):
    assert concurrency_imports(path.read_text(encoding="utf-8")) == []
