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
the package against VANISH_TOL does anything but guard a raise, only the
functions that THRESHOLD_READERS lists for a value threshold compare
against it at all, no module of the package imports threading,
concurrent.futures or multiprocessing, no module of the package but cli
imports json,
identities imports none of qcore's loop thresholds and tail pieces, no
module of the package calls the checked W entry points, and the package
exports every error class of errors.py."""

import ast
import os
import subprocess
import sys
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

#: The one UPPER_CASE name of qcore that identities may import: the memo that
#: run_case sets.
KERNEL_STATE = {"THETA_MEMO"}
#: The pieces of qcore's infinite-product loops besides its constants.
KERNEL_LOOP_PARTS = {"tail_radius", "poch_inf_tail"}

#: Each value threshold of the package, and the functions that compare a
#: value against it.  VANISH_TOL: one per factor loop that divides (paired
#: quotients share qcore._ratio_steps).  POLE_TOL: the W ledger's pole test.
#: STRUCT_ZERO_TOL: the flipped summand's zero count.  BOTH_ZERO_EPS: the
#: verdict on two vanishing sides.  These are the sites that ROADMAP items 13
#: (order counts) and 6 (condition-tracked verdicts) replace.
THRESHOLD_READERS = {
    "VANISH_TOL": {"qcore.poch_int", "qcore._ratio_steps", "series.eval_phi",
                   "series.eval_psi"},
    "POLE_TOL": {"wfunc.theta_quotient"},
    "STRUCT_ZERO_TOL": {"qcore._inf_split_product"},
    "BOTH_ZERO_EPS": {"identities.judge"},
}

#: The checked doors into the W kernel, for callers outside the package.
W_ENTRIES = {"w_multi", "w_skew_single"}

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


def compares_against(node, threshold):
    """Whether the node is a comparison with threshold (as a name or an
    attribute) as one of its operands."""
    return isinstance(node, ast.Compare) and any(
        getattr(c, "id", getattr(c, "attr", None)) == threshold
        for c in [node.left, *node.comparators])


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
                  if compares_against(node, "VANISH_TOL") and id(node) not in guards)


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


def threshold_readers(text, threshold):
    """Qualified name (outer.inner, Class.method; "" at module level) of each
    scope of the module source text that compares against threshold (as a
    name or an attribute) in its own body, not in a nested definition."""
    found = set()

    def visit(node, scope):
        if isinstance(node, DEFINITIONS):
            scope = scope + (node.name,)
        elif compares_against(node, threshold):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), ())
    return sorted(found)


def test_vanishing_tester_scan_finds_and_skips():
    text = ("small = abs(x) < VANISH_TOL\n"
            "def f(fd):\n"
            "    if abs(fd) < VANISH_TOL:\n"
            "        raise ZeroDivisionError\n"
            "    def inner(fn):\n"
            "        return 0 < abs(fn) < qcore.VANISH_TOL\n"
            "    return inner\n"
            "class Table:\n"
            "    def grow(self, fd):\n"
            "        return fd and VANISH_TOL > abs(fd)\n"
            "    def shrink(self, fd):\n"
            "        return abs(fd) < POLE_TOL\n"
            "def g(VANISH_TOL):\n"
            "    return VANISH_TOL * 2\n")
    assert threshold_readers(text, "VANISH_TOL") == ["", "Table.grow", "f", "f.inner"]
    assert threshold_readers(text, "POLE_TOL") == ["Table.shrink"]
    assert threshold_readers(text, "STRUCT_ZERO_TOL") == []


def test_only_the_listed_functions_compare_against_each_threshold():
    # A second reader of a threshold is a second place that decides by value
    # what items 13 and 6 decide by order or by condition.
    texts = {path.stem: path.read_text(encoding="utf-8") for path in SRC}
    found = {threshold: {f"{stem}.{name}" for stem, text in texts.items()
                         for name in threshold_readers(text, threshold)}
             for threshold in THRESHOLD_READERS}
    assert found == THRESHOLD_READERS


def module_imports(text, modules):
    """(line, module) of each import in the module source text of a module in
    modules or of one of their submodules."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in modules]
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
    assert module_imports(text, CONCURRENCY_MODULES) == [
        (1, "threading"), (2, "concurrent.futures"), (3, "multiprocessing.pool"),
        (8, "concurrent.futures")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_concurrency_imports(path):
    # A batch runs its samples one after another: under CPython's interpreter
    # lock a thread pool gained nothing, and a process pool comes back only
    # with a benchmark workload that shows its gain (ROADMAP item 5).
    assert module_imports(path.read_text(encoding="utf-8"), CONCURRENCY_MODULES) == []


def test_json_import_scan_finds_and_skips():
    text = ("import json\n"
            "from json import loads as decode\n"
            "import jsonschema, os\n"
            "from . import json\n"
            "from .json import x\n"
            "def f():\n"
            "    import json.decoder\n")
    assert module_imports(text, {"json"}) == [(1, "json"), (2, "json"), (7, "json.decoder")]


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "cli.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_cli_imports_json(path):
    # Text from outside the program is decoded in cli alone, so one module
    # decides what a config file, a --param value or a partition string may
    # hold, and how a document that does not decode is refused.
    assert module_imports(path.read_text(encoding="utf-8"), {"json"}) == []


def calls(text, names):
    """(line, name) of each call in the module source text of a function named
    in names, by its bare name or as an attribute (wfunc.w_multi)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


def test_call_scan_finds_and_skips():
    text = ("from .wfunc import w_multi, zw_multi\n"
            "w_multi(xs, lam, (), wp)\n"
            "zw_multi(xs, lam, wp)\n"
            "wfunc.w_skew_single(x, lam, mu, wp)\n"
            "entry = w_multi\n"
            "def f():\n"
            "    return [w_skew_single(x, (), (), wp), w_multi_count(1)]\n")
    assert calls(text, W_ENTRIES) == [(2, "w_multi"), (4, "w_skew_single"),
                                      (7, "w_skew_single")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_of_the_package_calls_the_checked_w_entries(path):
    # w_multi and w_skew_single check partitions and variables for callers
    # outside the package (bench/, the tests, the public API); the identities
    # hold arguments that run_case checked and call the kernel itself.
    assert calls(path.read_text(encoding="utf-8"), W_ENTRIES) == []


def kernel_internals(text):
    """(line, name) of each name that the module source text imports from
    qcore (as .qcore or qident.qcore) and that is UPPER_CASE but not in
    KERNEL_STATE, or is in KERNEL_LOOP_PARTS.  A kernel loop's thresholds,
    caps and messages are read only in qcore, beside the loop: a module that
    needs such a loop calls qcore for it (poch_inf_split, PairRatioTable)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) \
                and (node.level, node.module) in ((1, "qcore"), (0, "qident.qcore")):
            found += [(a.lineno, a.name) for a in node.names
                      if a.name in KERNEL_LOOP_PARTS
                      or a.name.isupper() and a.name not in KERNEL_STATE]
    return sorted(found)


def test_kernel_internal_scan_finds_and_skips():
    text = ("from .qcore import (\n"
            "    MAX_FACTORS,\n"
            "    THETA_MEMO,\n"
            "    PairRatioTable,\n"
            "    tail_radius,\n"
            "    theta,\n"
            ")\n"
            "from qident.qcore import VANISH_TOL as tol, poch_inf_tail\n"
            "from .series import TAIL_TOL\n"
            "from .wfunc import KEY_RADIX\n"
            "from ..qcore import PRODUCT_TOL\n"
            "def f():\n"
            "    from .qcore import PAIR_DENOMINATOR_VANISHES\n")
    assert kernel_internals(text) == [(2, "MAX_FACTORS"), (5, "tail_radius"),
                                      (8, "VANISH_TOL"), (8, "poch_inf_tail"),
                                      (13, "PAIR_DENOMINATOR_VANISHES")]


def test_identities_imports_no_kernel_internals():
    path = ROOT / "src" / "qident" / "identities.py"
    assert kernel_internals(path.read_text(encoding="utf-8")) == []


def test_every_error_class_is_exported():
    # A caller catches, by the package's own name, each error that a report
    # names or an exported function raises.
    import qident
    from qident import errors

    classes = {name for name, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, errors.QidentError)}
    assert classes - set(qident.__all__) == set()


def test_importing_the_package_loads_no_mpmath():
    # identities.mp_context and qcore's mpc kernels import mpmath when a
    # high-precision value first needs them; a double-mode process never pays
    # its import.
    code = ("import sys, qident, qident.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
