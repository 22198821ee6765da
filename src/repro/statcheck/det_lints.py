"""DET determinism lints for the discrete-event simulators.

The serving, cluster and decode simulators promise *seeded determinism*:
the same config (and therefore the same seed) must replay the exact same
event sequence.  The dynamic tests check this on pinned scenarios; these
AST lints prove the syntactic preconditions on **all** code paths of the
simulation packages:

* ``DET001`` — every RNG draw must be reachable from a seeded
  ``numpy.random.Generator``: no stdlib ``random`` module draws, no
  global ``numpy.random`` draws, no ``default_rng()`` without a seed,
  and no draw on an rng-named receiver that is neither a
  ``Generator``-annotated parameter nor assigned from a seeded
  ``default_rng(...)``.
* ``DET002`` — no iteration over ``set``/``frozenset`` values (loop,
  comprehension, or ``list``/``tuple``/``iter`` conversion): set order
  is salted per process, so any event ordering or sort key fed from it
  diverges between runs.  ``sorted(...)`` over a set is fine.
* ``DET003`` — no wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now`` and friends) inside simulation code; simulated time
  comes from the event heap only.
* ``DET004`` — no float equality (``==``/``!=``) in event comparators
  (``__lt__``/``__eq__``/... methods and ``key=`` lambdas): ties between
  float timestamps must break on a deterministic integer sequence
  number, never on float identity.

Modules are in scope when they live under one of :data:`SIM_PACKAGES`
or declare a module-level ``__simulation__ = True`` marker (the
annotation hook for simulators that live elsewhere).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional, Union

from .findings import Finding

#: Package sub-trees (repo-relative, posix) whose modules are linted.
SIM_PACKAGES = ("repro/serving", "repro/cluster", "repro/decode")

#: stdlib ``random`` module functions that draw from the global RNG.
STDLIB_DRAWS = frozenset({
    "random", "uniform", "normalvariate", "gauss", "expovariate",
    "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
})

#: ``numpy.random.Generator`` draw methods (also the legacy global
#: ``numpy.random.*`` functions of the same names).
GENERATOR_DRAWS = frozenset({
    "random", "uniform", "normal", "standard_normal", "exponential",
    "poisson", "integers", "choice", "shuffle", "permutation",
    "gamma", "beta", "binomial", "lognormal", "geometric", "multinomial",
    "standard_exponential", "randint", "rand", "randn",
})

#: ``(module, attribute)`` pairs that read the wall clock.
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
})

#: Receiver names treated as RNG handles for the seeded-dataflow check.
_RNG_NAME = re.compile(r"(^|_)rng$|^gen$|^generator$")

#: Attribute/variable names treated as float-valued in comparators.
_FLOATY_NAME = re.compile(
    r"(_us|_ms|_s|_secs|_seconds|_rate|_frac)$|latency|deadline"
)

#: Comparator method names DET004 inspects.
_COMPARATOR_METHODS = frozenset({
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__",
})

DET_CODES = ("DET001", "DET002", "DET003", "DET004")


def _attr_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_names(node: Optional[ast.expr]) -> str:
    """Flat text of an annotation expression (best effort)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


class _ModuleContext:
    """Import aliases and module-wide seeded-RNG assignments."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.datetime_aliases: set[str] = set()
        # direct imports: local name -> (module, attr)
        self.direct: dict[str, tuple[str, str]] = {}
        self.seeded_attrs: set[str] = set()
        self.simulation_marker = False
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_aliases.add(local)
                    elif alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    if module in ("random", "numpy.random", "time",
                                  "datetime"):
                        self.direct[local] = (
                            module.split(".")[-1], alias.name
                        )
            elif isinstance(node, ast.Assign):
                # __simulation__ marker and self.<rng> = default_rng(seed)
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "__simulation__"):
                        self.simulation_marker = True
                    if (isinstance(target, ast.Attribute)
                            and _RNG_NAME.search(target.attr)
                            and _is_seeded_default_rng(node.value)):
                        self.seeded_attrs.add(target.attr)

    def is_numpy_random_chain(
        self, chain: tuple[str, ...]
    ) -> Optional[str]:
        """Terminal attr when ``chain`` is ``np.random.<attr>``."""
        if (len(chain) == 3 and chain[0] in self.numpy_aliases
                and chain[1] == "random"):
            return chain[2]
        return None


def _is_seeded_default_rng(node: ast.expr) -> bool:
    """True for ``default_rng(<something>)`` / ``np.random.default_rng(x)``."""
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    if chain is None:
        return False
    if chain[-1] not in ("default_rng", "SeedSequence", "Generator"):
        return False
    return bool(node.args) or bool(node.keywords)


_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _seeded_names(func: _FuncNode, ctx: _ModuleContext) -> set[str]:
    """Names provably bound to a seeded Generator inside ``func``."""
    seeded: set[str] = set()
    for arg in (list(func.args.posonlyargs) + list(func.args.args)
                + list(func.args.kwonlyargs)):
        if "Generator" in _annotation_names(arg.annotation):
            seeded.add(arg.arg)
    # A Generator-typed annotated assignment is the same reviewed
    # assertion as a Generator-typed parameter: the developer declares
    # the source seeded (e.g. ``rng: np.random.Generator =
    # injector.rng`` aliasing a FaultInjector's seeded stream).
    for node in ast.walk(func):
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and "Generator" in _annotation_names(node.annotation)):
            seeded.add(node.target.id)
    # iterate to a fixed point so rng2 = rng.spawn(...)[0] chains resolve
    for _ in range(3):
        grew = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            derived = _is_seeded_default_rng(value)
            if not derived and isinstance(value, ast.Call):
                chain = _attr_chain(value.func)
                if (chain is not None and len(chain) >= 2
                        and chain[0] in seeded
                        and chain[-1] in ("spawn", "bit_generator")):
                    derived = True
            if not derived and isinstance(value, ast.Subscript):
                inner = value.value
                if isinstance(inner, ast.Call):
                    chain = _attr_chain(inner.func)
                    if (chain is not None and len(chain) >= 2
                            and chain[0] in seeded
                            and chain[-1] == "spawn"):
                        derived = True
            if derived:
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id not in seeded):
                        seeded.add(target.id)
                        grew = True
        if not grew:
            break
    return seeded


def _direct_children(node: ast.AST) -> tuple[list[ast.Call], list[_FuncNode]]:
    """Calls directly inside ``node`` and its nested function defs.

    "Directly" means without descending into nested function bodies —
    those form their own scopes (with inherited seeded names).
    """
    calls: list[ast.Call] = []
    nested: list[_FuncNode] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(child)
            continue
        if isinstance(child, ast.Call):
            calls.append(child)
        stack.extend(ast.iter_child_nodes(child))
    return calls, nested


def _rng_scopes(
    tree: ast.Module, ctx: _ModuleContext
) -> list[tuple[ast.AST, set[str], list[ast.Call]]]:
    """``(scope node, seeded names, direct calls)`` for every scope.

    Seeded names flow lexically: a closure inherits every name its
    enclosing functions proved seeded (``fault_rng`` assigned in the
    driver, drawn inside a nested dispatch helper).
    """
    scopes: list[tuple[ast.AST, set[str], list[ast.Call]]] = []
    module_seeded: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_seeded_default_rng(
                node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_seeded.add(target.id)

    def visit(node: ast.AST, inherited: set[str]) -> None:
        calls, nested = _direct_children(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            seeded = inherited | _seeded_names(node, ctx)
        else:
            seeded = set(inherited)
        scopes.append((node, seeded, calls))
        for func in nested:
            visit(func, seeded)

    visit(tree, module_seeded)
    return scopes


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _set_typed_names(tree: ast.AST) -> set[str]:
    """Names assigned from set expressions anywhere in ``tree``."""
    names: set[str] = set()
    for _ in range(2):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(
                    node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _floaty_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.Attribute) and _FLOATY_NAME.search(node.attr):
        return True
    if isinstance(node, ast.Name) and _FLOATY_NAME.search(node.id):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return False


def _comparator_nodes(tree: ast.Module) -> list[ast.AST]:
    """Function bodies DET004 inspects: rich comparisons and key= lambdas."""
    contexts: list[ast.AST] = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _COMPARATOR_METHODS):
            contexts.append(node)
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "key" and isinstance(kw.value, ast.Lambda):
                    contexts.append(kw.value)
    return contexts


def lint_determinism_source(
    source: str,
    rel_path: str,
    codes: tuple[str, ...] = DET_CODES,
) -> list[Finding]:
    """Run the DET rules over one simulation-module source string."""
    tree = ast.parse(source, filename=rel_path)
    ctx = _ModuleContext(tree)
    findings: list[Finding] = []
    wanted = set(codes)

    def report(code: str, line: int, message: str, **details: object) -> None:
        findings.append(Finding(
            code=code, check="det", file=rel_path, line=line,
            message=message, details=dict(details),
        ))

    # ---------------- DET001: unseeded RNG draws -----------------------
    if "DET001" in wanted:
        for scope_node, seeded, calls in _rng_scopes(tree, ctx):
            for call in calls:
                chain = _attr_chain(call.func)
                if chain is None:
                    continue
                head, tail = chain[0], chain[-1]
                # stdlib random module draws
                if (len(chain) == 2 and head in ctx.random_aliases
                        and tail in STDLIB_DRAWS):
                    report(
                        "DET001", call.lineno,
                        f"stdlib random.{tail}() draws from the process-"
                        "global RNG; thread a seeded numpy Generator "
                        "instead", draw=tail,
                    )
                    continue
                # from random import shuffle
                if len(chain) == 1 and ctx.direct.get(tail, ("", ""))[0] \
                        == "random" and tail in STDLIB_DRAWS:
                    report(
                        "DET001", call.lineno,
                        f"stdlib random draw {tail}() imported directly; "
                        "thread a seeded numpy Generator instead",
                        draw=tail,
                    )
                    continue
                # numpy.random global draws / unseeded default_rng
                np_attr = ctx.is_numpy_random_chain(chain)
                if np_attr is not None:
                    if np_attr == "default_rng" and not call.args \
                            and not call.keywords:
                        report(
                            "DET001", call.lineno,
                            "default_rng() without a seed draws OS "
                            "entropy; pass the scenario seed",
                        )
                    elif np_attr in GENERATOR_DRAWS:
                        report(
                            "DET001", call.lineno,
                            f"numpy.random.{np_attr}() uses the global "
                            "legacy RNG; draw from a seeded Generator",
                            draw=np_attr,
                        )
                    continue
                if tail == "default_rng" and len(chain) == 1 \
                        and not call.args and not call.keywords:
                    report(
                        "DET001", call.lineno,
                        "default_rng() without a seed draws OS entropy; "
                        "pass the scenario seed",
                    )
                    continue
                # draw on an rng-named receiver that is not provably seeded
                if (len(chain) == 2 and tail in GENERATOR_DRAWS
                        and _RNG_NAME.search(head)
                        and head not in seeded):
                    if isinstance(call.func, ast.Attribute) and isinstance(
                            call.func.value, ast.Attribute):
                        continue  # self.x.draw handled via seeded_attrs
                    report(
                        "DET001", call.lineno,
                        f"draw {head}.{tail}() on an RNG that is not "
                        "provably seeded in this scope (annotate the "
                        "parameter np.random.Generator or assign from "
                        "default_rng(seed))", receiver=head, draw=tail,
                    )
                # self.<rng>.draw(): receiver attr must be seeded somewhere
                if (isinstance(call.func, ast.Attribute)
                        and tail in GENERATOR_DRAWS and len(chain) >= 3
                        and _RNG_NAME.search(chain[-2])
                        and chain[-2] not in ctx.seeded_attrs):
                    report(
                        "DET001", call.lineno,
                        f"draw .{chain[-2]}.{tail}() on an attribute RNG "
                        "never assigned from a seeded default_rng(...)",
                        receiver=chain[-2], draw=tail,
                    )

    # ---------------- DET002: set-order dependence ---------------------
    if "DET002" in wanted:
        set_names = _set_typed_names(tree)

        def check_iter(expr: ast.expr, lineno: int, where: str) -> None:
            if _is_set_expr(expr, set_names):
                report(
                    "DET002", lineno,
                    f"iteration over a set in {where}: set order is "
                    "salted per process — sort it (sorted(...)) before "
                    "it can feed event ordering",
                )

        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                check_iter(node.iter, node.lineno, "a for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    check_iter(gen.iter, node.lineno, "a comprehension")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("list", "tuple", "iter")
                  and node.args):
                check_iter(
                    node.args[0], node.lineno,
                    f"a {node.func.id}() conversion",
                )

    # ---------------- DET003: wall-clock reads -------------------------
    if "DET003" in wanted:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            head, tail = chain[0], chain[-1]
            hit = None
            if len(chain) >= 2 and head in ctx.time_aliases \
                    and ("time", tail) in WALL_CLOCK_CALLS:
                hit = f"time.{tail}"
            elif len(chain) >= 2 and (head in ctx.datetime_aliases
                                      or head == "datetime") \
                    and ("datetime", tail) in WALL_CLOCK_CALLS:
                hit = f"datetime.{tail}"
            elif len(chain) == 1 and tail in ctx.direct:
                module, attr = ctx.direct[tail]
                if (module, attr) in WALL_CLOCK_CALLS:
                    hit = f"{module}.{attr}"
            if hit is not None:
                report(
                    "DET003", node.lineno,
                    f"wall-clock read {hit}() inside simulation code; "
                    "simulated time must come from the event heap",
                    call=hit,
                )

    # ---------------- DET004: float-equality tie-breaks ----------------
    if "DET004" in wanted:
        for context in _comparator_nodes(tree):
            for node in ast.walk(context):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops):
                    continue
                operands = [node.left] + list(node.comparators)
                if any(_floaty_operand(op) for op in operands):
                    report(
                        "DET004", node.lineno,
                        "float equality in an event comparator: break "
                        "timestamp ties on a deterministic integer "
                        "sequence number, not float identity",
                    )
    return findings


def is_simulation_module(rel_path: str, source: str) -> bool:
    """True when the DET rules apply to this module."""
    posix = rel_path.replace("\\", "/")
    if any(posix.startswith(pkg + "/") for pkg in SIM_PACKAGES):
        return True
    if "__simulation__" not in source:
        return False
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return False
    return _ModuleContext(tree).simulation_marker


def sim_module_files(root: Path) -> list[Path]:
    """Every module the DET pass covers under ``root`` (a src dir)."""
    package = root / "repro"
    files: list[Path] = []
    for path in sorted(package.rglob("*.py")):
        try:
            rel = path.relative_to(root).as_posix()
            source = path.read_text()
        except (OSError, ValueError):
            continue
        if is_simulation_module(rel, source):
            files.append(path)
    return files


def run_det_lints(
    root: Optional[Path] = None,
) -> tuple[int, list[Finding]]:
    """Run the DET rules over every simulation module.

    Args:
        root: Directory containing the ``repro`` package (default: the
            installed package's parent).

    Returns:
        ``(modules_checked, findings)``.
    """
    if root is None:
        root = Path(__file__).resolve().parents[2]
    root = Path(root)
    findings: list[Finding] = []
    files = sim_module_files(root)
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            findings.extend(lint_determinism_source(path.read_text(), rel))
        except SyntaxError:
            continue
    return len(files), findings
