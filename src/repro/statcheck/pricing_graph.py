"""PRC — whole-program pricing- and telemetry-coverage analysis.

REP002 checks pairwise parity between :data:`UNIT_PRICING` and the
``CycleBreakdown`` dataclass.  This engine generalizes it to the whole
call graph: it scans *every* scheduler in the package — dense and
compressed (:mod:`repro.core.scheduler`), fused/decode
(:mod:`repro.decode`), plus the memsys/ABFT paths — and
proves three coverage properties end to end:

* **every cycle-producing site is priced** — each
  ``timeline.module_event(name, unit, ...)`` /
  ``TimelineEvent(..., unit=...)`` booking names a unit
  :data:`~repro.statcheck.ast_lints.UNIT_PRICING` maps to
  ``CycleBreakdown`` fields (``PRC001``);
* **every emitted metric is registered** — each
  ``registry.counter/gauge/histogram/series("repro_*", ...)`` literal
  appears in :data:`repro.telemetry.instrument.METRIC_FAMILIES`, the
  single canonical family registry (``PRC002``); registered families
  nothing emits are flagged stale (``PRC003``, warning); emission
  sites whose name cannot be resolved statically are flagged
  (``PRC004``, warning) unless the enclosing function carries
  recoverable ``repro_*`` literals (the gauge-table idiom);
* **every cycle field maps to a metric family** — each
  ``CycleBreakdown`` field must appear in
  :data:`repro.telemetry.instrument.CYCLE_FIELD_FAMILIES` and map to a
  registered family (``PRC005``), closing the loop from scheduler
  booking through cycle accounting to telemetry.

``extra_sources`` lets the seeded-bug self-proof inject a synthetic
module (an unpriced ``dma2`` booking, an unregistered
``repro_phantom_*`` counter) without touching the real tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .ast_lints import AGGREGATE_FIELDS, UNIT_PRICING
from .findings import Finding

PRC_CODES = ("PRC001", "PRC002", "PRC003", "PRC004", "PRC005")

#: Methods of :class:`repro.telemetry.registry.MetricsRegistry` that
#: create/emit an instrument; the first argument is the family name.
EMISSION_METHODS = ("counter", "gauge", "histogram", "series")

_METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")
_RECEIVER_RE = re.compile(r"registry", re.IGNORECASE)


@dataclass(frozen=True)
class BookingSite:
    """One cycle-producing timeline booking found in the source."""

    file: str
    line: int
    unit: Optional[str]     # None when not statically resolvable
    name: Optional[str]


@dataclass(frozen=True)
class EmissionSite:
    """One registry instrument creation/emission call."""

    file: str
    line: int
    metric: Optional[str]   # None when not statically resolvable
    method: str
    recovered: tuple[str, ...] = ()   # literals salvaged from the scope


@dataclass
class PricingInventory:
    """Everything the PRC scanner saw, before any judgement."""

    bookings: list[BookingSite] = field(default_factory=list)
    emissions: list[EmissionSite] = field(default_factory=list)
    files_scanned: int = 0

    def emitted_families(self) -> set[str]:
        names: set[str] = set()
        for site in self.emissions:
            if site.metric is not None:
                names.add(site.metric)
            names.update(site.recovered)
        return names


def _terminal_name(node: ast.expr) -> str:
    """The dotted identifier chain of a receiver (else '').

    ``registry`` -> ``"registry"``; ``self._registry`` ->
    ``"self._registry"``; anything non-name-shaped -> ``""``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _str_const(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_arg(call: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _scope_literals(scope: ast.AST) -> tuple[str, ...]:
    """All ``repro_*`` string constants in a function body.

    The gauge-table idiom (``for name, help, value in gauges: ...``)
    emits through a variable; the family names are still right there as
    literals in the same scope, so coverage recovers them instead of
    flagging a false PRC004.
    """
    names = []
    for node in ast.walk(scope):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _METRIC_NAME_RE.match(node.value)):
            names.append(node.value)
    return tuple(sorted(set(names)))


class _PricingVisitor(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.bookings: list[BookingSite] = []
        self.emissions: list[EmissionSite] = []
        self._scopes: list[ast.AST] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(node)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scopes.append(node)
        self.generic_visit(node)
        self._scopes.pop()

    def _forwards_param(self, unit_arg: ast.expr) -> bool:
        """True when the unit is the enclosing function's own ``unit``
        parameter — a forwarding wrapper like ``Timeline.module_event``;
        the wrapper's *callers* are the booking sites to judge."""
        if not (isinstance(unit_arg, ast.Name) and self._scopes):
            return False
        scope = self._scopes[-1]
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        params = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
        return any(arg.arg == unit_arg.id for arg in params)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "module_event":
                self.bookings.append(BookingSite(
                    file=self.rel_path, line=node.lineno,
                    unit=_str_const(_call_arg(node, 1, "unit")),
                    name=_str_const(_call_arg(node, 0, "name")),
                ))
            elif (func.attr in EMISSION_METHODS
                    and _RECEIVER_RE.search(_terminal_name(func.value))):
                metric = _str_const(_call_arg(node, 0, "name"))
                recovered: tuple[str, ...] = ()
                if metric is None and self._scopes:
                    recovered = _scope_literals(self._scopes[-1])
                self.emissions.append(EmissionSite(
                    file=self.rel_path, line=node.lineno,
                    metric=metric, method=func.attr, recovered=recovered,
                ))
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name == "TimelineEvent":
            unit_arg = _call_arg(node, 1, "unit")
            if unit_arg is not None and not self._forwards_param(unit_arg):
                self.bookings.append(BookingSite(
                    file=self.rel_path, line=node.lineno,
                    unit=_str_const(unit_arg),
                    name=_str_const(_call_arg(node, 0, "name")),
                ))
        self.generic_visit(node)


def scan_pricing(
    root: Optional[Path] = None,
    extra_sources: Optional[dict[str, str]] = None,
) -> PricingInventory:
    """Scan the package (plus ``extra_sources``) for pricing sites.

    Args:
        root: Directory containing the ``repro`` package (default:
            the installed package's parent).
        extra_sources: ``{rel_path: source}`` synthetic modules scanned
            after the real tree (seeded-bug hook).
    """
    if root is None:
        root = Path(__file__).resolve().parents[2]
    package = Path(root) / "repro"
    inventory = PricingInventory()
    sources: list[tuple[str, str]] = []
    for path in sorted(package.rglob("*.py")) if package.is_dir() else []:
        if "statcheck" in path.parts:
            continue   # the analyzers' own fixtures are not the design
        try:
            sources.append(
                (path.relative_to(root).as_posix(), path.read_text())
            )
        except OSError:
            continue
    sources.extend((extra_sources or {}).items())
    for rel_path, source in sources:
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError:
            continue
        visitor = _PricingVisitor(rel_path)
        visitor.visit(tree)
        inventory.bookings.extend(visitor.bookings)
        inventory.emissions.extend(visitor.emissions)
        inventory.files_scanned += 1
    return inventory


def _registered_families() -> tuple[tuple[str, ...], dict[str, str]]:
    from ..telemetry.instrument import CYCLE_FIELD_FAMILIES, METRIC_FAMILIES

    return tuple(METRIC_FAMILIES), dict(CYCLE_FIELD_FAMILIES)


def _breakdown_field_names(root: Path) -> set[str]:
    from .ast_lints import _breakdown_fields

    path = root / "repro" / "core" / "cycle_model.py"
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError):
        return set()
    return _breakdown_fields(tree)


def check_pricing(
    root: Optional[Path] = None,
    extra_sources: Optional[dict[str, str]] = None,
    codes: Iterable[str] = PRC_CODES,
) -> tuple[int, list[Finding]]:
    """Run the coverage checks; returns ``(checks_run, findings)``."""
    if root is None:
        root = Path(__file__).resolve().parents[2]
    root = Path(root)
    codes = set(codes)
    inventory = scan_pricing(root, extra_sources=extra_sources)
    families, field_families = _registered_families()
    registered = set(families)
    findings: list[Finding] = []
    checks = 0

    # PRC001 — every booking site names a priced unit.  One check per
    # distinct (module, unit, event): a repeated booking proves nothing new.
    checks += len({(s.file, s.unit, s.name) for s in inventory.bookings})
    for site in inventory.bookings:
        if site.unit is None:
            if "PRC004" in codes:
                findings.append(Finding(
                    code="PRC004",
                    check="pricing",
                    severity="warning",
                    file=site.file,
                    line=site.line,
                    message=(
                        "timeline booking's unit is not a string literal; "
                        "pricing coverage cannot be proven statically"
                    ),
                ))
            continue
        if "PRC001" in codes and site.unit not in UNIT_PRICING:
            findings.append(Finding(
                code="PRC001",
                check="pricing",
                file=site.file,
                line=site.line,
                message=(
                    f"unpriced cycle site: unit {site.unit!r} "
                    f"(event {site.name!r}) has no UNIT_PRICING mapping "
                    "to a CycleBreakdown field"
                ),
                details={"unit": site.unit, "event": site.name},
            ))

    # PRC002/PRC004 — every emitted metric is a registered family.  One
    # check per distinct (module, family), however many sites emit it.
    emitted_in: set[tuple[str, Optional[str]]] = set()
    for site in inventory.emissions:
        if site.metric is None:
            if not site.recovered and "PRC004" in codes:
                findings.append(Finding(
                    code="PRC004",
                    check="pricing",
                    severity="warning",
                    file=site.file,
                    line=site.line,
                    message=(
                        f"registry.{site.method} name is not statically "
                        "resolvable and no repro_* literals exist in the "
                        "enclosing scope"
                    ),
                ))
            candidates = site.recovered
        else:
            candidates = (site.metric,)
        emitted_in.update((site.file, name) for name in candidates or (None,))
        if "PRC002" not in codes:
            continue
        for name in candidates:
            if name not in registered:
                findings.append(Finding(
                    code="PRC002",
                    check="pricing",
                    file=site.file,
                    line=site.line,
                    message=(
                        f"unregistered metric family {name!r}: add it to "
                        "telemetry.instrument.METRIC_FAMILIES (the "
                        "canonical schema) or rename the emission"
                    ),
                    details={"metric": name},
                ))

    checks += len(emitted_in)

    # PRC003 — registered families nothing emits are stale.
    emitted = inventory.emitted_families()
    if "PRC003" in codes:
        for name in families:
            checks += 1
            if name not in emitted:
                findings.append(Finding(
                    code="PRC003",
                    check="pricing",
                    severity="warning",
                    message=(
                        f"stale metric family {name!r}: registered in "
                        "METRIC_FAMILIES but no emission site references it"
                    ),
                    details={"metric": name},
                ))

    # PRC005 — every CycleBreakdown field maps to a registered family.
    if "PRC005" in codes:
        for field_name in sorted(_breakdown_field_names(root)):
            checks += 1
            family = field_families.get(field_name)
            if family is None:
                findings.append(Finding(
                    code="PRC005",
                    check="pricing",
                    message=(
                        f"CycleBreakdown field {field_name!r} maps to no "
                        "metric family (add it to "
                        "telemetry.instrument.CYCLE_FIELD_FAMILIES)"
                    ),
                    details={"field": field_name},
                ))
            elif family not in registered:
                findings.append(Finding(
                    code="PRC005",
                    check="pricing",
                    message=(
                        f"CycleBreakdown field {field_name!r} maps to "
                        f"{family!r}, which METRIC_FAMILIES does not "
                        "register"
                    ),
                    details={"field": field_name, "metric": family},
                ))
        # And the reverse direction: every priced unit's fields exist.
        known_fields = _breakdown_field_names(root)
        for unit, pricing in UNIT_PRICING.items():
            checks += 1
            missing = [f for f in pricing if f not in known_fields]
            if missing:
                findings.append(Finding(
                    code="PRC005",
                    check="pricing",
                    message=(
                        f"UNIT_PRICING[{unit!r}] names CycleBreakdown "
                        f"fields that do not exist: {missing}"
                    ),
                    details={"unit": unit, "missing": missing},
                ))
    return checks, findings
