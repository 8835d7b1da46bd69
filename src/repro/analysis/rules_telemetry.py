"""RL004: every metric must be declared in the telemetry catalog.

The telemetry plane's merge algebra, sinks and dashboards all key on
metric *names and label sets*; a call site that invents a name (or
mislabels a series) forks the plane silently — the series exists, but
no view, bench assertion or scrape consumer knows to look for it.
This rule pins every literal-named ``.inc(...)`` / ``.set_gauge(...)``
/ ``.observe(...)`` call to :mod:`repro.telemetry.catalog`:

- the metric name must be declared;
- the instrument kind must match (``inc`` on a gauge is a bug);
- explicit label kwargs must be within the declared label set;
- meter bindings (``registry.meter(...)``) may only bind declared
  label names;
- and, cross-module, a catalog entry no call site references is dead
  and flagged — the catalog cannot drift in either direction.

Calls whose metric name is not a string literal (the ``Meter``
forwarding shims, histogram internals) are out of static reach and
skipped; the catalog's completeness is still guaranteed by every
*entry point* call site carrying a literal.

Tier-1 cannot see this bug class where no test reads the series: a
renamed flush or cross-stream counter fails a test that reads it from
the registry, but a renamed gauge or label that no test asserts on
leaves every test green while the series it feeds goes dark.
"""

from __future__ import annotations

import ast

from ..telemetry.catalog import CATALOG, KIND_BY_METHOD, LABEL_NAMES
from .core import Finding, Project, Rule, SourceModule, register

#: kwargs of the instrument methods that are not labels
_NON_LABEL_KWARGS = frozenset({"amount", "value", "buckets"})


#: the module defining the instruments: its forwarding shims
#: (``Meter.inc`` -> ``registry.inc``) take the name as a variable and
#: would only produce skipped, uncheckable sites
_EXEMPT_SUFFIX = "telemetry/core.py"


@register
class TelemetryCatalogRule(Rule):
    id = "RL004"
    name = "telemetry-catalog"
    summary = (
        "metric names/kinds/labels at every call site must match "
        "repro.telemetry.catalog (and no catalog entry may be dead)"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        used: set[str] = project.state.setdefault(self.id, set())
        if module.rel.replace("\\", "/").endswith(_EXEMPT_SUFFIX):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method in KIND_BY_METHOD:
                findings.extend(
                    self._check_instrument_call(node, method, module, used)
                )
            elif method == "meter" and node.keywords:
                findings.extend(self._check_binding(node, module))
        return findings

    def _check_instrument_call(
        self,
        node: ast.Call,
        method: str,
        module: SourceModule,
        used: set[str],
    ) -> list[Finding]:
        if not node.args:
            return []
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant) and isinstance(first.value, str)
        ):
            return []  # dynamic name: out of static reach
        name = first.value
        spec = CATALOG.get(name)
        if spec is None:
            return [
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"metric '{name}' is not declared in "
                        f"repro.telemetry.catalog"
                    ),
                    key=name,
                )
            ]
        used.add(name)
        findings = []
        expected = KIND_BY_METHOD[method]
        if spec.kind != expected:
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"'{name}' is declared as a {spec.kind} but "
                        f".{method}() records a {expected}"
                    ),
                    key=f"{name}:kind",
                )
            )
        for keyword in node.keywords:
            label = keyword.arg
            if label is None or label in _NON_LABEL_KWARGS:
                continue  # **labels splats are dynamic; skip
            if label not in spec.labels:
                declared = (
                    ", ".join(sorted(spec.labels)) or "no labels"
                )
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"label '{label}' is not declared for "
                            f"'{name}' (catalog allows: {declared})"
                        ),
                        key=f"{name}:{label}",
                    )
                )
        return findings

    def _check_binding(
        self, node: ast.Call, module: SourceModule
    ) -> list[Finding]:
        findings = []
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if keyword.arg not in LABEL_NAMES:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"meter binds label '{keyword.arg}', which "
                            f"no catalog entry declares"
                        ),
                        key=f"binding:{keyword.arg}",
                    )
                )
        return findings

    def finish(self, project: Project) -> list[Finding]:
        used = project.state.get(self.id, set())
        findings = []
        catalog_rel = "src/repro/telemetry/catalog.py"
        if not any(
            m.rel.replace("\\", "/").endswith("telemetry/catalog.py")
            for m in project.modules
        ):
            # fixture/partial runs without the catalog module in scope
            # cannot meaningfully report dead entries
            return []
        for name in sorted(set(CATALOG) - set(used)):
            findings.append(
                Finding(
                    rule=self.id,
                    path=catalog_rel,
                    line=1,
                    message=(
                        f"catalog entry '{name}' is referenced by no "
                        f"call site; delete it or use it"
                    ),
                    key=f"dead:{name}",
                )
            )
        return findings
