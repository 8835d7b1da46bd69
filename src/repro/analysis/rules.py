"""Rule registration: importing this module populates the registry.

Each rule lives in its own module; this aggregator is what the runner
imports, so adding a rule is: write ``rules_<name>.py`` with a
``@register``-decorated :class:`~repro.analysis.core.Rule` subclass,
import it here, give it fixtures under ``tests/analysis/fixtures/``
and a section in ``docs/architecture.md``.
"""

from __future__ import annotations

from . import (  # noqa: F401 — imported for their registration side effect
    rules_alloc,
    rules_async,
    rules_await,
    rules_boundary,
    rules_dispatch,
    rules_docs,
    rules_exceptions,
    rules_lock,
    rules_telemetry,
)
