"""Fixture-driven rule tests: one bad/good snippet pair per rule.

The fixtures under ``fixtures/`` are parsed by the linter, never
imported — they deliberately contain the violations the rules exist
to catch.
"""

from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.rules_docs import cli_surface, readme_drift

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, rule_id: str):
    """Findings of one rule over one fixture file (suppressions and
    framework diagnostics still apply)."""
    findings, _, suppressed = run_lint(
        FIXTURES.parent, [str(FIXTURES / name)], {rule_id}
    )
    return findings, suppressed


def lint_source(tmp_path: Path, source: str, rule_id: str):
    """Findings of one rule over one inline module."""
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    findings, _, _ = run_lint(tmp_path, [str(path)], {rule_id})
    return findings


class TestRL001AsyncBlocking:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl001_bad.py", "RL001")
        assert [f.line for f in findings] == [8, 12, 17, 18]
        assert {f.rule for f in findings} == {"RL001"}
        keys = {f.key for f in findings}
        assert "time.sleep" in keys
        assert "open" in keys
        assert "batched_fista" in keys
        assert "solver.solve" in keys

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl001_good.py", "RL001")
        assert findings == []

    def test_message_names_function_and_remedy(self):
        findings, _ = lint_fixture("rl001_bad.py", "RL001")
        sleep = next(f for f in findings if f.key == "time.sleep")
        assert "sleepy_coroutine" in sleep.message
        assert "run_in_executor" in sleep.message


class TestRL002LockDiscipline:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl002_bad.py", "RL002")
        # a rebinding and an in-place container call, both unguarded
        assert [f.line for f in findings] == [17, 20]
        assert {f.key for f in findings} == {"LeakyRegistry._counters"}
        assert all("_counters" in f.message for f in findings)

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl002_good.py", "RL002")
        assert findings == []

    def test_nested_def_under_lock_is_unguarded(self, tmp_path):
        # a closure defined inside `with self._lock:` may be stored
        # and called later without the lock: its writes must count as
        # unguarded, not inherit the definition site's held state
        findings = lint_source(
            tmp_path,
            "import threading\n"
            "\n"
            "\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = {}\n"
            "\n"
            "    def set(self, key, value):\n"
            "        with self._lock:\n"
            "            self._state[key] = value\n"
            "\n"
            "            def deferred():\n"
            "                self._state[key] = None\n"
            "\n"
            "            self._callback = deferred\n",
            "RL002",
        )
        (finding,) = findings
        assert finding.line == 14
        assert finding.key == "Registry._state"

    def test_match_case_bodies_are_walked(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import threading\n"
            "\n"
            "\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._mode = 0\n"
            "\n"
            "    def set_mode(self, mode):\n"
            "        with self._lock:\n"
            "            self._mode = mode\n"
            "\n"
            "    def on_message(self, message):\n"
            "        match message:\n"
            "            case 'reset':\n"
            "                self._mode = 0\n",
            "RL002",
        )
        (finding,) = findings
        assert finding.line == 16
        assert finding.key == "Registry._mode"


class TestRL003HotLoopAlloc:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl003_bad.py", "RL003")
        assert [f.line for f in findings] == [9, 10, 19]
        keys = [f.key for f in findings]
        assert keys == ["np.zeros", "out.copy", "np.concatenate"]

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl003_good.py", "RL003")
        assert findings == []

    def test_while_header_allocation_flagged(self, tmp_path):
        # the while condition re-runs every iteration: an allocation
        # in the header is a per-iteration cost, unlike a for iterable
        findings = lint_source(
            tmp_path,
            "import numpy as np\n"
            "\n"
            "\n"
            "def drain(residual, threshold):\n"
            "    # repro-lint: hot\n"
            "    while np.any(residual.copy() > threshold):\n"
            "        residual *= 0.5\n",
            "RL003",
        )
        (finding,) = findings
        assert finding.line == 6
        assert finding.key == "residual.copy"


class TestRL004TelemetryCatalog:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl004_bad.py", "RL004")
        keys = {f.key for f in findings}
        assert keys == {
            "totally_invented_metric",
            "ingest_windows_decoded:kind",
            "ingest_flushes:stream",
            "binding:shoe_size",
        }

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl004_good.py", "RL004")
        assert findings == []

    def test_dead_entry_check_skipped_without_catalog_in_scope(self):
        # fixture runs cover one file: the cross-module dead-entry
        # check must not fire (the catalog module is out of scope)
        findings, _ = lint_fixture("rl004_good.py", "RL004")
        assert all(not f.key.startswith("dead:") for f in findings)


class TestRL005ExceptionHygiene:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl005_bad.py", "RL005")
        assert [f.line for f in findings] == [8, 12, 16, 23, 27]
        broad = [f for f in findings if f.key == "broad-except"]
        assert len(broad) == 3
        swallows = sorted(
            f.key for f in findings if f.key.startswith("swallow:")
        )
        assert swallows == [
            "swallow:ProtocolError",
            "swallow:TelemetryError",
        ]

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl005_good.py", "RL005")
        assert findings == []


class TestSuppressionFixture:
    def test_justified_suppressions_absorb_findings(self):
        findings, suppressed = lint_fixture("suppressions.py", "RL001")
        # justified line + block (2 sites) + wrong-line leak + the
        # unjustified one is suppressed for RL001 but flagged by RL000
        lines = [f.line for f in findings if f.rule == "RL001"]
        assert lines == [17, 21]  # outside block span; wrong rule named
        assert suppressed == 5

    def test_unjustified_and_unknown_rule_surface_rl000(self):
        findings, _ = lint_fixture("suppressions.py", "RL001")
        rl000 = {
            f.key for f in findings if f.rule == "RL000"
        }
        assert "unjustified-suppression" in rl000
        assert "unknown-rule:RL999" in rl000


class TestRL006DocsDrift:
    def test_missing_subcommand_reported(self):
        gaps = readme_drift(
            "docs mention `repro-ecg serve` only",
            ["serve", "lint"],
            [],
        )
        assert gaps == [("subcommand", "lint")]

    def test_missing_flag_reported(self):
        gaps = readme_drift("flags: --loss --reorder", [], ["--loss", "--adaptive"])
        assert gaps == [("flag", "--adaptive")]

    def test_clean_readme(self):
        text = "`repro-ecg serve` with --loss"
        assert readme_drift(text, ["serve"], ["--loss"]) == []

    def test_rule_skipped_outside_repo_root(self, tmp_path):
        # lint rooted at a tree with no README/cli: RL006 must not fire
        target = tmp_path / "src" / "pkg"
        target.mkdir(parents=True)
        (target / "mod.py").write_text("x = 1\n")
        findings, _, _ = run_lint(tmp_path, None, {"RL006"})
        assert findings == []

    def test_cli_surface_parsed_from_file(self, tmp_path):
        cli = tmp_path / "cli.py"
        cli.write_text(
            "CHANNEL_FLAGS = ('--loss', '--reorder')\n"
            "TELEMETRY_FLAGS = ('--adaptive',)\n"
            "\n"
            "\n"
            "def _build_parser():\n"
            "    sub = parser.add_subparsers()\n"
            "    sub.add_parser('serve', help='run the gateway')\n"
            "    ghost = sub.add_parser(\n"
            "        'ghost', help='multi-line call form'\n"
            "    )\n",
            encoding="utf-8",
        )
        subcommands, flags = cli_surface(cli)
        assert subcommands == ["serve", "ghost"]
        assert flags == ["--loss", "--reorder", "--adaptive"]

    def test_surface_comes_from_lint_root_not_interpreter(self, tmp_path):
        # a checkout linted via --root is checked against *its own*
        # cli.py: 'ghost' exists only in this tree, never in the
        # installed repro.cli, and must still be reported
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "cli.py").write_text(
            "CHANNEL_FLAGS = ('--spooky',)\n"
            "\n"
            "\n"
            "def _build_parser():\n"
            "    sub.add_parser('ghost', help='only in this tree')\n",
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text("no CLI reference here\n")
        findings, _, _ = run_lint(tmp_path, None, {"RL006"})
        assert {f.key for f in findings} == {
            "subcommand:ghost",
            "flag:--spooky",
        }


class TestRL008AwaitAtomicity:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl008_bad.py", "RL008")
        assert [f.line for f in findings] == [13, 18, 22]
        keys = {f.key for f in findings}
        assert "stale-guard:dispatch:self._pool:used" in keys
        assert "stale-guard:shutdown:self._queue:written" in keys
        assert "lock-across-await:locked:_lock" in keys

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl008_good.py", "RL008")
        assert findings == []

    def test_augassign_is_self_validating(self, tmp_path):
        # read-modify-write reads the value at the write site
        findings = lint_source(
            tmp_path,
            "class C:\n"
            "    async def count(self, frames):\n"
            "        if self.acked:\n"
            "            await drain()\n"
            "        self.acked += 1\n",
            "RL008",
        )
        assert findings == []

    def test_message_explains_the_race(self):
        findings, _ = lint_fixture("rl008_bad.py", "RL008")
        use = next(f for f in findings if f.line == 13)
        assert "re-validation" in use.message
        assert "dispatch" in use.message
        lock = next(f for f in findings if f.line == 22)
        assert "asyncio.Lock" in lock.message


class TestRL009ProcessBoundary:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl009_bad.py", "RL009")
        assert [(f.line, f.key) for f in findings] == [
            (11, "dispatch:ship_matrix:pool.submit"),
            (17, "dispatch:ship_operator:pool.apply"),
            (22, "closure:ship_lambda"),
            (22, "dispatch:ship_lambda:executor.submit"),
            (30, "closure:ship_nested:worker"),
            (30, "dispatch:ship_nested:pool.map"),
            (35, "dispatch:ship_via_executor:loop.run_in_executor"),
        ]

    def test_good_fixture_clean(self):
        # its two process-pool sites carry justified disables; the
        # thread and default executors never pickle
        findings, suppressed = lint_fixture("rl009_good.py", "RL009")
        assert findings == []
        assert suppressed == 2

    def test_every_pool_site_is_a_finding_whatever_it_ships(self, tmp_path):
        # no payload inference: a seed-only task needs the same
        # justification as an array
        findings = lint_source(
            tmp_path,
            "import multiprocessing\n"
            "def shard(seeds):\n"
            "    pool = multiprocessing.Pool()\n"
            "    return pool.map(rebuild, seeds)\n",
            "RL009",
        )
        assert [f.key for f in findings] == ["dispatch:shard:pool.map"]

    def test_disable_never_clears_a_closure(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def ship(tasks):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return pool.submit(lambda t: t, tasks)  "
            "# repro-lint: disable=RL009 — tasks are seeds\n",
            "RL009",
        )
        assert [f.key for f in findings] == ["closure:ship"]

    def test_message_asks_what_crosses(self):
        findings, _ = lint_fixture("rl009_bad.py", "RL009")
        dispatch = next(f for f in findings if f.line == 11)
        assert "what crosses" in dispatch.message
        assert "config seed" in dispatch.message
        closure = next(f for f in findings if f.key == "closure:ship_lambda")
        assert "do not pickle" in closure.message


class TestRL010FrameDispatch:
    def test_bad_fixture_positives(self):
        findings, _ = lint_fixture("rl010_bad.py", "RL010")
        assert [f.line for f in findings] == [12, 19]
        for finding in findings:
            assert "BYE" in finding.message
            assert finding.key.endswith(":BYE")

    def test_good_fixture_clean(self):
        findings, _ = lint_fixture("rl010_good.py", "RL010")
        assert findings == []

    def test_silent_without_enum_definition(self, tmp_path):
        # no FrameKind class in the linted tree: stay silent rather
        # than guess the member set
        findings = lint_source(
            tmp_path,
            "def dispatch(kind):\n"
            "    if kind is FrameKind.HELLO:\n"
            "        return 1\n"
            "    elif kind is FrameKind.PACKET:\n"
            "        return 2\n",
            "RL010",
        )
        assert findings == []

    def test_members_resolve_across_modules(self, tmp_path):
        (tmp_path / "proto.py").write_text(
            "import enum\n"
            "class FrameKind(enum.Enum):\n"
            "    A = 1\n"
            "    B = 2\n"
            "    C = 3\n",
            encoding="utf-8",
        )
        (tmp_path / "client.py").write_text(
            "def dispatch(kind):\n"
            "    if kind is FrameKind.A:\n"
            "        return 1\n"
            "    elif kind is FrameKind.B:\n"
            "        return 2\n",
            encoding="utf-8",
        )
        findings, _, _ = run_lint(
            tmp_path,
            [str(tmp_path / "proto.py"), str(tmp_path / "client.py")],
            {"RL010"},
        )
        (finding,) = findings
        assert finding.path.endswith("client.py")
        assert "C" in finding.message
