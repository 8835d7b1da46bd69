"""Seeded-mutation tests: re-introduce one representative bug per
rule into the *real* source file and assert the rule catches it.

Fixture tests prove the rules work on synthetic snippets; these prove
they guard the actual sites that motivated them — if a refactor moves
or rewrites a protected site, the ``assert old in text`` trips and the
test must be re-pointed rather than silently passing."""

import shutil
from pathlib import Path

from repro.analysis import run_lint

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def mutate_and_lint(
    tmp_path: Path,
    source: Path,
    old: str,
    new: str,
    rule: str,
    extra: tuple[Path, ...] = (),
):
    """Apply one textual mutation and lint the result with one rule."""
    text = source.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor vanished from {source.name}"
    mutated = tmp_path / source.name
    mutated.write_text(text.replace(old, new, 1), encoding="utf-8")
    paths = [str(path) for path in extra] + [str(mutated)]
    findings, _, _ = run_lint(tmp_path, paths, {rule})
    return [f for f in findings if f.rule == rule]


def lint_pristine(tmp_path: Path, source: Path, rule: str, extra=()):
    return mutate_and_lint(tmp_path, source, "", "", rule, extra)


class TestRL001SeededLoopSolve:
    SOURCE = SRC / "ingest" / "gateway.py"
    SUBMIT = (
        "        future = asyncio.wrap_future(\n"
        "            self._executor.submit(solve_measurement_block, task)\n"
        "        )\n"
    )

    def test_pristine_gateway_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL001") == []

    def test_solve_on_the_event_loop_caught(self, tmp_path):
        # _dispatch solving inline instead of through the executor: every
        # connected stream stalls for the length of a solve
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.SUBMIT,
            "        future = loop.create_future()\n"
            "        future.set_result(solve_measurement_block(task))\n",
            "RL001",
        )
        assert [f.key for f in findings] == ["solve_measurement_block"]
        assert "inside async def _dispatch" in findings[0].message


class TestRL002SeededUnguardedWrite:
    SOURCE = SRC / "telemetry" / "core.py"
    GUARDED = (
        "        with self._lock:\n"
        "            self._counters[key] = "
        "self._counters.get(key, 0.0) + amount\n"
    )

    def test_pristine_registry_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL002") == []

    def test_counter_write_outside_the_lock_caught(self, tmp_path):
        # MetricsRegistry.inc racing absorb() from a solve thread: a
        # lost counter update, never an exception
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.GUARDED,
            "        self._counters[key] = "
            "self._counters.get(key, 0.0) + amount\n",
            "RL002",
        )
        assert [f.key for f in findings] == ["MetricsRegistry._counters"]


class TestRL002SeededWorkspaceReturn:
    SOURCE = SRC / "solvers" / "batched.py"
    GUARDED = (
        "        finally:\n"
        "            with self._lock:\n"
        "                self._idle.append(workspace)\n"
    )

    def test_pristine_solver_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL002") == []

    def test_return_to_stack_outside_the_lock_caught(self, tmp_path):
        # a solve thread handing its workspace back while another takes
        # one: a list append racing a pop can lose the workspace or
        # hand one out twice, and two solves then share scratch
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.GUARDED,
            "        finally:\n"
            "            self._idle.append(workspace)\n",
            "RL002",
        )
        assert [f.key for f in findings] == ["BatchedFista._idle"]


class TestRL002SeededResolventCacheHit:
    SOURCE = SRC / "solvers" / "sparse_apply.py"
    LOCKED_HIT = (
        "        with self._lock:\n"
        "            pair = self._admm_pairs.get(rho)\n"
        "            if pair is not None:\n"
        "                self._admm_pairs.move_to_end(rho)\n"
        "                return pair\n"
    )

    def test_pristine_structured_operator_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL002") == []

    def test_cache_hit_outside_the_lock_caught(self, tmp_path):
        # a lock-free hit path: one solve thread's move_to_end racing
        # another's eviction (popitem) of the same rho raises KeyError
        # mid-solve, and two first solves both build the pair
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.LOCKED_HIT,
            "        pair = self._admm_pairs.get(rho)\n"
            "        if pair is not None:\n"
            "            self._admm_pairs.move_to_end(rho)\n"
            "            return pair\n"
            "        with self._lock:\n",
            "RL002",
        )
        assert [f.key for f in findings] == ["StructuredOperator._admm_pairs"]


class TestRL004SeededCatalogDrift:
    SOURCE = SRC / "ingest" / "gateway.py"
    FLUSHES = '        self.telemetry.inc("ingest_flushes", reason=reason)\n'
    CROSS = '            self.telemetry.inc("ingest_cross_stream_batches")\n'

    def test_pristine_gateway_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL004") == []

    def test_renamed_metric_caught(self, tmp_path):
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.FLUSHES,
            self.FLUSHES.replace("ingest_flushes", "ingest_flush"),
            "RL004",
        )
        assert [f.key for f in findings] == ["ingest_flush"]

    def test_renamed_label_caught(self, tmp_path):
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.FLUSHES,
            self.FLUSHES.replace("reason=reason", "trigger=reason"),
            "RL004",
        )
        assert [f.key for f in findings] == ["ingest_flushes:trigger"]

    def test_entry_without_call_site_caught(self, tmp_path):
        # the cross-module direction needs the whole tree in scope: with
        # its one call site gone, the catalog entry is dead
        shutil.copytree(
            SRC,
            tmp_path / "src" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        gateway = tmp_path / "src" / "repro" / "ingest" / "gateway.py"
        text = gateway.read_text(encoding="utf-8")
        assert self.CROSS in text, "mutation anchor vanished from gateway.py"
        gateway.write_text(
            text.replace(self.CROSS, "            pass\n", 1),
            encoding="utf-8",
        )
        findings, _, _ = run_lint(tmp_path, None, {"RL004"})
        assert [f.key for f in findings if f.rule == "RL004"] == [
            "dead:ingest_cross_stream_batches"
        ]


class TestRL005SeededSwallow:
    SOURCE = SRC / "ingest" / "federation.py"
    REFUSAL = (
        "        except ProtocolError as exc:\n"
        "            # refused before routing: no gateway will ever count it\n"
        "            self.telemetry.inc(\"ingest_sessions_errored\")\n"
        "            self._send_error(writer, str(exc))\n"
    )

    def test_pristine_federation_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL005") == []

    def test_noop_protocol_error_handler_caught(self, tmp_path):
        # a refused HELLO neither counted nor answered: the node waits
        # for a WELCOME that never comes
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.REFUSAL,
            "        except ProtocolError:\n            pass\n",
            "RL005",
        )
        assert [f.key for f in findings] == ["swallow:ProtocolError"]

    def test_unjustified_broad_handler_caught(self, tmp_path):
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            "        except LookupError:\n",
            "        except Exception:\n",
            "RL005",
        )
        assert [f.key for f in findings] == ["broad-except"]


class TestRL006SeededReadmeDrift:
    ROW = (
        "| `repro-ecg budget` | node-side timing/memory/energy table "
        "| — |\n"
    )

    def _lint_readme(self, tmp_path: Path, readme: str) -> list:
        cli = tmp_path / "src" / "repro" / "cli.py"
        cli.parent.mkdir(parents=True)
        shutil.copy(SRC / "cli.py", cli)
        (tmp_path / "README.md").write_text(readme, encoding="utf-8")
        findings, _, _ = run_lint(tmp_path, [str(cli)], {"RL006"})
        return [f for f in findings if f.rule == "RL006"]

    def test_pristine_readme_is_clean(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert self._lint_readme(tmp_path, readme) == []

    def test_dropped_subcommand_row_caught(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert self.ROW in readme, "mutation anchor vanished from README.md"
        findings = self._lint_readme(tmp_path, readme.replace(self.ROW, "", 1))
        assert [f.key for f in findings] == ["subcommand:budget"]


class TestRL003SeededAllocation:
    SOURCE = SRC / "solvers" / "batched.py"
    STEP = "            buf_v, buf_u = zs[step + 1], us[step + 1]\n"
    Z_PLUS = "            buf_v -= buf_u  # z+\n"

    def test_pristine_step_loop_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL003") == []

    def test_per_iteration_buffer_caught(self, tmp_path):
        # batched_admm's step loop before the iterate history: a fresh
        # output buffer per iteration instead of the next history slot
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.STEP,
            "            buf_v, buf_u = np.empty_like(work_z), us[step + 1]\n",
            "RL003",
        )
        assert [f.key for f in findings] == ["np.empty_like"]

    def test_iterate_copy_caught(self, tmp_path):
        # keeping the new iterate by copying it out of its slot
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.Z_PLUS,
            self.Z_PLUS + "            work_z = buf_v.copy()\n",
            "RL003",
        )
        assert [f.key for f in findings] == ["buf_v.copy"]


class TestRL008SeededStaleGuard:
    SOURCE = SRC / "ingest" / "gateway.py"
    GUARD = (
        "        if self._closing or self._executor is None:\n"
        "            # close() may have shut the executor down while "
        "this flush\n"
        "            # waited for its slot; submitting then raises "
        "outside the\n"
        "            # route path and silently kills the drain loop\n"
        "            slot.release()\n"
        "            batch = list(group.pending)\n"
        "            group.pending.clear()\n"
        "            self._fail_batch(batch, ConfigurationError("
        "\"gateway is closed\"))\n"
        "            return\n"
    )

    def test_pristine_gateway_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL008") == []

    def test_removing_revalidation_caught(self, tmp_path):
        # PR 9's gateway fix: without the post-acquire re-check, a
        # close() during the slot wait submits to a shut-down executor
        findings = mutate_and_lint(
            tmp_path, self.SOURCE, self.GUARD, "", "RL008"
        )
        assert [f.key for f in findings] == [
            "stale-guard:_dispatch:self._executor:used"
        ]


class TestRL009SeededArrayShip:
    SOURCE = SRC / "fleet" / "executor.py"
    DISABLE = (
        "  # repro-lint: disable=RL009 — the one designed hand-off: "
        "stages 1-2 ran in the caller, so a task ships scalar config "
        "fields plus pooled, dequantized measurement columns "
        "(kilobytes per batch), never an operator; workers rebuild A "
        "from the config seed"
    )

    def test_pristine_executor_is_clean(self, tmp_path):
        assert lint_pristine(tmp_path, self.SOURCE, "RL009") == []

    def test_unjustified_array_ship_caught(self, tmp_path):
        # stripping the justification exposes the single executor
        # submit site, where pooled measurement columns cross
        findings = mutate_and_lint(
            tmp_path, self.SOURCE, self.DISABLE, "", "RL009"
        )
        assert [f.key for f in findings] == [
            "dispatch:submit:self._pool.submit"
        ]


class TestRL010SeededMissingArm:
    SOURCE = SRC / "ingest" / "client.py"
    PROTO = SRC / "ingest" / "protocol.py"
    DEFAULT_ARM = (
        "            else:\n"
        "                # a gateway never sends handshake/upstream "
        "kinds here; a\n"
        "                # future protocol frame must not stall the "
        "ack loop\n"
        "                report.error = "
        "f\"unexpected frame kind {kind.name}\"\n"
        "                break\n"
    )

    def test_pristine_client_is_clean(self, tmp_path):
        assert (
            lint_pristine(
                tmp_path, self.SOURCE, "RL010", extra=(self.PROTO,)
            )
            == []
        )

    def test_removing_default_arm_caught(self, tmp_path):
        # PR 7 added PARITY/NACK by hand-auditing dispatches; removing
        # the ack loop's default re-creates the silent-drop hazard
        findings = mutate_and_lint(
            tmp_path,
            self.SOURCE,
            self.DEFAULT_ARM,
            "",
            "RL010",
            extra=(self.PROTO,),
        )
        (finding,) = findings
        assert finding.path.endswith("client.py")
        # the ack loop handles DECODED/NACK/ERROR; everything else is
        # reported missing once the default goes away
        for member in ("HELLO", "PACKET", "BYE", "PARITY", "WELCOME"):
            assert member in finding.message
