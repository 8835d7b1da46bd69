"""Consistent-hash ring invariants the federation front door relies on.

The federation's failover contract — "a dead gateway remaps only its
own ring segment" — and its cross-process determinism ("the front
door and any offline tool predict the same placement") are properties
of :class:`repro.utils.HashRing`, so they are pinned here at the data
structure, independent of sockets and worker processes.
"""

from __future__ import annotations

import pytest

from repro.utils import HashRing

NODES = ("gw0", "gw1", "gw2", "gw3")


def _keys(count: int = 200) -> list[tuple]:
    # operator-key-shaped tuples: mixed ints and strings, repr-stable
    return [("db4", 5, 256 + i, 128, "float64") for i in range(count)]


class TestDeterminism:
    def test_same_seed_same_mapping(self):
        a = HashRing(NODES, seed=7, replicas=32)
        b = HashRing(NODES, seed=7, replicas=32)
        assert [a.lookup(k) for k in _keys()] == [
            b.lookup(k) for k in _keys()
        ]

    def test_insertion_order_irrelevant(self):
        a = HashRing(NODES, seed=7, replicas=32)
        b = HashRing(tuple(reversed(NODES)), seed=7, replicas=32)
        assert [a.lookup(k) for k in _keys()] == [
            b.lookup(k) for k in _keys()
        ]

    def test_seed_changes_mapping(self):
        a = HashRing(NODES, seed=1, replicas=32)
        b = HashRing(NODES, seed=2, replicas=32)
        assert [a.lookup(k) for k in _keys()] != [
            b.lookup(k) for k in _keys()
        ]

    def test_golden_lookups_pin_cross_process_stability(self):
        # literal expected owners: BLAKE2b placement cannot depend on
        # PYTHONHASHSEED, so these hold in every interpreter — the
        # property that lets offline tooling predict the front door
        ring = HashRing(("gw0", "gw1", "gw2"), seed=2011, replicas=64)
        assert ring.lookup(("db4", 5, 256, 128, "float64")) == "gw2"
        assert ring.lookup(("db4", 5, 256, 128, "hybrid")) == "gw0"
        assert ring.lookup(("sym8", 4, 512, 192, "float32")) == "gw2"
        assert ring.lookup("record:100:0") == "gw0"


class TestMembership:
    def test_remove_remaps_only_owned_segment(self):
        ring = HashRing(NODES, seed=2011, replicas=64)
        before = {k: ring.lookup(k) for k in _keys()}
        ring.remove("gw1")
        for key, owner in before.items():
            if owner == "gw1":
                assert ring.lookup(key) in {"gw0", "gw2", "gw3"}
            else:
                # survivors keep every key they owned: their warm
                # operator caches stay valid through the failover
                assert ring.lookup(key) == owner

    def test_add_back_restores_original_mapping(self):
        ring = HashRing(NODES, seed=2011, replicas=64)
        before = {k: ring.lookup(k) for k in _keys()}
        ring.remove("gw2")
        ring.add("gw2")
        assert {k: ring.lookup(k) for k in _keys()} == before

    def test_duplicate_add_rejected(self):
        ring = HashRing(("gw0",))
        with pytest.raises(ValueError, match="already on ring"):
            ring.add("gw0")

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError, match="not on ring"):
            HashRing(("gw0",)).remove("gw9")

    def test_membership_introspection(self):
        ring = HashRing(NODES)
        assert len(ring) == 4
        assert "gw1" in ring
        ring.remove("gw1")
        assert "gw1" not in ring
        assert len(ring) == 3
        assert all(node in ring for node in ("gw0", "gw2", "gw3"))

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError, match="empty"):
            HashRing().lookup("anything")

    def test_replicas_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)


class TestBalance:

    def test_shares_reasonably_balanced(self):
        # 64 virtual points per node keep the worst node within ~2x of
        # fair share; a modulo table would be perfectly fair but lose
        # the minimal-remap property TestMembership pins
        ring = HashRing(NODES, seed=2011, replicas=64)
        owners = [ring.lookup(k) for k in _keys(4000)]
        for node in NODES:
            fraction = owners.count(node) / len(owners)
            assert 0.10 < fraction < 0.50, (node, fraction)

    def test_keys_actually_spread(self):
        ring = HashRing(NODES, seed=2011, replicas=64)
        owners = {ring.lookup(k) for k in _keys(400)}
        assert owners == set(NODES)
