"""Seeded consistent-hash ring for operator-keyed gateway routing.

The federation front door must send every stream of one operator
group (same ``operator_key`` — same sensing matrix, wavelet basis and
precision) to the *same* gateway process, so the group's dense
``A = Phi Psi^-1`` precompute exists once in the fleet and
cross-stream batching stays intact.  A consistent-hash ring gives
that mapping two properties a modulo table cannot:

* **Stable under membership change.**  Removing a gateway remaps only
  the keys that ring segment owned; every other group keeps its
  gateway (and its warm operator cache, Lipschitz estimate and
  iteration workspace).  ``tests/utils/test_hashring.py`` pins this.
* **Deterministic across processes.**  Points are placed with
  BLAKE2b over a caller-supplied seed, never Python's builtin
  ``hash`` — which is salted per process (PYTHONHASHSEED) and would
  scatter the same key to different gateways in the front door and
  in any offline tooling that wants to predict placement.

Keys are arbitrary printable values (an operator key,
:func:`~repro.core.decoder.operator_key`, is a tuple of ints and
strings); they are canonicalized through
``repr``, which is stable for such tuples.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]

_POINT_BYTES = 8


class HashRing:
    """Consistent-hash ring mapping keys to named nodes.

    Parameters
    ----------
    nodes:
        Initial node names.
    replicas:
        Virtual points per node.  More points smooth the segment
        sizes (balance improves roughly with ``1/sqrt(replicas)``).
    seed:
        Mixed into every point hash; two rings with the same nodes
        and seed are identical in any process.
    """

    def __init__(
        self,
        nodes: tuple[str, ...] | list[str] = (),
        *,
        replicas: int = 64,
        seed: int = 2011,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self.seed = int(seed)
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # -- hashing -----------------------------------------------------

    def _hash(self, data: str) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}:{data}".encode(), digest_size=_POINT_BYTES
        ).digest()
        return int.from_bytes(digest, "big")

    # -- membership --------------------------------------------------

    def add(self, node: str) -> None:
        """Add ``node``; remaps only the segments its points claim."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            index = bisect.bisect_left(self._points, point)
            # Point collisions between distinct nodes would make
            # ownership order-dependent; with 64-bit points they do
            # not happen in practice, but break ties by name so the
            # ring stays deterministic even then.
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < node
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Drop ``node``; only keys it owned move to other nodes."""
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on ring")
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- lookup ------------------------------------------------------

    def lookup(self, key: object) -> str:
        """Return the node owning ``key`` (first point clockwise)."""
        if not self._points:
            raise LookupError("hash ring is empty")
        point = self._hash(repr(key))
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    # -- introspection -----------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes
