"""Inter-packet redundancy removal (paper Section IV-A).

A fixed binary sensing matrix combined with the quasi-periodic ECG yields
very similar consecutive measurement vectors ``y``; the encoder therefore
transmits only the element-wise difference between consecutive packets.
The difference is saturated into the codebook range ``[-256, 255]``
(saturation is rare on well-behaved signals; keyframes bound any drift it
introduces, and the decoder mirrors the saturated values exactly, so
encoder and decoder prediction states never diverge).

:class:`DifferentialCodec` implements both directions with an explicit
keyframe policy: every ``keyframe_interval`` packets the raw measurement
vector is sent instead of a difference, allowing a receiver to join a
stream mid-flight and resynchronizing after losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DIFF_MAX, DIFF_MIN
from ..errors import DecodingError
from ..utils import check_integer_array


@dataclass
class DifferentialCodec:
    """Stateful inter-packet difference encoder/decoder.

    The encoder and decoder keep the *same* reference vector: after a
    saturated difference the encoder reconstructs the value the decoder
    will see and uses that as its next reference (closed-loop DPCM), so
    saturation never accumulates as drift between the two sides.
    """

    keyframe_interval: int = 16
    diff_min: int = DIFF_MIN
    diff_max: int = DIFF_MAX

    def __post_init__(self) -> None:
        if self.keyframe_interval < 1:
            raise ValueError(
                f"keyframe_interval must be >= 1, got {self.keyframe_interval}"
            )
        if self.diff_min >= 0 or self.diff_max <= 0:
            raise ValueError(
                f"diff range must straddle zero, got [{self.diff_min}, {self.diff_max}]"
            )
        self._reference: np.ndarray | None = None
        self._packet_index = 0
        #: values actually clipped (strictly outside the rails before
        #: saturation) in the most recent :meth:`encode` call; keyframes
        #: clip nothing.  Rail-valued differences are representable and
        #: therefore never counted.
        self.last_clip_count = 0
        #: per-window strict clip counts of the most recent
        #: :meth:`encode_batch` call
        self.last_batch_clip_counts = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def packet_index(self) -> int:
        """Number of packets processed since the last :meth:`reset`."""
        return self._packet_index

    def reset(self) -> None:
        """Drop all state; the next packet becomes a keyframe."""
        self._reference = None
        self._packet_index = 0
        self.last_clip_count = 0
        self.last_batch_clip_counts = np.zeros(0, dtype=np.int64)

    def _is_keyframe_slot(self) -> bool:
        return self._reference is None or (
            self._packet_index % self.keyframe_interval == 0
        )

    # ------------------------------------------------------------------
    # Encoder side
    # ------------------------------------------------------------------
    def encode(self, measurements: np.ndarray) -> tuple[bool, np.ndarray]:
        """Encode one measurement vector.

        Returns ``(is_keyframe, payload)``: for keyframes the payload is
        the raw integer measurement vector; otherwise the saturated
        difference against the shared reference.
        """
        y = check_integer_array(np.asarray(measurements), "measurements")
        if y.ndim != 1:
            raise ValueError(f"measurements must be 1-D, got shape {y.shape}")
        y = y.astype(np.int64)

        if self._is_keyframe_slot():
            self._reference = y.copy()
            self._packet_index += 1
            self.last_clip_count = 0
            return True, y.copy()

        assert self._reference is not None
        if len(y) != len(self._reference):
            raise ValueError(
                f"packet length changed mid-stream: {len(self._reference)} "
                f"-> {len(y)}; call reset() first"
            )
        raw = y - self._reference
        self.last_clip_count = int(
            np.count_nonzero((raw < self.diff_min) | (raw > self.diff_max))
        )
        diff = np.clip(raw, self.diff_min, self.diff_max)
        # Closed loop: advance the reference by the *saturated* diff, which
        # is exactly what the decoder will add on its side.
        self._reference = self._reference + diff
        self._packet_index += 1
        return False, diff.astype(np.int64)

    def encode_batch(
        self, measurements: np.ndarray
    ) -> list[tuple[bool, np.ndarray]]:
        """Encode a ``(B, m)`` block of measurement vectors at once.

        Equivalent to ``[encode(y) for y in measurements]`` — same
        payloads, same keyframe schedule, same closed-loop state
        afterwards — but the differencing between keyframes is one
        vectorized subtraction per segment.  The closed loop only
        becomes genuinely sequential when a difference saturates, which
        is rare on well-behaved signals; a segment containing any
        clipped value falls back to the per-window path so saturated
        references stay exact.

        Per-window strict clip counts are left in
        :attr:`last_batch_clip_counts` (aligned with the block).
        """
        y = check_integer_array(np.asarray(measurements), "measurements")
        if y.ndim != 2:
            raise ValueError(
                f"measurements must be 2-D (B, m), got shape {y.shape}"
            )
        y = y.astype(np.int64)
        batch = y.shape[0]
        results: list[tuple[bool, np.ndarray]] = []
        clip_counts = np.zeros(batch, dtype=np.int64)

        index = 0
        while index < batch:
            if self._is_keyframe_slot():
                results.append(self.encode(y[index]))
                index += 1
                continue
            assert self._reference is not None
            if y.shape[1] != len(self._reference):
                raise ValueError(
                    f"packet length changed mid-stream: "
                    f"{len(self._reference)} -> {y.shape[1]}; "
                    "call reset() first"
                )
            # the run of difference slots before the next keyframe
            until_keyframe = self.keyframe_interval - (
                self._packet_index % self.keyframe_interval
            )
            stop = min(batch, index + until_keyframe)
            segment = y[index:stop]
            previous = np.vstack([self._reference[None, :], segment[:-1]])
            raw = segment - previous
            if (
                raw.min() >= self.diff_min
                and raw.max() <= self.diff_max
            ):
                # no saturation anywhere: each reference lands exactly on
                # its measurement vector, so consecutive diffs are final
                for offset in range(stop - index):
                    results.append((False, raw[offset].copy()))
                self._reference = segment[-1].copy()
                self._packet_index += stop - index
                self.last_clip_count = 0
            else:
                for position in range(index, stop):
                    results.append(self.encode(y[position]))
                    clip_counts[position] = self.last_clip_count
            index = stop

        self.last_batch_clip_counts = clip_counts
        return results

    def saturation_fraction(self, raw_diff: np.ndarray) -> float:
        """Fraction of *raw* (pre-saturation) differences that clip.

        Strict comparison: values exactly at ``diff_min``/``diff_max``
        are representable and do not count as clipped.  Note that the
        payload returned by :meth:`encode` is already saturated, so
        feeding it here always yields 0.0 — for an encoded packet's
        clipping statistics read :attr:`last_clip_count` (or
        :attr:`last_batch_clip_counts`), which the encoder records from
        the pre-clip differences.
        """
        d = np.asarray(raw_diff)
        if d.size == 0:
            return 0.0
        clipped = np.count_nonzero((d < self.diff_min) | (d > self.diff_max))
        return clipped / d.size

    # ------------------------------------------------------------------
    # Decoder side
    # ------------------------------------------------------------------
    def decode(self, is_keyframe: bool, payload: np.ndarray) -> np.ndarray:
        """Reconstruct one measurement vector from a payload."""
        data = check_integer_array(np.asarray(payload), "payload").astype(np.int64)
        if data.ndim != 1:
            raise ValueError(f"payload must be 1-D, got shape {data.shape}")

        if is_keyframe:
            self._reference = data.copy()
            self._packet_index += 1
            return data.copy()

        if self._reference is None:
            raise DecodingError(
                "difference packet received before any keyframe"
            )
        if len(data) != len(self._reference):
            raise DecodingError(
                f"payload length {len(data)} does not match stream "
                f"width {len(self._reference)}"
            )
        if data.min() < self.diff_min or data.max() > self.diff_max:
            raise DecodingError(
                f"difference values outside [{self.diff_min}, {self.diff_max}]"
            )
        self._reference = self._reference + data
        self._packet_index += 1
        return self._reference.copy()
