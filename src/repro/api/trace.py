"""Per-frame episode traces (used by the Fig. 5–7 reproductions).

This module also defines :func:`episode_trace_hash`, the canonical digest of
an episode's :class:`~repro.api.events.StepEvent` stream — the unit of the
fleet-wide bitwise-parity contract (see ``DETERMINISM.md``).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-frame traces recorded during an episode.

    Every row describes the world *after* the corresponding control command
    was applied: ``positions[i]`` / ``headings[i]`` / ``velocities[i]`` are
    the post-step vehicle state at ``times[i]`` and
    ``min_obstacle_distances[i]`` is measured on that same post-step state,
    so each row is self-consistent.  ``steering`` / ``reverse`` / ``modes``
    describe the command that produced the row.
    """

    times: np.ndarray
    positions: np.ndarray
    headings: np.ndarray
    velocities: np.ndarray
    steering: np.ndarray
    reverse: np.ndarray
    modes: Tuple[str, ...]
    uncertainties: np.ndarray
    hsa_scores: np.ndarray
    min_obstacle_distances: np.ndarray

    @property
    def num_frames(self) -> int:
        return int(self.times.shape[0])


# ---------------------------------------------------------------------------
# Canonical trace hashing (the bitwise-parity contract)
# ---------------------------------------------------------------------------
# One frame's fixed-width payload: step index, stamp, the ten state floats
# (pre- and post-step x/y/heading/velocity/steer), the four command values,
# the HSA readings, the two booleans and the post-step clearance.  Strings
# (mode, status) are appended length-prefixed after the fixed block.
_FRAME_FIXED = struct.Struct("<qd5d5d3dqddqd")


def _frame_bytes(event) -> bytes:
    pre = event.pre_step_state
    post = event.state
    action = event.action
    fixed = _FRAME_FIXED.pack(
        int(event.step_index),
        float(event.stamp),
        float(pre.x),
        float(pre.y),
        float(pre.heading),
        float(pre.velocity),
        float(pre.steer),
        float(post.x),
        float(post.y),
        float(post.heading),
        float(post.velocity),
        float(post.steer),
        float(action.throttle),
        float(action.brake),
        float(action.steer),
        int(bool(action.reverse)),
        float(event.uncertainty),
        float(event.hsa_score),
        int(bool(event.switched)),
        float(event.min_obstacle_distance),
    )
    mode = event.mode.encode("utf-8")
    status = event.status.value.encode("utf-8")
    return b"".join(
        (fixed, struct.pack("<q", len(mode)), mode, struct.pack("<q", len(status)), status)
    )


def episode_trace_hash(events: Iterable) -> str:
    """Canonical SHA-256 over an episode's :class:`StepEvent` stream.

    Every recorded quantity of every frame — both vehicle states, the
    command, the HSA readings, the mode/switch bookkeeping, the post-step
    clearance and the episode status — is packed into a fixed little-endian
    binary layout (float64 for reals, int64 for counters and flags,
    length-prefixed UTF-8 for strings), so the digest is identical across
    platforms, processes and executor backends whenever the episodes are
    bitwise identical, and differs whenever *any* frame quantity differs.
    Two episodes with equal hashes replayed the same trajectory byte for
    byte — the invariant the fleet-wide parity gate in
    ``tests/test_determinism_contract.py`` asserts across all executor
    backends.
    """
    digest = hashlib.sha256()
    for event in events:
        digest.update(_frame_bytes(event))
    return digest.hexdigest()


def batch_trace_digest(trace_hashes: Iterable[str]) -> str:
    """SHA-256 over an ordered sequence of per-episode trace hashes.

    Collapses a whole batch's bitwise identity into one comparable string
    (each hash is length-prefixed, so hash lists cannot collide by
    concatenation).  Stamped into batch summaries and ``BENCH_*.json``
    records; episodes without a hash (hand-built results) contribute the
    empty string.
    """
    digest = hashlib.sha256()
    for trace_hash in trace_hashes:
        encoded = trace_hash.encode("utf-8")
        digest.update(struct.pack("<q", len(encoded)))
        digest.update(encoded)
    return digest.hexdigest()
