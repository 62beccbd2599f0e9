"""Output checks: invariants that hold at every commit.

There is no pinned golden digest and no assumption that episodes park.
Each check names the episode it failed on; an episode that raised or failed
any check counts as one failed operation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import batch_trace_digest, episode_trace_hash


def check_episodes(records: Sequence, replay=None) -> Dict[int, str]:
    """``{record index: reason}`` for every record that fails a check.

    * the episode ran to an outcome without raising;
    * its status is terminal;
    * ``result.trace_hash`` equals ``episode_trace_hash`` of its events;
    * ``replay``, when given, is a separate run of one of the records' specs
      (the warm-up, which for ``fleet-cohort`` ran solo) and must have the
      same trace hash as that record.
    """
    failures: Dict[int, str] = {}
    for index, record in enumerate(records):
        reason = _episode_failure(record)
        if reason is not None:
            failures[index] = reason
    if replay is not None:
        index = next(i for i, record in enumerate(records) if record.spec == replay.spec)
        if index not in failures:
            if _episode_failure(replay) is not None:
                failures[index] = f"replay failed: {_episode_failure(replay)}"
            elif replay.outcome.result.trace_hash != records[index].outcome.result.trace_hash:
                failures[index] = "trace hash differs from the replay of the same spec"
    return failures


def _episode_failure(record) -> Optional[str]:
    if record.error is not None:
        return "raised: " + record.error.strip().splitlines()[-1]
    if record.outcome is None:
        return "no outcome"
    result = record.outcome.result
    if not result.status.is_terminal:
        return f"ended in non-terminal status {result.status.value!r}"
    if result.trace_hash != episode_trace_hash(record.outcome.events):
        return "result.trace_hash does not match its step events"
    return None


def run_digest(records: Sequence) -> str:
    """``batch_trace_digest`` of the run's episodes, in run order."""
    return batch_trace_digest(
        record.outcome.result.trace_hash if record.outcome is not None else ""
        for record in records
    )
