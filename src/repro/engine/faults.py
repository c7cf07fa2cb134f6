"""Deterministic fault scripts for the cluster tier and the write-ahead log.

A :class:`FaultPlan` scripts faults ahead of time, so every failure
path is unit-testable and replayable without wall-clock or thread
timing.  It has two verbs:

* ``down(replica=k, beats=n, after=m)`` — replica ``k`` fails ``n``
  consecutive heartbeats, starting ``m`` healthy beats from now: the
  cluster router marks it down, reroutes its query classes to the
  next-cheapest survivor, and re-admits it at the first healthy beat
  (see :mod:`repro.cluster`).
* ``kill(append=k)`` / ``kill(fsync=k)`` / ``kill(apply=k)`` — a
  simulated process kill at a write-ahead-log point (see
  :mod:`repro.wal`): the crash fires immediately *after* the ``k``-th
  (0-based, counted over the log's lifetime) record append, stream
  fsync, or applied operation completes, raising
  :class:`~repro.wal.CrashError`.  Everything volatile at that instant
  — unfsynced log suffixes, in-memory table and index state — is lost;
  recovery replays the durable prefix (snapshot + log).

Plans are consumed mutably (each scripted fault fires once) and are
pure bookkeeping: a plan never touches wall-clock, threads, or random
state, so a test replaying the same plan sees byte-identical costs and
event streams.
"""

from __future__ import annotations

from typing import Dict


class FaultPlan:
    """A scripted, self-consuming schedule of replica outages and WAL
    kills."""

    def __init__(self) -> None:
        #: replica -> outage segments, each [healthy beats to skip,
        #: failed beats to serve], consumed in scripting order.
        self._outages: Dict[int, list] = {}
        #: WAL kill point -> ordinal after which the crash fires.
        self._kills: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Scripting (builder-style, chainable)
    # ------------------------------------------------------------------
    def down(self, replica: int, beats: int = 1,
             after: int = 0) -> "FaultPlan":
        """Fail ``beats`` consecutive heartbeats of ``replica``,
        starting ``after`` healthy beats from now (read outage)."""
        if beats < 1:
            raise ValueError("beats must be positive")
        if after < 0:
            raise ValueError("after must be >= 0")
        self._outages.setdefault(replica, []).append([after, beats])
        return self

    def kill(
        self,
        append: int = -1,
        fsync: int = -1,
        apply: int = -1,
    ) -> "FaultPlan":
        """Script one simulated process kill at a WAL point.

        Exactly one of ``append`` / ``fsync`` / ``apply`` names the
        0-based lifetime ordinal *after* which the crash fires: the
        action completes, then the kill lands (so a crash after
        ``append=k`` leaves ``k + 1`` records appended but possibly
        none of them durable).  One kill per point may be scripted.
        """
        requested = {
            point: ordinal
            for point, ordinal in (
                ("append", append), ("fsync", fsync), ("apply", apply),
            )
            if ordinal >= 0
        }
        if len(requested) != 1:
            raise ValueError(
                "kill() takes exactly one of append=, fsync=, apply="
            )
        (point, ordinal), = requested.items()
        if point in self._kills:
            raise ValueError(f"a {point} kill is already scripted")
        self._kills[point] = ordinal
        return self

    # ------------------------------------------------------------------
    # Consumption (called by the cluster router and the log)
    # ------------------------------------------------------------------
    def take_heartbeat(self, replica: int) -> bool:
        """Consume one heartbeat for ``replica``; True if it is down.

        Each scripted outage beat fires exactly once, so a plan replayed
        against the same op stream yields the same down/up timeline.
        """
        segments = self._outages.get(replica)
        if not segments:
            return False
        segment = segments[0]
        if segment[0] > 0:
            segment[0] -= 1
            return False
        segment[1] -= 1
        if segment[1] <= 0:
            segments.pop(0)
            if not segments:
                del self._outages[replica]
        return True

    def take_kill(self, point: str, ordinal: int) -> bool:
        """Consume the scripted kill at ``point`` if it matches this
        ``ordinal``; True means the caller must crash now."""
        if self._kills.get(point) != ordinal:
            return False
        del self._kills[point]
        return True

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once every scripted fault has fired."""
        return not self._outages and not self._kills

    def __repr__(self) -> str:
        return (
            f"FaultPlan(outages={self._outages!r}, "
            f"kills={self._kills!r})"
        )
