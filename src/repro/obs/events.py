"""The unified structured event log.

Before this module, each layer kept its own ad-hoc trail of "what
happened": the faults layer counted retries in a ``FaultStats``, the
contracts layer counted dispositions in the metrics registry, and the
engine incremented
``engine.cache.*`` counters.  Counters aggregate — they cannot answer
"in what order did the run degrade?".  The event log can: it is one
append-only, in-memory stream of **typed** events that every
instrumented layer feeds::

    ctx = repro.obs.current()
    ctx.event("cache.hit", "ingest", key="3f9c…")

Design rules, matching the rest of ``repro.obs``:

- **Typed, or rejected.**  An event type must be registered in
  :data:`EVENT_TYPES`; a typo raises immediately instead of silently
  forking the taxonomy.  The taxonomy is the contract the run ledger
  and the regression sentinel consume.
- **Deterministic identity.**  An event's :meth:`Event.identity` covers
  its sequence number, type, subject, and attributes — never its
  timestamp.  Two runs with the same seed produce identical event
  identities regardless of worker count, because worker events are
  captured per *item* and adopted in input order (the ``parallel_map``
  discipline), not in completion order.
- **Timing is quarantined.**  The wall-clock offset ``t`` rides along
  for the JSONL export and the dashboard, and is excluded from
  identities, digests, and determinism comparisons — the same split
  ``metrics.json`` makes with its ``"timing"`` section.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = ["EVENT_TYPES", "Event", "EventLog", "NullEventLog", "write_events"]

# The event taxonomy.  One flat namespace, dotted ``source.outcome``
# names; extend it here (and in METHODOLOGY.md §12) — emitting an
# unregistered type is an error, not an extension mechanism.
EVENT_TYPES: frozenset[str] = frozenset(
    {
        # run lifecycle (pipeline runner)
        "run.start",
        "run.end",
        # trace spans (every span open/close mirrors into the log)
        "span.open",
        "span.close",
        # engine stage execution + artifact cache
        "stage.start",
        "stage.end",
        "cache.hit",
        "cache.miss",
        "cache.store",
        "cache.quarantine",
        # supervised node execution (retry/deadline/isolation)
        "node.retry",
        "node.timeout",
        "node.failed",
        "node.skipped",
        # fault injection and resilience
        "fault.injected",
        "fault.retry",
        "fault.exhausted",
        "fault.breaker_open",
        "fault.loss",
        # data contracts
        "contract.violation",
        "contract.flagged",
        "contract.repaired",
        "contract.held",
        # analysis-as-a-service request lifecycle (repro.serve)
        "serve.request",
        "serve.response",
        "serve.not_modified",
        "serve.coalesced",
        "serve.shed",
        "serve.deadline",
        "serve.breaker_open",
        "serve.error",
        "serve.drain",
    }
)


@dataclass
class Event:
    """One structured occurrence: ``(seq, type, name, attrs)`` plus timing."""

    seq: int
    type: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    t: float = 0.0  # seconds since the log epoch; timing, never identity

    def identity(self) -> tuple:
        """Everything deterministic about the event (timing excluded)."""
        return (self.seq, self.type, self.name, tuple(sorted(self.attrs.items())))

    def to_dict(self, include_timing: bool = True) -> dict:
        d: dict[str, Any] = {
            "seq": self.seq,
            "type": self.type,
            "name": self.name,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }
        if include_timing:
            d["t"] = round(self.t, 6)
        return d


class EventLog:
    """Append-only in-memory event stream for one run (or one task)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------- recording

    def emit(self, type: str, name: str = "", **attrs: Any) -> Event:
        """Append one typed event; unknown types raise ``ValueError``."""
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; register it in "
                f"repro.obs.events.EVENT_TYPES"
            )
        ev = Event(
            seq=len(self.events),
            type=type,
            name=name,
            attrs=attrs,
            t=time.perf_counter() - self._epoch,
        )
        self.events.append(ev)
        return ev

    def adopt(self, events: Iterable[Event]) -> None:
        """Graft captured worker events onto this log, re-sequenced.

        Called in input order by ``parallel_map`` (never completion
        order), so the merged sequence numbers — and therefore every
        identity — are independent of worker count.  Timestamps are
        placed at the adoption instant: cross-process clock offsets are
        not meaningful, the same stance :meth:`Tracer.adopt` takes.
        """
        now = time.perf_counter() - self._epoch
        for ev in events:
            self.events.append(
                Event(seq=len(self.events), type=ev.type, name=ev.name,
                      attrs=ev.attrs, t=now)
            )

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self.events)

    def by_type(self, type: str) -> list[Event]:
        return [e for e in self.events if e.type == type]

    def counts(self) -> dict[str, int]:
        """Events per type, sorted by type name (ledger-ready)."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.type] = out.get(e.type, 0) + 1
        return {k: out[k] for k in sorted(out)}

    def identity(self) -> tuple:
        """Deterministic fingerprint of the whole stream (timing excluded)."""
        return tuple(e.identity() for e in self.events)

    # ------------------------------------------------------------- rendering

    def to_records(self, include_timing: bool = True) -> list[dict]:
        return [e.to_dict(include_timing) for e in self.events]


class NullEventLog:
    """No-op log backing the disabled path (shared singleton)."""

    enabled = False
    events: list[Event] = []

    def emit(self, type: str, name: str = "", **attrs: Any) -> None:
        return None

    def adopt(self, events: Iterable[Event]) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def by_type(self, type: str) -> list[Event]:
        return []

    def counts(self) -> dict[str, int]:
        return {}

    def identity(self) -> tuple:
        return ()

    def to_records(self, include_timing: bool = True) -> list[dict]:
        return []


def write_events(
    log: EventLog, path: str | Path, include_timing: bool = True
) -> Path:
    """Write the stream as JSONL, one event per line; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(rec, sort_keys=True, separators=(",", ":"))
        for rec in log.to_records(include_timing)
    ]
    p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return p
