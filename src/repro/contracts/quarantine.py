"""The quarantine store: every contract-violating record, accounted.

A record that fails its contract is never silently dropped and never
allowed to crash a stage — it lands here, with machine-readable
violation reasons and a *disposition*:

- ``repaired``  — heuristics fixed it; the repaired record re-entered
  the pipeline (the entry keeps full provenance of what was wrong and
  which heuristics ran);
- ``held``      — irreparable; the record was withheld from the
  pipeline and its absence must balance in the end-of-run integrity
  audit;
- ``flagged``   — admitted unchanged (audit mode, or informational
  flags such as "this edition was scraped from corrupted pages").

``QuarantineStore`` is plain comparable data so determinism tests can
assert that two runs with the same seeds quarantine the same records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts.schema import Violation

__all__ = ["Disposition", "QuarantineEntry", "QuarantineStore"]


class Disposition:
    """String constants (kept trivial for pickling and caching)."""

    REPAIRED = "repaired"
    HELD = "held"
    FLAGGED = "flagged"


@dataclass(frozen=True)
class QuarantineEntry:
    """One quarantined record with its full violation provenance."""

    stage: str           # pipeline boundary: harvest / link / enrich / infer
    entity: str          # record kind: edition / paper / role / researcher / ...
    key: str             # record identity, e.g. "SC-2017" or "r000123"
    disposition: str     # Disposition.*
    violations: tuple[Violation, ...]
    repairs: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "entity": self.entity,
            "key": self.key,
            "disposition": self.disposition,
            "violations": [v.to_dict() for v in self.violations],
            "repairs": list(self.repairs),
        }


@dataclass
class QuarantineStore:
    """Append-only collection of quarantine entries for one run."""

    entries: list[QuarantineEntry] = field(default_factory=list)

    def add(
        self,
        stage: str,
        entity: str,
        key: str,
        disposition: str,
        violations: list[Violation] | tuple[Violation, ...],
        repairs: tuple[str, ...] = (),
    ) -> QuarantineEntry:
        entry = QuarantineEntry(
            stage=stage,
            entity=entity,
            key=key,
            disposition=disposition,
            violations=tuple(violations),
            repairs=repairs,
        )
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.entries)

    def by_disposition(self, disposition: str) -> tuple[QuarantineEntry, ...]:
        return tuple(e for e in self.entries if e.disposition == disposition)

    def held(self, entity: str | None = None) -> tuple[QuarantineEntry, ...]:
        return tuple(
            e
            for e in self.entries
            if e.disposition == Disposition.HELD
            and (entity is None or e.entity == entity)
        )

    def held_count(self, entity: str) -> int:
        return len(self.held(entity))

    def held_keys(self, entity: str) -> tuple[str, ...]:
        return tuple(e.key for e in self.held(entity))

    def counts(self) -> dict[str, dict[str, int]]:
        """``{entity: {disposition: count}}`` — the report's summary view."""
        out: dict[str, dict[str, int]] = {}
        for e in self.entries:
            per = out.setdefault(e.entity, {})
            per[e.disposition] = per.get(e.disposition, 0) + 1
        return {k: dict(sorted(v.items())) for k, v in sorted(out.items())}

    def violation_codes(self) -> dict[str, int]:
        """Histogram of violation codes across all entries."""
        out: dict[str, int] = {}
        for e in self.entries:
            for v in e.violations:
                out[v.code] = out.get(v.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "violation_codes": self.violation_codes(),
            "entries": [e.to_dict() for e in self.entries],
        }
