"""Affiliation-string classification into (country, sector).

Mirrors the paper's "hand-coded regular expressions" over Google Scholar
affiliation strings (§2, §5).  The classifier is deliberately
conservative: it returns ``None`` fields rather than guessing, because
the paper marks unresolvable affiliations as unknown.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from repro.geo.countries import Country, country_by_name
from repro.geo.sectors import Sector

__all__ = ["AffiliationGuess", "classify_affiliation"]


@dataclass(frozen=True)
class AffiliationGuess:
    """Classifier output; any field may be None when ambiguous."""

    country: Country | None
    sector: Sector | None
    matched_rule: str | None


# Sector rules are ordered: the first match wins.  GOV outranks EDU so
# that "National Laboratory" affiliations hosted at universities classify
# as labs, matching the paper's 18.6% GOV share driven by national labs.
_SECTOR_RULES: tuple[tuple[str, re.Pattern, Sector], ...] = tuple(
    (name, re.compile(pat, re.IGNORECASE), sector)
    for name, pat, sector in [
        ("national-lab", r"\bnational lab(?:orator(?:y|ies)|s)?\b", Sector.GOV),
        ("gov-lab", r"\b(?:LLNL|LANL|ORNL|ANL|PNNL|SNL|NREL|BNL|LBNL|LBL)\b", Sector.GOV),
        ("gov-agency", r"\b(?:NASA|NOAA|NIST|DOE|CNRS|INRIA|CEA|JAXA|RIKEN|CSIRO|KISTI|BSC|CSCS|JSC|Fraunhofer|Max Planck)\b", Sector.GOV),
        ("gov-word", r"\b(?:government|ministry|federal (?:agency|institute)|research cent(?:er|re) juelich)\b", Sector.GOV),
        ("gov-national", r"\bnational (?:supercomputing|research|computing) (?:cent(?:er|re)|laboratory|institute)\b|\bnational institute\b", Sector.GOV),
        ("university", r"\buniversit(?:y|e|at|ät|à)\b|\buniv\.", Sector.EDU),
        ("college", r"\bcollege\b|\bpolytechnic\b|\bhochschule\b|\bgrande école\b", Sector.EDU),
        ("tech-institute", r"\binstitute of technology\b|\bETH\b|\bEPFL\b|\bKTH\b|\bMIT\b|\bIIT\b|\bTU\b", Sector.EDU),
        ("school", r"\bgraduate school\b|\bécole\b", Sector.EDU),
        ("company-suffix", r"\b(?:inc|corp|corporation|ltd|llc|gmbh|co\.)\b\.?", Sector.COM),
        ("company-name", r"\b(?:ibm|intel|microsoft|google|amazon|nvidia|amd|huawei|cray|hpe|hewlett.packard|fujitsu|nec|samsung|baidu|alibaba|tencent|oracle|facebook|meta)\b", Sector.COM),
        ("research-lab-com", r"\bresearch labs?\b", Sector.COM),
        # generic "institute" is ambiguous between EDU and GOV; the paper
        # resolved these case by case — we treat bare institutes as EDU.
        ("institute", r"\binstitute\b|\binstitut\b", Sector.EDU),
    ]
)

# Country detection: explicit country names/aliases at word boundaries.
_COUNTRY_HINTS: tuple[tuple[re.Pattern, str], ...] = tuple(
    (re.compile(rf"\b{re.escape(alias)}\b", re.IGNORECASE), name)
    for alias, name in [
        ("USA", "United States"),
        ("United States", "United States"),
        ("UK", "United Kingdom"),
        ("United Kingdom", "United Kingdom"),
        ("Germany", "Germany"),
        ("France", "France"),
        ("China", "China"),
        ("Japan", "Japan"),
        ("India", "India"),
        ("Spain", "Spain"),
        ("Switzerland", "Switzerland"),
        ("Canada", "Canada"),
        ("Italy", "Italy"),
        ("Netherlands", "Netherlands"),
        ("Australia", "Australia"),
        ("Brazil", "Brazil"),
        ("South Korea", "South Korea"),
        ("Korea", "South Korea"),
        ("Sweden", "Sweden"),
        ("Austria", "Austria"),
        ("Belgium", "Belgium"),
        ("Poland", "Poland"),
        ("Singapore", "Singapore"),
        ("Israel", "Israel"),
        ("Greece", "Greece"),
        ("Portugal", "Portugal"),
        ("Norway", "Norway"),
        ("Denmark", "Denmark"),
        ("Finland", "Finland"),
        ("Ireland", "Ireland"),
        ("Turkey", "Turkey"),
        ("Saudi Arabia", "Saudi Arabia"),
        ("Qatar", "Qatar"),
        ("Thailand", "Thailand"),
        ("Malaysia", "Malaysia"),
        ("Vietnam", "Vietnam"),
        ("Indonesia", "Indonesia"),
        ("Russia", "Russia"),
        ("Czechia", "Czechia"),
        ("Czech Republic", "Czechia"),
        ("Hungary", "Hungary"),
        ("Romania", "Romania"),
        ("Mexico", "Mexico"),
        ("Egypt", "Egypt"),
        ("Nigeria", "Nigeria"),
        ("Ghana", "Ghana"),
        ("Kazakhstan", "Kazakhstan"),
        ("New Zealand", "New Zealand"),
        ("Argentina", "Argentina"),
        ("Chile", "Chile"),
        ("Colombia", "Colombia"),
        ("Taiwan", "Taiwan"),
        ("Hong Kong", "Hong Kong"),
        ("Iran", "Iran"),
        ("Pakistan", "Pakistan"),
        ("Luxembourg", "Luxembourg"),
        ("Slovenia", "Slovenia"),
        ("Croatia", "Croatia"),
        ("Estonia", "Estonia"),
        ("Bulgaria", "Bulgaria"),
        ("Slovakia", "Slovakia"),
        ("Ukraine", "Ukraine"),
        ("United Arab Emirates", "United Arab Emirates"),
        ("Morocco", "Morocco"),
        ("Tunisia", "Tunisia"),
        ("Algeria", "Algeria"),
        ("South Africa", "South Africa"),
        ("Kenya", "Kenya"),
        ("Costa Rica", "Costa Rica"),
        ("Guatemala", "Guatemala"),
        ("Uzbekistan", "Uzbekistan"),
        ("Senegal", "Senegal"),
        ("Bangladesh", "Bangladesh"),
        ("Sri Lanka", "Sri Lanka"),
        ("Philippines", "Philippines"),
        ("Iceland", "Iceland"),
    ]
)


@functools.lru_cache(maxsize=65536)
def classify_affiliation(text: str | None) -> AffiliationGuess:
    """Classify a free-text affiliation into (country, sector).

    Returns an :class:`AffiliationGuess` with None fields where no rule
    fires.  The ``matched_rule`` names the sector rule that fired (for
    auditing the hand-coded patterns, as the paper's artifact does).

    Memoized like :func:`repro.names.parsing.cached_name_key`: the
    function is pure, its result is frozen, and synthetic affiliation
    strings recur across researchers and shards.
    """
    if not text:
        return AffiliationGuess(None, None, None)
    sector = None
    rule = None
    for name, pat, sec in _SECTOR_RULES:
        if pat.search(text):
            sector = sec
            rule = name
            break
    country = None
    for pat, cname in _COUNTRY_HINTS:
        if pat.search(text):
            country = country_by_name(cname)
            break
    return AffiliationGuess(country, sector, rule)
