"""Email addresses and affiliation strings for synthetic researchers.

These are the *raw materials* the pipeline's country/sector resolution
works from, so they are generated to be classifiable by the same
hand-coded rules the paper used: EDU affiliations mention a university,
GOV a national lab or agency, COM a company; emails carry country-code
TLDs (or .edu/.gov for the US, or uninformative .com for industry).
"""

from __future__ import annotations

import numpy as np

from repro.geo.countries import country_by_code
from repro.names.parsing import cached_name_key

__all__ = ["make_email", "make_affiliation"]

_CITY_STEMS = (
    "River", "Lake", "North", "South", "East", "West", "New", "Old",
    "Grand", "Central", "Harbor", "Summit", "Valley", "Forest", "Stone",
)
_CITY_SUFFIX = ("ton", "ville", "burg", "field", "ford", "port", "dale", "mont")

_COMPANIES = (
    "IBM", "Intel", "Microsoft", "Google", "Amazon", "NVIDIA", "AMD",
    "Huawei", "Cray", "Fujitsu", "NEC", "Samsung", "Oracle",
)
_US_LABS = (
    "Oak Ridge National Laboratory", "Argonne National Laboratory",
    "Lawrence Livermore National Laboratory", "Los Alamos National Laboratory",
    "Sandia National Laboratories", "Pacific Northwest National Laboratory",
    "Brookhaven National Laboratory", "NASA Ames Research Center",
)
_INTL_GOV = (
    "National Supercomputing Center", "National Research Laboratory",
    "National Institute of Advanced Computing", "Government Research Centre",
)


def _city(rng: np.random.Generator) -> str:
    return (
        _CITY_STEMS[int(rng.integers(len(_CITY_STEMS)))]
        + _CITY_SUFFIX[int(rng.integers(len(_CITY_SUFFIX)))]
    )


def make_affiliation(
    sector: str, country_code: str | None, rng: np.random.Generator
) -> str:
    """A classifiable affiliation string for a researcher.

    Researchers without a resolvable country get strings with no country
    hint (the pipeline must then mark them unknown), matching the paper's
    unresolved cases.
    """
    country = country_by_code(country_code).name if country_code else None
    if sector == "COM":
        company = _COMPANIES[int(rng.integers(len(_COMPANIES)))]
        return f"{company} Research" + (f", {country}" if country else "")
    if sector == "GOV":
        if country_code == "US":
            return _US_LABS[int(rng.integers(len(_US_LABS)))] + ", USA"
        lab = _INTL_GOV[int(rng.integers(len(_INTL_GOV)))]
        return f"{lab}" + (f", {country}" if country else "")
    # EDU
    uni = f"University of {_city(rng)}"
    return uni + (f", {country}" if country else "")


def make_email(
    full_name: str,
    sector: str,
    country_code: str | None,
    rng: np.random.Generator,
) -> str:
    """An email address consistent with sector and country.

    US academics get ``.edu``, US labs ``.gov``; other countries use
    their ccTLD (with an ``ac``/``gov`` second level); industry gets a
    generic ``.com`` that deliberately carries no country signal.
    """
    local = cached_name_key(full_name).replace(" ", ".")
    n = int(rng.integers(1, 99))
    if sector == "COM":
        company = _COMPANIES[int(rng.integers(len(_COMPANIES)))].lower()
        return f"{local}@{company}{n}.com"
    country = country_by_code(country_code) if country_code else None
    if sector == "GOV":
        if country_code == "US":
            return f"{local}@lab{n}.gov"
        if country:
            return f"{local}@nlab{n}.gov.{country.tld}"
        return f"{local}@research{n}.org"
    # EDU
    if country_code == "US":
        return f"{local}@univ{n}.edu"
    if country:
        return f"{local}@univ{n}.ac.{country.tld}"
    return f"{local}@institute{n}.org"
