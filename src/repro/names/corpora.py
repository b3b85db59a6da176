"""Name corpora per cultural cluster.

Each forename row is ``(name, female_share, weight)``:

- ``female_share`` — fraction of bearers who are women (0 = always male,
  1 = always female, 0.5 = fully ambiguous).  These are synthetic values
  chosen to mimic the texture reported in the name-to-gender benchmarking
  literature the paper cites [Santamaria & Mihaljevic 2018]: Western names
  mostly near 0 or 1, East-Asian romanizations heavily mid-range.
- ``weight`` — relative frequency used when sampling bearers.

Clusters map from country code via :func:`cluster_for_country`; the
mapping follows writing-culture, not geography (e.g. Australia samples
from the "western" cluster).
"""

from __future__ import annotations

import functools

__all__ = ["CLUSTERS", "cluster_for_country", "FORENAMES", "SURNAMES"]

# (name, female_share, weight)
_WESTERN_FORENAMES: list[tuple[str, float, int]] = [
    # strongly male
    ("James", 0.01, 90), ("John", 0.01, 85), ("Robert", 0.01, 80),
    ("Michael", 0.01, 95), ("David", 0.01, 92), ("William", 0.01, 70),
    ("Thomas", 0.01, 75), ("Daniel", 0.02, 72), ("Matthew", 0.01, 66),
    ("Christopher", 0.01, 64), ("Andrew", 0.01, 62), ("Joshua", 0.02, 50),
    ("Peter", 0.01, 58), ("Paul", 0.01, 60), ("Mark", 0.01, 57),
    ("George", 0.02, 48), ("Kevin", 0.01, 52), ("Brian", 0.01, 50),
    ("Eric", 0.02, 55), ("Stephen", 0.01, 49), ("Scott", 0.02, 40),
    ("Gregory", 0.01, 36), ("Patrick", 0.02, 42), ("Alexander", 0.02, 54),
    ("Nicholas", 0.02, 46), ("Jonathan", 0.01, 44), ("Ryan", 0.03, 38),
    ("Jacob", 0.01, 35), ("Ethan", 0.02, 30), ("Henry", 0.01, 33),
    ("Carl", 0.01, 28), ("Frank", 0.02, 31), ("Martin", 0.01, 47),
    ("Hans", 0.01, 26), ("Klaus", 0.01, 22), ("Jürgen", 0.01, 20),
    ("Wolfgang", 0.01, 18), ("Pierre", 0.01, 25), ("Jean", 0.08, 30),
    ("Luc", 0.02, 16), ("Marc", 0.01, 24), ("Antonio", 0.01, 27),
    ("José", 0.02, 29), ("Carlos", 0.01, 28), ("Javier", 0.01, 21),
    ("Giovanni", 0.01, 17), ("Marco", 0.01, 23), ("Luca", 0.03, 19),
    ("Sven", 0.01, 15), ("Lars", 0.01, 16), ("Erik", 0.01, 18),
    ("Dmitri", 0.01, 14), ("Sergei", 0.01, 13), ("Ivan", 0.01, 15),
    # strongly female
    ("Mary", 0.99, 60), ("Jennifer", 0.99, 55), ("Linda", 0.99, 40),
    ("Elizabeth", 0.99, 52), ("Susan", 0.99, 45), ("Jessica", 0.99, 42),
    ("Sarah", 0.99, 54), ("Karen", 0.99, 38), ("Nancy", 0.99, 32),
    ("Lisa", 0.99, 41), ("Margaret", 0.99, 30), ("Emily", 0.99, 44),
    ("Michelle", 0.98, 36), ("Laura", 0.99, 43), ("Amy", 0.99, 35),
    ("Kathleen", 0.99, 26), ("Anna", 0.99, 46), ("Julia", 0.99, 39),
    ("Rachel", 0.99, 33), ("Catherine", 0.99, 31), ("Christine", 0.99, 29),
    ("Maria", 0.99, 50), ("Elena", 0.98, 28), ("Sofia", 0.99, 24),
    ("Claudia", 0.98, 22), ("Monica", 0.98, 21), ("Isabel", 0.99, 20),
    ("Ingrid", 0.99, 14), ("Ursula", 0.99, 12), ("Petra", 0.98, 15),
    ("Sabine", 0.99, 13), ("Nathalie", 0.99, 16), ("Camille", 0.80, 14),
    ("Chiara", 0.99, 11), ("Francesca", 0.99, 12), ("Olga", 0.99, 13),
    ("Natalia", 0.99, 12), ("Katja", 0.99, 10), ("Heidi", 0.98, 9),
    ("Astrid", 0.99, 8), ("Birgit", 0.99, 9),
    # ambiguous / unisex — genderize should be unconfident here
    ("Taylor", 0.55, 12), ("Jordan", 0.35, 14), ("Casey", 0.55, 10),
    ("Morgan", 0.60, 11), ("Riley", 0.55, 8), ("Alex", 0.25, 22),
    ("Sam", 0.30, 18), ("Chris", 0.15, 26), ("Pat", 0.45, 9),
    ("Robin", 0.55, 12), ("Leslie", 0.65, 10), ("Dana", 0.65, 9),
    ("Kim", 0.70, 13), ("Jamie", 0.55, 11), ("Andrea", 0.75, 20),
]

_EAST_ASIAN_FORENAMES: list[tuple[str, float, int]] = [
    # Romanized Chinese given names: many are genuinely ambiguous.
    ("Wei", 0.35, 60), ("Jun", 0.30, 45), ("Ming", 0.20, 40),
    ("Li", 0.45, 55), ("Yan", 0.55, 48), ("Jing", 0.70, 44),
    ("Xin", 0.45, 42), ("Yu", 0.40, 50), ("Hao", 0.10, 46),
    ("Lei", 0.25, 43), ("Qiang", 0.03, 30), ("Hui", 0.55, 38),
    ("Xiao", 0.45, 36), ("Ying", 0.75, 34), ("Fang", 0.65, 28),
    ("Tao", 0.05, 35), ("Feng", 0.15, 32), ("Peng", 0.04, 33),
    ("Chen", 0.30, 31), ("Cheng", 0.10, 29), ("Dong", 0.08, 27),
    ("Gang", 0.02, 24), ("Hong", 0.60, 26), ("Juan", 0.70, 22),
    ("Na", 0.90, 18), ("Ting", 0.80, 20), ("Mei", 0.92, 17),
    ("Lin", 0.50, 30), ("Yang", 0.25, 41), ("Zhen", 0.25, 21),
    ("Zhi", 0.15, 23), ("Kai", 0.08, 28), ("Bo", 0.12, 26),
    # Japanese given names: more strongly gendered when romanized.
    ("Hiroshi", 0.01, 22), ("Takashi", 0.01, 20), ("Kenji", 0.01, 19),
    ("Taro", 0.01, 14), ("Satoshi", 0.01, 18), ("Yuki", 0.50, 16),
    ("Akira", 0.06, 17), ("Kazuo", 0.01, 12), ("Makoto", 0.10, 13),
    ("Yoko", 0.98, 8), ("Keiko", 0.99, 7), ("Yumiko", 0.99, 6),
    ("Haruka", 0.85, 7), ("Kaori", 0.98, 6),
    # Korean romanizations.
    ("Min", 0.40, 18), ("Ji", 0.55, 16), ("Seung", 0.15, 15),
    ("Hyun", 0.35, 14), ("Sung", 0.10, 15), ("Young", 0.35, 13),
    ("Eun", 0.80, 10), ("Soo", 0.50, 11), ("Jae", 0.15, 12),
]

_SOUTH_ASIAN_FORENAMES: list[tuple[str, float, int]] = [
    ("Amit", 0.01, 30), ("Rahul", 0.01, 28), ("Sanjay", 0.01, 24),
    ("Vijay", 0.01, 22), ("Rajesh", 0.01, 23), ("Suresh", 0.01, 20),
    ("Anil", 0.01, 19), ("Ravi", 0.01, 25), ("Arun", 0.01, 21),
    ("Krishna", 0.10, 18), ("Ashok", 0.01, 15), ("Prakash", 0.01, 16),
    ("Ramesh", 0.01, 17), ("Vinod", 0.01, 13), ("Deepak", 0.01, 18),
    ("Manish", 0.01, 14), ("Nitin", 0.01, 12), ("Sandeep", 0.02, 15),
    ("Pradeep", 0.01, 13), ("Sunil", 0.01, 14),
    ("Priya", 0.99, 12), ("Anjali", 0.99, 9), ("Kavita", 0.99, 8),
    ("Sunita", 0.99, 7), ("Deepa", 0.98, 8), ("Lakshmi", 0.95, 9),
    ("Meena", 0.98, 6), ("Pooja", 0.99, 8), ("Shalini", 0.99, 6),
    ("Divya", 0.98, 7), ("Ananya", 0.98, 5), ("Sneha", 0.99, 5),
    # ambiguous
    ("Kiran", 0.45, 10), ("Jyoti", 0.75, 7), ("Shashi", 0.40, 6),
    ("Suman", 0.55, 7),
]

_MIDDLE_EASTERN_FORENAMES: list[tuple[str, float, int]] = [
    ("Mohammed", 0.00, 28), ("Ahmed", 0.00, 26), ("Ali", 0.02, 24),
    ("Hassan", 0.01, 18), ("Omar", 0.01, 17), ("Khaled", 0.01, 14),
    ("Mustafa", 0.01, 13), ("Ibrahim", 0.01, 15), ("Youssef", 0.01, 12),
    ("Mehmet", 0.01, 16), ("Murat", 0.01, 12), ("Emre", 0.01, 11),
    ("Fatima", 0.99, 10), ("Aisha", 0.99, 8), ("Leila", 0.99, 7),
    ("Zeynep", 0.99, 8), ("Elif", 0.99, 7), ("Yasmin", 0.99, 6),
    ("Noor", 0.75, 6), ("Reem", 0.95, 5), ("Sara", 0.97, 12),
]

# Surnames per cluster (weights uniform enough not to matter).
_WESTERN_SURNAMES = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Miller", "Davis",
    "Garcia", "Rodriguez", "Martinez", "Anderson", "Taylor", "Thomas",
    "Moore", "Martin", "Thompson", "White", "Lopez", "Clark", "Lewis",
    "Walker", "Hall", "Young", "King", "Wright", "Scott", "Green",
    "Baker", "Adams", "Nelson", "Hill", "Campbell", "Mitchell", "Roberts",
    "Carter", "Phillips", "Evans", "Turner", "Parker", "Collins",
    "Müller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer",
    "Wagner", "Becker", "Hoffmann", "Schulz", "Keller", "Huber",
    "Dubois", "Bernard", "Robert", "Richard", "Petit", "Durand", "Leroy",
    "Moreau", "Fournier", "Girard", "Rossi", "Russo", "Ferrari",
    "Esposito", "Bianchi", "Romano", "Ricci", "Fernandez", "Gonzalez",
    "Sanchez", "Perez", "Gomez", "Diaz", "Alvarez", "Jansen", "de Vries",
    "van der Berg", "Bakker", "Visser", "Andersson", "Johansson",
    "Karlsson", "Nilsson", "Hansen", "Larsen", "Olsen", "Kowalski",
    "Nowak", "Wisniewski", "Ivanov", "Petrov", "Novak", "Horvath",
]

_EAST_ASIAN_SURNAMES = [
    "Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao",
    "Wu", "Zhou", "Xu", "Sun", "Ma", "Zhu", "Hu", "Guo", "He", "Gao",
    "Lin", "Luo", "Zheng", "Liang", "Xie", "Tang", "Han", "Cao", "Deng",
    "Feng", "Zeng", "Peng",
    "Sato", "Suzuki", "Takahashi", "Tanaka", "Watanabe", "Ito",
    "Yamamoto", "Nakamura", "Kobayashi", "Kato", "Yoshida", "Yamada",
    "Sasaki", "Matsumoto", "Inoue",
    "Kim", "Lee", "Park", "Choi", "Jung", "Kang", "Cho", "Yoon",
    "Jang", "Lim",
]

_SOUTH_ASIAN_SURNAMES = [
    "Kumar", "Sharma", "Singh", "Patel", "Gupta", "Reddy", "Rao",
    "Iyer", "Nair", "Menon", "Agarwal", "Joshi", "Mehta", "Shah",
    "Verma", "Mishra", "Chauhan", "Desai", "Bose", "Chatterjee",
    "Mukherjee", "Banerjee", "Das", "Ghosh", "Pillai", "Srinivasan",
    "Krishnan", "Subramanian", "Venkatesan", "Ranganathan",
]

_MIDDLE_EASTERN_SURNAMES = [
    "Al-Ahmad", "Hassan", "Hussein", "Khan", "Rahman", "Karim",
    "Demir", "Yilmaz", "Kaya", "Celik", "Sahin", "Ozturk",
    "Cohen", "Levi", "Mizrahi", "Peretz", "Friedman", "Katz",
    "Abdullah", "Saleh", "Nasser", "Haddad",
]

CLUSTERS: dict[str, dict[str, list]] = {
    "western": {"forenames": _WESTERN_FORENAMES, "surnames": _WESTERN_SURNAMES},
    "east_asian": {"forenames": _EAST_ASIAN_FORENAMES, "surnames": _EAST_ASIAN_SURNAMES},
    "south_asian": {"forenames": _SOUTH_ASIAN_FORENAMES, "surnames": _SOUTH_ASIAN_SURNAMES},
    "middle_eastern": {"forenames": _MIDDLE_EASTERN_FORENAMES, "surnames": _MIDDLE_EASTERN_SURNAMES},
}

FORENAMES = {k: v["forenames"] for k, v in CLUSTERS.items()}
SURNAMES = {k: v["surnames"] for k, v in CLUSTERS.items()}

_CLUSTER_BY_SUBREGION: dict[str, str] = {
    "Northern America": "western",
    "Western Europe": "western",
    "Southern Europe": "western",
    "Northern Europe": "western",
    "Eastern Europe": "western",
    "South America": "western",
    "Central America": "western",
    "Australia and New Zealand": "western",
    "Eastern Asia": "east_asian",
    "Southern Asia": "south_asian",
    "South-Eastern Asia": "east_asian",
    "Western Asia": "middle_eastern",
    "Central Asia": "middle_eastern",
    "Northern Africa": "middle_eastern",
    "Western Africa": "western",
    "Southern Africa": "western",
    "Eastern Africa": "western",
}


@functools.lru_cache(maxsize=1024)
def cluster_for_country(cca2: str) -> str:
    """Name cluster for a country code (default: 'western').

    The mapping is by writing culture: US/EU/Oceania/Latin America share
    the western corpus, East/Southeast Asia the romanized-CJK corpus, etc.
    Memoized: it is pure and looked up once per generated person.
    """
    from repro.geo.regions import region_of_country

    sub = region_of_country(cca2)
    if sub is None:
        return "western"
    return _CLUSTER_BY_SUBREGION.get(sub, "western")
