"""Static periodic-table data: symbols, plot categories, electronegativity proxy.

Z runs 1..118 throughout the package; arrays indexed by Z-1.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError

MAX_Z = 118

SYMBOLS = [
    "H", "He",
    "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar",
    "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr",
    "Rb", "Sr", "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd",
    "In", "Sn", "Sb", "Te", "I", "Xe",
    "Cs", "Ba",
    "La", "Ce", "Pr", "Nd", "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er",
    "Tm", "Yb", "Lu",
    "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn",
    "Fr", "Ra",
    "Ac", "Th", "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr",
    "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds", "Rg", "Cn",
    "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
]
assert len(SYMBOLS) == MAX_Z

_Z_BY_SYMBOL = {s.lower(): z for z, s in enumerate(SYMBOLS, start=1)}


def symbol_to_z(symbol: str) -> int:
    """Map an element symbol to its atomic number, case-insensitively.

    Accepts site labels like "Na1" or "fe_2": the longest leading alphabetic
    prefix that names an element wins (two letters tried before one).
    """
    s = symbol.strip()
    alpha = ""
    for ch in s:
        if ch.isalpha():
            alpha += ch
        else:
            break
    for cand in (alpha[:2], alpha[:1]):
        z = _Z_BY_SYMBOL.get(cand.lower())
        if z is not None:
            return z
    raise ParseError(f"unknown element symbol: {symbol!r}")


def z_to_symbol(z: int) -> str:
    if not 1 <= z <= MAX_Z:
        raise ValidationError(f"atomic number out of range: {z}")
    return SYMBOLS[z - 1]


# Chemical families, used only to color 2-D projections of the embedding table.
_CATEGORY_SETS = {
    "alkali metal": {3, 11, 19, 37, 55, 87},
    "alkaline earth metal": {4, 12, 20, 38, 56, 88},
    "lanthanide": set(range(57, 72)),
    "actinide": set(range(89, 104)),
    "transition metal": set(range(21, 31)) | set(range(39, 49))
    | set(range(72, 81)) | set(range(104, 113)),
    "post-transition metal": {13, 31, 49, 50, 81, 82, 83, 84, 113, 114, 115, 116},
    "metalloid": {5, 14, 32, 33, 51, 52, 85},
    "reactive nonmetal": {1, 6, 7, 8, 9, 15, 16, 17, 34, 35, 53},
    "noble gas": {2, 10, 18, 36, 54, 86, 118},
}


def category_of(z: int) -> str:
    for name, members in _CATEGORY_SETS.items():
        if z in members:
            return name
    return "unknown"


# Pauling electronegativities where tabulated; None for elements without an
# accepted value. Drives the synthetic labeled benchmark, nothing physical
# downstream depends on the exact numbers.
ELECTRONEGATIVITY = {
    1: 2.20, 3: 0.98, 4: 1.57, 5: 2.04, 6: 2.55, 7: 3.04, 8: 3.44, 9: 3.98,
    11: 0.93, 12: 1.31, 13: 1.61, 14: 1.90, 15: 2.19, 16: 2.58, 17: 3.16,
    19: 0.82, 20: 1.00, 21: 1.36, 22: 1.54, 23: 1.63, 24: 1.66, 25: 1.55,
    26: 1.83, 27: 1.88, 28: 1.91, 29: 1.90, 30: 1.65, 31: 1.81, 32: 2.01,
    33: 2.18, 34: 2.55, 35: 2.96, 36: 3.00,
    37: 0.82, 38: 0.95, 39: 1.22, 40: 1.33, 41: 1.60, 42: 2.16, 43: 1.90,
    44: 2.20, 45: 2.28, 46: 2.20, 47: 1.93, 48: 1.69, 49: 1.78, 50: 1.96,
    51: 2.05, 52: 2.10, 53: 2.66, 54: 2.60,
    55: 0.79, 56: 0.89, 57: 1.10, 58: 1.12, 59: 1.13, 60: 1.14, 62: 1.17,
    64: 1.20, 66: 1.22, 67: 1.23, 68: 1.24, 69: 1.25, 71: 1.27,
    72: 1.30, 73: 1.50, 74: 2.36, 75: 1.90, 76: 2.20, 77: 2.20, 78: 2.28,
    79: 2.54, 80: 2.00, 81: 1.62, 82: 2.33, 83: 2.02, 84: 2.00, 85: 2.20,
    87: 0.70, 88: 0.90, 89: 1.10, 90: 1.30, 91: 1.50, 92: 1.38, 93: 1.36,
    94: 1.28,
}


def electronegativity(z: int) -> float:
    """Proxy property value for element Z; raises KeyError if untabulated."""
    return ELECTRONEGATIVITY[z]
