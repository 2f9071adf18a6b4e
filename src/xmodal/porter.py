"""Porter stemmer, matching the frozen reference implementation.

The suffix-stripping rules follow the published algorithm: words are viewed
as [C](VC)^m[V] and each step rewrites the longest matching suffix whose
condition holds. Three behaviours of the author's frozen reference code are
kept on purpose, since the standard vocabulary/output test list reflects
them rather than the bare paper text:

  * words of length 1 or 2 are returned unchanged,
  * step 2 uses BLI -> BLE in place of ABLI -> ABLE,
  * step 2 gains LOGI -> LOG (measure taken with the l kept on the stem).

Within a step, the first rule whose suffix matches wins; if its condition
fails the step ends without rewriting (no fallthrough to shorter suffixes).
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _contains_vowel(stem):
            return word
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _contains_vowel(stem):
            return word
    else:
        return word
    # ed/ing removed: fix up the exposed stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step2(word: str) -> str:
    for suffix, repl in _STEP2_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    if word.endswith("logi"):
        # measure keeps the l with the stem, so geo/theo words pass
        return word[:-3] + "og" if _measure(word[:-3]) > 0 else word
    return word


def _step3(word: str) -> str:
    for suffix, repl in _STEP3_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem if _measure(stem) > 1 else word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


@lru_cache(maxsize=1 << 16)  # captions repeat a small vocabulary
def stem(word: str) -> str:
    """Stem one lowercase token."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5(word)
    return word
