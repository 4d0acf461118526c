"""French phoneme inventory, IPA tokenization and edit-distance analytics.

The inventory covers the 37 phonemes of standard French. Nasal vowels are
stored as base vowel + combining tilde (U+0303); none of them has a
precomposed Unicode form, so NFC and NFD agree on every symbol.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

_TILDE = "̃"  # combining tilde

_SYMBOLS = (
    "i",
    "e",
    "ɛ",           # ɛ
    "a",
    "ɑ",           # ɑ
    "ɔ",           # ɔ
    "o",
    "u",
    "y",
    "ø",           # ø
    "œ",           # œ
    "ə",           # ə
    "ɛ" + _TILDE,  # ɛ̃
    "ɑ" + _TILDE,  # ɑ̃
    "ɔ" + _TILDE,  # ɔ̃
    "œ" + _TILDE,  # œ̃
    "j",
    "w",
    "ɥ",           # ɥ
    "p",
    "k",
    "t",
    "b",
    "d",
    "g",
    "f",
    "s",
    "ʃ",           # ʃ
    "v",
    "z",
    "ʒ",           # ʒ
    "l",
    "ʁ",           # ʁ
    "m",
    "n",
    "ɲ",           # ɲ
    "ŋ",           # ŋ
)

# Optional notation that carries no phonemic content and is dropped before
# matching: tie bar, syllable dot, spaces (incl. NBSP/thin/narrow), undertie,
# primary stress, length mark, parentheses, hyphen.
STRIPPED = frozenset(
    {
        "͡",  # combining double inverted breve (tie bar)
        ".",
        " ",
        " ",
        " ",
        " ",
        "‿",  # undertie
        "ˈ",  # primary stress
        "ː",  # length mark
        "(",
        ")",
        "-",
    }
)


@dataclass(frozen=True)
class Phoneme:
    """One inventory entry; ``id`` is the dense class index used by models."""

    id: int
    symbol: str


INVENTORY: tuple[Phoneme, ...] = tuple(
    Phoneme(i, s) for i, s in enumerate(_SYMBOLS)
)

BY_SYMBOL: dict[str, Phoneme] = {p.symbol: p for p in INVENTORY}

PhonemeSeq = list[Phoneme]


class UnknownSymbolError(ValueError):
    """A codepoint in the input matches no inventory symbol."""

    def __init__(self, position: int, codepoint: str):
        self.position = position
        self.codepoint = codepoint
        super().__init__(
            f"unknown symbol {codepoint!r} (U+{ord(codepoint):04X}) "
            f"at position {position}"
        )


def tokenize_ipa(text: str) -> PhonemeSeq:
    """Parse an IPA string into inventory phonemes.

    The input is NFD-normalized, optional symbols are stripped, and the
    remainder is matched greedily longest-first, so a vowel followed by a
    combining tilde becomes the nasal phoneme rather than the oral vowel.

    Raises UnknownSymbolError for any leftover codepoint; ``position`` refers
    to the normalized input.
    """
    normalized = unicodedata.normalize("NFD", text)
    kept = [(ch, pos) for pos, ch in enumerate(normalized) if ch not in STRIPPED]

    out: PhonemeSeq = []
    i = 0
    while i < len(kept):
        ch, pos = kept[i]
        if i + 1 < len(kept):
            pair = ch + kept[i + 1][0]
            hit = BY_SYMBOL.get(pair)
            if hit is not None:
                out.append(hit)
                i += 2
                continue
        hit = BY_SYMBOL.get(ch)
        if hit is None:
            raise UnknownSymbolError(pos, ch)
        out.append(hit)
        i += 1
    return out


def render_ipa(seq: PhonemeSeq) -> str:
    """Concatenate symbols; inverse of ``tokenize_ipa`` on valid sequences."""
    return "".join(p.symbol for p in seq)


def levenshtein(a: PhonemeSeq, b: PhonemeSeq) -> int:
    """Edit distance between two transcriptions.

    Counted over the Unicode codepoints of the rendered symbols: a nasal
    vowel spans two codepoints, so edits involving one can cost 2. This is
    the distance reported by the corpus audit tables.
    """
    return _edit_table(render_ipa(a), render_ipa(b))[-1][-1]


def _edit_table(a: str | PhonemeSeq, b: str | PhonemeSeq) -> list[list[int]]:
    """Unit-cost edit distances (Wagner-Fischer): row i, column j holds
    the distance between ``a[:i]`` and ``b[:j]``."""
    dist = [list(range(len(b) + 1))]
    for i, x in enumerate(a, 1):
        prev = dist[-1]
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        dist.append(cur)
    return dist


@dataclass(frozen=True)
class Match:
    target: Phoneme
    predicted: Phoneme


@dataclass(frozen=True)
class Substitute:
    target: Phoneme
    predicted: Phoneme


@dataclass(frozen=True)
class Delete:
    target: Phoneme


@dataclass(frozen=True)
class Insert:
    predicted: Phoneme


EditOp = Match | Substitute | Delete | Insert
EditScript = list[EditOp]


def align(target: PhonemeSeq, predicted: PhonemeSeq) -> EditScript:
    """Minimal phoneme-level edit script turning ``target`` into ``predicted``.

    Unit cost per substitution/deletion/insertion (one phoneme = one unit,
    unlike ``levenshtein``). Ties during traceback are broken by preferring
    Match > Substitute > Delete > Insert, which makes the script unique.
    """
    dist = _edit_table(target, predicted)
    ops: EditScript = []
    i, j = len(target), len(predicted)
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and target[i - 1] == predicted[j - 1] \
                and dist[i - 1][j - 1] == here:
            ops.append(Match(target[i - 1], predicted[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i - 1][j - 1] + 1 == here:
            ops.append(Substitute(target[i - 1], predicted[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i - 1][j] + 1 == here:
            ops.append(Delete(target[i - 1]))
            i -= 1
        else:
            ops.append(Insert(predicted[j - 1]))
            j -= 1
    ops.reverse()
    return ops
