import random
import unicodedata

import pytest

from oracles import enumerate_minimal_scripts, ref_edit_distance
from phonoscribe.ipa import (
    BY_SYMBOL,
    INVENTORY,
    Delete,
    Insert,
    Match,
    Substitute,
    UnknownSymbolError,
    align,
    levenshtein,
    render_ipa,
    tokenize_ipa,
)


def seq(text):
    return tokenize_ipa(text)


class TestInventory:
    def test_has_37_phonemes_with_dense_ids(self):
        assert len(INVENTORY) == 37
        assert [p.id for p in INVENTORY] == list(range(37))
        assert len({p.symbol for p in INVENTORY}) == 37

    def test_symbols_are_nfc(self):
        for p in INVENTORY:
            assert unicodedata.normalize("NFC", p.symbol) == p.symbol

    def test_nasals_are_base_plus_tilde(self):
        for symbol in ("ɛ̃", "ɑ̃", "ɔ̃", "œ̃"):
            assert symbol in BY_SYMBOL
            assert len(symbol) == 2
            assert symbol[1] == "̃"

    def test_symbol_id_round_trip(self):
        for p in INVENTORY:
            assert INVENTORY[BY_SYMBOL[p.symbol].id] is p


class TestTokenize:
    def test_bonjour(self):
        assert [p.symbol for p in seq("bɔ̃ʒuʁ")] == ["b", "ɔ̃", "ʒ", "u", "ʁ"]

    def test_empty(self):
        assert seq("") == []

    def test_dot_stripped(self):
        assert render_ipa(seq("a.bɛ")) == "abɛ"

    def test_all_optional_symbols_stripped(self):
        decorated = "ˈa.b‿ɛː t͡s (w)-u e"
        assert render_ipa(seq(decorated)) == "abɛtswue"

    def test_space_variants_stripped(self):
        assert render_ipa(seq("a b ɛ o")) == "abɛo"

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as err:
            seq("bra")
        assert err.value.codepoint == "r"
        assert err.value.position == 1

    def test_nasal_wins_over_oral_vowel(self):
        assert [p.symbol for p in seq("ɛ̃")] == ["ɛ̃"]

    def test_tilde_on_non_nasalizable_vowel_rejected(self):
        with pytest.raises(UnknownSymbolError) as err:
            seq("ĩ")
        assert err.value.codepoint == "̃"

    def test_nfd_input_accepted(self):
        composed = "ɔ" + "̃"
        assert seq(unicodedata.normalize("NFD", composed)) == seq(composed)


class TestRender:
    def test_bonjour(self):
        assert render_ipa(seq("bɔ̃ʒuʁ")) == "bɔ̃ʒuʁ"

    def test_empty(self):
        assert render_ipa([]) == ""

    def test_round_trip_random_sequences(self):
        rng = random.Random(13)
        for _ in range(1000):
            s = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(20))]
            assert tokenize_ipa(render_ipa(s)) == s

    def test_tokenize_idempotent_on_stripped_text(self):
        texts = ["ˈbɔ̃.ʒuʁ", "a‿bɛ", "fused͡z", "(wi)"]
        for text in texts:
            once = tokenize_ipa(text)
            assert tokenize_ipa(render_ipa(once)) == once


class TestLevenshtein:
    def test_highest_distance_fixture(self):
        # Outlier pair from the corpus audit: 3-phoneme target vs a
        # 13-phoneme prediction; the nasals make this 13 in codepoints.
        assert levenshtein(seq("lit"), seq("mitasɑ̃tʁɑ̃mzɔt")) == 13

    def test_identical_is_zero(self):
        s = seq("bɔ̃ʒuʁ")
        assert levenshtein(s, s) == 0

    def test_single_deletion(self):
        assert levenshtein(seq("abɛ"), seq("aɛ")) == 1

    def test_matches_recursive_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            a = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(8))]
            b = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(8))]
            want = ref_edit_distance(render_ipa(a), render_ipa(b))
            assert levenshtein(a, b) == want

    def test_metric_axioms(self):
        rng = random.Random(7)

        def rand_seq():
            return [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(10))]

        for _ in range(300):
            a, b, c = rand_seq(), rand_seq(), rand_seq()
            dab = levenshtein(a, b)
            assert dab >= 0
            assert dab == levenshtein(b, a)
            assert (dab == 0) == (a == b)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)


class TestAlign:
    def test_all_match(self):
        ops = align(seq("ab"), seq("ab"))
        assert all(isinstance(op, Match) for op in ops)
        assert len(ops) == 2

    def test_forced_substitution(self):
        ops = align(seq("o"), seq("ɔ"))
        assert ops == [Substitute(BY_SYMBOL["o"], BY_SYMBOL["ɔ"])]

    def test_minimal_script_for_deletion_pair(self):
        ops = align(seq("abɛ"), seq("aɛ"))
        assert [type(op) for op in ops] == [Match, Delete, Match]
        # this pair has a unique minimal script and align found it
        minimal = enumerate_minimal_scripts("abɛ", "aɛ")
        assert minimal == [
            (("match", "a", "a"), ("delete", "b", None), ("match", "ɛ", "ɛ"))
        ]

    def test_tie_break_prefers_substitute_over_indels(self):
        # ("ab", "ba") admits several minimal scripts; the traceback
        # preference picks the all-substitution one.
        minimal = enumerate_minimal_scripts("ab", "ba")
        assert len(minimal) > 1
        ops = align(seq("ab"), seq("ba"))
        assert ops == [
            Substitute(BY_SYMBOL["a"], BY_SYMBOL["b"]),
            Substitute(BY_SYMBOL["b"], BY_SYMBOL["a"]),
        ]

    def test_replay_reconstructs_both_sides(self):
        rng = random.Random(3)
        for _ in range(200):
            a = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(12))]
            b = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(12))]
            ops = align(a, b)
            target_side = [op.target for op in ops
                           if isinstance(op, (Match, Substitute, Delete))]
            predicted_side = [op.predicted for op in ops
                              if isinstance(op, (Match, Substitute, Insert))]
            assert target_side == a
            assert predicted_side == b

    def test_cost_matches_phoneme_level_distance(self):
        rng = random.Random(4)
        for _ in range(200):
            a = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(19))]
            b = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(19))]
            cost = sum(not isinstance(op, Match) for op in align(a, b))
            assert cost == ref_edit_distance(a, b)

    def test_match_sub_delete_cover_target(self):
        rng = random.Random(5)
        for _ in range(100):
            a = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(19))]
            b = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(19))]
            ops = align(a, b)
            covered = sum(isinstance(op, (Match, Substitute, Delete)) for op in ops)
            assert covered == len(a)
