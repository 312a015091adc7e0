"""Unit tests for the deterministic tokenizer."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm.tokenizer import SimTokenizer

tok = SimTokenizer()


class TestTokenize:
    def test_simple_words(self):
        assert tok.tokenize("the cat sat") == ["the", "cat", "sat"]

    def test_lowercases(self):
        assert tok.tokenize("The CAT") == ["the", "cat"]

    def test_punctuation_is_separate_tokens(self):
        assert tok.tokenize("hello, world!") == ["hello", ",", "world", "!"]

    def test_long_words_split_into_pieces(self):
        pieces = tok.tokenize("extraordinary")
        assert pieces == ["extr", "aord", "inar", "y"]

    def test_six_letter_word_is_single_token(self):
        assert tok.tokenize("stadium") != ["stadium"]  # 7 letters → split
        assert tok.tokenize("stadia") == ["stadia"]  # 6 letters → whole

    def test_numbers_tokenize(self):
        assert tok.tokenize("q1 2024") == ["q1", "2024"]

    def test_empty_string(self):
        assert tok.tokenize("") == []

    def test_whitespace_only(self):
        assert tok.tokenize("  \n\t ") == []


def _tokenize_by_genexpr(text):
    """The per-word generator-expression formulation of ``tokenize``."""
    tokens = []
    for word in re.findall(r"[A-Za-z0-9']+|[^A-Za-z0-9'\s]", text.lower()):
        if len(word) <= 6:
            tokens.append(word)
        else:
            tokens.extend(word[i : i + 4] for i in range(0, len(word), 4))
    return tokens


_WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCXYZ0123456789'"
_words = st.one_of(
    st.text(_WORD_CHARS, min_size=1, max_size=5),
    st.text(_WORD_CHARS, min_size=6, max_size=6),
    st.text(_WORD_CHARS, min_size=7, max_size=7),
    st.text(_WORD_CHARS, min_size=13, max_size=40),
    st.sampled_from([",", ".", "?", "-", "$", "é"]),
)


class TestTokenizeEquivalence:
    @given(st.lists(st.tuples(_words, st.sampled_from([" ", "", "\n", ", "])),
                    max_size=40))
    def test_matches_genexpr_split(self, parts):
        text = "".join(word + sep for word, sep in parts)
        assert tok.tokenize(text) == _tokenize_by_genexpr(text)
        assert tok.count(text) == len(_tokenize_by_genexpr(text))

    def test_matches_genexpr_split_on_a_corpus(self, finsec_bundle):
        for chunk_id in list(finsec_bundle.chunk_facts)[:20]:
            text = finsec_bundle.store.get(chunk_id).text
            assert tok.tokenize(text) == _tokenize_by_genexpr(text)


class TestCount:
    def test_count_matches_tokenize(self):
        text = "Compare NVIDIA's operating cost over the first three quarters."
        assert tok.count(text) == len(tok.tokenize(text))

    @given(st.text(max_size=300))
    def test_count_always_matches_tokenize(self, text):
        assert tok.count(text) == len(tok.tokenize(text))

    def test_count_is_deterministic(self):
        text = "hello world " * 50
        assert tok.count(text) == tok.count(text)


class TestTruncate:
    def test_no_truncation_needed(self):
        assert tok.truncate("one two three", 10) == "one two three"

    def test_truncates_to_budget(self):
        text = "alpha beta gamma delta epsilon"
        out = tok.truncate(text, 3)
        assert tok.count(out) <= 3
        assert text.startswith(out)

    def test_zero_budget_gives_empty(self):
        assert tok.truncate("anything here", 0) == ""

    @given(st.text(alphabet="abcdef ghij", max_size=200),
           st.integers(min_value=1, max_value=30))
    def test_truncate_respects_budget(self, text, budget):
        assert tok.count(tok.truncate(text, budget)) <= budget


@pytest.mark.parametrize("text,expected_min", [
    ("a b c", 3),
    ("punctuation, everywhere!", 3),
])
def test_token_floor(text, expected_min):
    assert tok.count(text) >= expected_min
