"""A deterministic, dependency-free tokenizer.

Real RAG stacks meter everything in tokens: chunk sizes, KV-cache
footprints, prefill latency, API dollar cost. We use a simple
word-piece-ish scheme — split on whitespace and punctuation, then break
long alphanumeric runs into 4-character pieces — which lands close to
the ~0.75 words/token ratio of BPE tokenizers while being exactly
reproducible and fast.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["SimTokenizer"]

_SPLIT_RE = re.compile(r"[A-Za-z0-9']+|[^A-Za-z0-9'\s]")
_PIECE_LEN = 4
_MAX_WHOLE_WORD = 6


class SimTokenizer:
    """Deterministic tokenizer used by every component of the simulator.

    The class is stateless; all methods are safe to share across
    threads.  ``count()`` is cached because the simulator counts the
    same chunk texts many times (memory estimation, prefill sizing,
    cost accounting); ``tokenize()`` caches the pieces of each long
    word because a corpus repeats a small vocabulary.
    """

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into a list of token strings.

        Words of up to 6 characters are single tokens; longer words are
        split into 4-character pieces, mimicking sub-word tokenizers.

        >>> SimTokenizer().tokenize("Kimbrough Arena, 2024")
        ['kimb', 'roug', 'h', 'arena', ',', '2024']
        """
        tokens: list[str] = []
        for word in _SPLIT_RE.findall(text.lower()):
            if len(word) <= _MAX_WHOLE_WORD:
                tokens.append(word)
            else:
                tokens.extend(_word_pieces(word))
        return tokens

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (cached)."""
        return _cached_count(text)

    def truncate(self, text: str, max_tokens: int) -> str:
        """Return a prefix of ``text`` containing at most ``max_tokens``.

        Used by the synthesis planners to clip over-long chunk text to a
        model's context window.
        """
        if max_tokens <= 0:
            return ""
        if self.count(text) <= max_tokens:
            return text
        words = text.split()
        # Binary search the longest word-prefix within budget.
        lo, hi = 0, len(words)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.count(" ".join(words[:mid])) <= max_tokens:
                lo = mid
            else:
                hi = mid - 1
        return " ".join(words[:lo])


@lru_cache(maxsize=65536)
def _word_pieces(word: str) -> tuple[str, ...]:
    return tuple(word[i : i + _PIECE_LEN]
                 for i in range(0, len(word), _PIECE_LEN))


@lru_cache(maxsize=65536)
def _cached_count(text: str) -> int:
    count = 0
    for word in _SPLIT_RE.findall(text.lower()):
        if len(word) <= _MAX_WHOLE_WORD:
            count += 1
        else:
            count += -(-len(word) // _PIECE_LEN)
    return count
