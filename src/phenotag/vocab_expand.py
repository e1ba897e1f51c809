"""Out-of-vocabulary candidate mining, slot-based vocabulary expansion, and
coverage analysis of annotated tokens.

Expansion never appends: new words overwrite "[unusedN]" placeholder slots in
id order, so vocabulary size (and any embedding matrix shaped by it) stays
constant. Two expansion routes exist: ranked by corpus frequency, or from a
curated wordlist.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .atomic import read_lines
from .corpus import Document, EntityLabel, LABELS
from .errors import CapacityError, ConfigurationError, ValidationError
from .tokenizer import MAX_PLACEHOLDER_SLOTS, Vocabulary, basic_tokenize

logger = logging.getLogger(__name__)


# Mined words shorter than this, or with no letter (numerals such as "1.0"),
# are never candidates.
_MIN_LEN = 2


def extract_candidates(
    corpus: Sequence[Document], vocab: Vocabulary, min_count: int = 5
) -> list[str]:
    """Mine expansion candidates from corpus text.

    Words come from the basic tokenizer (lowercased) and are dropped if they
    are whole-word vocabulary members, occur fewer than ``min_count`` times,
    are shorter than two characters or have no letter. The rest are ranked by
    frequency descending with lexicographic tie-breaks.
    """
    if min_count < 1:
        raise ConfigurationError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for doc in corpus:
        for word, _, _ in basic_tokenize(doc.text):
            counts[word] += 1
    kept = [
        (word, count)
        for word, count in counts.items()
        if word not in vocab
        and count >= min_count
        and len(word) >= _MIN_LEN
        and any(c.isalpha() for c in word)
    ]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    return [word for word, _ in kept]


def _fill_slots(vocab: Vocabulary, words: Sequence[str]) -> Vocabulary:
    slots = vocab.placeholder_ids
    if len(words) > len(slots):
        raise CapacityError(
            f"{len(words)} new words exceed the {len(slots)} free placeholder "
            f"slots (the vocabulary permits at most {MAX_PLACEHOLDER_SLOTS})"
        )
    tokens = list(vocab.tokens)
    rewritten = []
    for slot_id, word in zip(slots, words):
        tokens[slot_id] = word
        rewritten.append(slot_id)
    return Vocabulary(tuple(tokens), rewritten_ids=tuple(rewritten))


def expand_frequency(vocab: Vocabulary, candidates: Sequence[str], k: int) -> Vocabulary:
    """Overwrite placeholder slots with the first k of the ranked candidate words.

    Raises CapacityError when k exceeds the free placeholder budget. When the
    candidate list is shorter than k, all candidates are used.
    """
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    if k > len(vocab.placeholder_ids):
        raise CapacityError(
            f"requested {k} new words but only {len(vocab.placeholder_ids)} "
            f"placeholder slots are free (the vocabulary permits at most "
            f"{MAX_PLACEHOLDER_SLOTS})"
        )
    words = candidates[:k]
    if len(words) < k:
        logger.info(
            "only %d candidates available for k=%d; using all", len(words), k
        )
    for word in words:
        if word in vocab:
            raise ValidationError(
                f"candidate {word!r} is already a vocabulary member"
            )
    return _fill_slots(vocab, words)


def expand_curated(vocab: Vocabulary, wordlist: Sequence[str]) -> Vocabulary:
    """Overwrite placeholder slots with a curated wordlist.

    Words already in the vocabulary are skipped with a notice, and so are
    words that basic_tokenize splits (such as "heart failure" or "o'brien"):
    tokenization never looks such a word up whole, so its slot would be dead.
    The remaining novel words must fit the placeholder budget.
    """
    normalized: dict[str, None] = {}
    rejected: dict[str, None] = {}
    for raw in wordlist:
        word = raw.strip().lower()
        if not word:
            continue
        if basic_tokenize(word) == [(word, 0, len(word))]:
            normalized.setdefault(word)
        else:
            rejected.setdefault(word)
    if rejected:
        logger.info(
            "%d curated words are not single words after basic tokenization; "
            "rejected: %s", len(rejected), ", ".join(map(repr, rejected)),
        )
    novel: list[str] = []
    for word in normalized:
        if word in vocab:
            logger.info("curated word %r already in vocabulary; skipped", word)
        else:
            novel.append(word)
    return _fill_slots(vocab, novel)


def load_wordlist(path: str | Path) -> list[str]:
    """Read a wordlist file: one word per line, '#' comment lines ignored.

    Raises:
        ParseError: on a byte that is not UTF-8, naming the line.
    """
    words: list[str] = []
    for _, raw in read_lines(path):
        line = raw.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return words


def default_curated_words() -> list[str]:
    """The curated domain wordlist shipped with the package."""
    with resources.as_file(resources.files("phenotag") / "data/curated_words.txt") as path:
        return load_wordlist(path)


@dataclass(frozen=True)
class LabelCoverage:
    unique_tokens: int
    covered: int

    @property
    def pct(self) -> float:
        if self.unique_tokens == 0:
            return 0.0
        return round(100.0 * self.covered / self.unique_tokens, 1)


@dataclass(frozen=True)
class CoverageReport:
    """Whole-word vocabulary coverage of unique annotated tokens per label."""

    per_label: dict[EntityLabel, LabelCoverage]
    total: LabelCoverage


def coverage(vocab: Vocabulary, corpus: Sequence[Document]) -> CoverageReport:
    """Count unique word-level tokens inside gold spans and their coverage.

    A token is covered when it is a whole-word vocabulary member. The totals
    row deduplicates tokens across labels.
    """
    token_sets: dict[EntityLabel, set[str]] = {label: set() for label in LABELS}
    for doc in corpus:
        for span in doc.entities:
            for word, _, _ in basic_tokenize(doc.span_text(span)):
                token_sets[span.label].add(word)
    per_label = {
        label: LabelCoverage(
            len(tokens), sum(1 for t in tokens if t in vocab)
        )
        for label, tokens in token_sets.items()
    }
    union: set[str] = set().union(*token_sets.values()) if token_sets else set()
    total = LabelCoverage(len(union), sum(1 for t in union if t in vocab))
    return CoverageReport(per_label, total)


def format_coverage_table(reports: Mapping[str, CoverageReport]) -> str:
    """Delimited table: one row per label plus totals, one column per vocabulary."""
    names = list(reports)
    if not names:
        raise ValidationError("no coverage reports to format")
    # All reports are expected to come from the same corpus; the unique-token
    # column is read from the first one.
    first = reports[names[0]]
    header = ["entity_type", "unique_tokens"] + [f"covered_{n}" for n in names]
    lines = ["\t".join(header)]
    for label in LABELS:
        row = [label.value, str(first.per_label[label].unique_tokens)]
        for n in names:
            c = reports[n].per_label[label]
            row.append(f"{c.covered} ({c.pct}%)")
        lines.append("\t".join(row))
    total_row = ["Total", str(first.total.unique_tokens)]
    for n in names:
        c = reports[n].total
        total_row.append(f"{c.covered} ({c.pct}%)")
    lines.append("\t".join(total_row))
    return "\n".join(lines) + "\n"
