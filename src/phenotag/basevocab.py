"""Construction of the default general-purpose base vocabulary.

The shipped vocabulary mimics the structure of a stock uncased subword
vocabulary at toy scale: special tokens, 997 replaceable "[unusedN]" slots,
punctuation, single characters (as both word-initial and continuation
pieces), a few frequent suffix pieces, and a list of common English and
report-boilerplate words. Domain terms such as "her2", "dcis" or "pt4" are
deliberately absent so they exercise the out-of-vocabulary path until a
vocabulary expansion adds them.
"""

from __future__ import annotations

from .tokenizer import MAX_PLACEHOLDER_SLOTS, SPECIAL_TOKENS, Vocabulary

_PUNCTUATION = tuple(".,:;!?()[]{}<>/\\'\"`~@#$%^&*-_=+|")

_DIGITS = tuple("0123456789")
_LETTERS = tuple("abcdefghijklmnopqrstuvwxyz")

_SUFFIX_PIECES = (
    "##s", "##es", "##ed", "##ing", "##er", "##ers", "##est", "##ly",
    "##al", "##ic", "##ive", "##ion", "##ions", "##ment", "##ness",
    "##ous", "##able", "##ity", "##ate", "##ated", "##ism", "##ist",
    "##ant", "##ent", "##age", "##ish", "##y", "##ia", "##um",
)

# Common English plus clinical-report boilerplate; no domain entity terms.
_WORDS = (
    "the", "a", "an", "of", "and", "or", "nor", "but", "is", "was", "were",
    "are", "be", "been", "being", "am", "to", "in", "on", "at", "by", "for",
    "with", "without", "from", "as", "into", "onto", "over", "under", "about",
    "than", "then", "there", "here", "this", "that", "these", "those", "it",
    "its", "he", "she", "his", "her", "they", "them", "their", "we", "our",
    "you", "your", "i", "me", "my", "who", "whom", "whose", "which", "what",
    "when", "where", "why", "how", "not", "no", "yes", "all", "any", "each",
    "every", "some", "none", "both", "few", "many", "much", "more", "most",
    "less", "least", "other", "another", "such", "same", "so", "too", "very",
    "just", "only", "also", "again", "once", "twice", "per", "via", "versus",
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "first", "second", "third", "last", "next", "prior", "previous",
    "new", "old", "young", "early", "late", "recent", "current", "present",
    "absent", "high", "low", "higher", "lower", "large", "small", "larger",
    "smaller", "long", "short", "wide", "narrow", "deep", "shallow", "full",
    "empty", "near", "far", "within", "between", "among", "along", "across",
    "around", "above", "below", "left", "right", "upper", "inner", "outer",
    "top", "bottom", "front", "back", "side", "middle", "center", "central",
    "local", "general", "normal", "abnormal", "stable", "unstable", "mild",
    "moderate", "severe", "strong", "weak", "weakly", "strongly", "clear",
    "unclear", "well", "poorly", "good", "bad", "better", "worse", "best",
    "worst", "positive", "negative", "day", "days", "week", "weeks", "month",
    "months", "year", "years", "time", "times", "date", "today", "yesterday",
    "now", "after", "before", "during", "since", "until", "while", "see",
    "seen", "saw", "show", "shows", "shown", "showed", "find", "found",
    "findings", "note", "noted", "notes", "report", "reports", "reported",
    "record", "records", "recorded", "review", "reviewed", "describe",
    "described", "reveal", "revealed", "identify", "identified", "confirm",
    "confirmed", "suggest", "suggests", "consistent", "compatible", "status",
    "type", "types", "value", "values", "level", "levels", "measure",
    "measures", "measured", "measuring", "measurement", "approximately",
    "estimated", "total", "overall", "partial", "complete", "incomplete",
    "result", "results", "resulted", "test", "tests", "tested", "testing",
    "exam", "examined", "examination", "study", "studies", "image", "imaged",
    "imaging", "scan", "scanned", "history", "physical", "clinic", "clinical",
    "hospital", "patient", "patients", "female", "male", "age", "aged",
    "case", "cases", "visit", "visits", "care", "plan", "planned", "follow",
    "followed", "following", "return", "returned", "discussed", "discussion",
    "performed", "obtained", "received", "submitted", "sent", "taken",
    "given", "placed", "removed", "repeat", "repeated", "procedure", "process",
    "sample", "samples", "sampled", "section", "sections", "slide", "slides",
    "block", "blocks", "stain", "stains", "stained", "cell", "cells",
    "tissue", "tissues", "skin", "muscle", "bone", "blood", "breast", "chest",
    "wall", "node", "nodes", "lymph", "gland", "duct", "ducts", "mass",
    "masses", "lesion", "lesions", "tumor", "tumors", "cancer", "cancers",
    "disease", "diseases", "diagnosis", "diagnosed", "grade", "grades",
    "graded", "stage", "stages", "staged", "score", "scores", "scored",
    "scale", "site", "sites", "location", "located", "position", "positions",
    "region", "regions", "area", "areas", "margin", "margins", "edge",
    "edges", "distance", "length", "width", "depth", "height", "size",
    "sizes", "sized", "volume", "weight", "cm", "mm", "ml", "mg", "percent",
    "ratio", "count", "counts", "number", "numbers", "gene", "genes",
    "receptor", "receptors", "hormone", "hormones", "protein", "marker",
    "markers", "assay", "panel", "profile", "intensity", "pattern",
    "patterns", "feature", "features", "appearance", "evidence", "impression",
    "comment", "comments", "addendum", "final", "preliminary", "gross",
    "grossly", "microscopic", "acute", "chronic", "benign", "malignant",
    "clock", "o", "oriented", "medial", "lateral", "anterior", "posterior",
    "superior", "inferior", "distress", "pain", "tenderness", "swelling",
    "palpable", "palpated", "firm", "soft", "hard", "tender", "corresponds",
    "corresponding", "assigned", "recommend", "recommended", "up",
)


def default_vocabulary() -> Vocabulary:
    """The shipped base vocabulary with a full placeholder budget."""
    tokens: list[str] = list(SPECIAL_TOKENS)
    tokens.extend(_PUNCTUATION)
    tokens.extend(_DIGITS)
    tokens.extend(_LETTERS)
    # "." and "-" are the only characters the basic tokenizer keeps inside a
    # word, so they need continuation pieces too.
    tokens.extend("##" + c for c in _DIGITS + _LETTERS + (".", "-"))
    tokens.extend(_SUFFIX_PIECES)
    tokens.extend(dict.fromkeys(_WORDS))
    tokens.extend(f"[unused{i}]" for i in range(MAX_PLACEHOLDER_SLOTS))
    return Vocabulary(tuple(dict.fromkeys(tokens)))
