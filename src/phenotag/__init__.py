"""phenotag: clinical phenotype NER toolkit.

Subword tokenization with domain-vocabulary expansion, a small trainable
encoder (masked-LM pre-training and token-classification fine-tuning), and
entity-level strict/lenient evaluation on a synthetic annotated corpus.
"""

from .basevocab import default_vocabulary
from .corpus import (
    Document,
    EntityLabel,
    EntitySpan,
    LABELS,
    cohen_kappa,
    corpus_stats,
    decode_bio,
    encode_bio,
    load_corpus,
    save_corpus,
    split_corpus,
    split_sentences,
)
from .synthesis import generate_synthetic
from .tokenizer import (
    TokenizedText,
    Vocabulary,
    basic_tokenize,
    load_vocab,
    save_vocab,
    tokenize,
    wordpiece,
)
from .vocab_expand import (
    CoverageReport,
    coverage,
    default_curated_words,
    expand_curated,
    expand_frequency,
    extract_candidates,
    load_wordlist,
)
from .evaluation import (
    ErrorBreakdown,
    MatchReport,
    RunAggregate,
    aggregate_runs,
    aggregate_values,
    categorize_errors,
    match_spans,
    score,
)
from .tsne import joint_probabilities, tsne

__version__ = "0.1.0"
