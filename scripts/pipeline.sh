#!/usr/bin/env bash
# Full pipeline from an empty directory using shipped defaults, run as the
# dependency graph it is. After pre-training the two vocabularies share no
# data, so each gets its own background branch:
#
#   synth -> build-vocab base -> build-vocab freq -> pretrain -> (branches)
#     side job, alongside pretrain:  stats -> build-vocab curated -> coverage
#     base branch:      finetune -> predict -> evaluate, for every seed
#     expanded branch:  resize -> adapt -> finetune -> predict -> evaluate,
#                       for every seed -> t-SNE coordinates
#   then, once every job has succeeded: aggregate -> error breakdown
#
# The stdout lines of concurrent jobs may interleave; every file is the same,
# byte for byte, as when the commands run one after another. If a job fails
# the script still waits for the others, then exits 1 without printing
# "pipeline complete". On exit, for any reason, it stops every command it
# started that is still running.
#
# Each process gets one BLAS thread unless the caller set the count. This is
# for speed only: the encoder holds numpy's OpenBLAS at one thread itself, so
# the files are the same at any count, but an unpinned OpenBLAS first starts
# a thread per CPU, and importing numpy and the encoder took ~0.15 s longer
# per process. predict and every training step run on one thread pool, on
# the cores that the other jobs leave free, and give the same bytes at any
# pool size.
#
# Usage: scripts/pipeline.sh [OUT_DIR]
# Environment: PHENOTAG_PY (python executable, default python3),
#              PT_DOCS / PT_PRETRAIN_STEPS / PT_ADAPT_STEPS / PT_SEEDS
#              override the corpus size, step counts, and seed list;
#              OPENBLAS_NUM_THREADS / OMP_NUM_THREADS / MKL_NUM_THREADS
#              default to 1.

set -euo pipefail

export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS:-1}"

OUT="${1:-pipeline_out}"
PY="${PHENOTAG_PY:-python3}"
RUN="$PY -m phenotag"

DOCS="${PT_DOCS:-200}"
PRETRAIN_STEPS="${PT_PRETRAIN_STEPS:-1500}"
ADAPT_STEPS="${PT_ADAPT_STEPS:-300}"
SEEDS=(${PT_SEEDS:-0 1 2 3 4})

# Every command runs as a background child that the shell then waits for:
# bash runs a trap at once during `wait`, but only after a foreground child
# has exited, so this is what lets stop_jobs end a job promptly. Background
# commands ignore SIGINT, so on an interrupt the shell that started one
# must stop it: the script and each job trap TERM and INT.
phenotag() { $RUN "$@" & wait $!; }

# Stop this shell's running children and wait for them to end.
stop_jobs() {
    local pids
    pids=$(jobs -pr)
    [ -z "$pids" ] || kill $pids 2>/dev/null || true
    wait
}
trap stop_jobs EXIT
trap 'exit 143' TERM
trap 'exit 130' INT

mkdir -p "$OUT"
TRAIN="$OUT/corpus.train.jsonl"
TEST="$OUT/corpus.test.jsonl"

phenotag synth --seed 1 --docs "$DOCS" --out "$OUT/corpus.jsonl"
phenotag build-vocab --mode base --out "$OUT/vocab_base.txt"
phenotag build-vocab --mode freq --corpus "$TRAIN" --base "$OUT/vocab_base.txt" \
    --out "$OUT/vocab_freq.txt"

side_job() {
    trap 'stop_jobs; exit 143' TERM INT
    phenotag stats --corpus "$OUT/corpus.jsonl" --out "$OUT/stats.tsv"
    phenotag build-vocab --mode curated --base "$OUT/vocab_base.txt" \
        --out "$OUT/vocab_curated.txt"
    phenotag coverage --corpus "$OUT/corpus.jsonl" \
        --vocab "original=$OUT/vocab_base.txt" \
        --vocab "frequency=$OUT/vocab_freq.txt" \
        --vocab "curated=$OUT/vocab_curated.txt" \
        --out "$OUT/coverage.tsv"
}

# finetune_and_score NAME CKPT VOCAB: the per-seed runs of one vocabulary
finetune_and_score() {
    local name=$1 ckpt=$2 vocab=$3 seed
    for seed in "${SEEDS[@]}"; do
        phenotag finetune --ckpt "$ckpt" --corpus "$TRAIN" \
            --vocab "$vocab" --seed "$seed" \
            --out "$OUT/ner_${name}_$seed.ckpt"
        phenotag predict --ckpt "$OUT/ner_${name}_$seed.ckpt" --vocab "$vocab" \
            --corpus "$TEST" --out "$OUT/pred_${name}_$seed.jsonl"
        phenotag evaluate --gold "$TEST" --pred "$OUT/pred_${name}_$seed.jsonl" \
            --out "$OUT/report_${name}_$seed.tsv"
    done
}

base_branch() {
    trap 'stop_jobs; exit 143' TERM INT
    finetune_and_score base "$OUT/model_base.ckpt" "$OUT/vocab_base.txt"
}

expanded_branch() {
    trap 'stop_jobs; exit 143' TERM INT
    phenotag resize --ckpt "$OUT/model_base.ckpt" \
        --old-vocab "$OUT/vocab_base.txt" --new-vocab "$OUT/vocab_freq.txt" \
        --out "$OUT/model_resized.ckpt"
    # let the warm-started rows adapt with a short continued pre-training run
    phenotag pretrain --corpus "$TRAIN" --vocab "$OUT/vocab_freq.txt" \
        --init-from "$OUT/model_resized.ckpt" --steps "$ADAPT_STEPS" --seed 0 \
        --trace "$OUT/adapt_trace.csv" --out "$OUT/model_expanded.ckpt"
    finetune_and_score expanded "$OUT/model_expanded.ckpt" "$OUT/vocab_freq.txt"
    phenotag tsne --ckpt "$OUT/model_expanded.ckpt" --vocab "$OUT/vocab_freq.txt" \
        --corpus "$OUT/corpus.jsonl" --out "$OUT/embedding_coords.csv"
}

side_job & SIDE_PID=$!

phenotag pretrain --corpus "$TRAIN" --vocab "$OUT/vocab_base.txt" \
    --steps "$PRETRAIN_STEPS" --seed 0 \
    --trace "$OUT/pretrain_trace.csv" --out "$OUT/model_base.ckpt"

base_branch & BASE_PID=$!
expanded_branch & EXPANDED_PID=$!

FAILED=""
wait "$SIDE_PID" || FAILED="$FAILED side"
wait "$BASE_PID" || FAILED="$FAILED base"
wait "$EXPANDED_PID" || FAILED="$FAILED expanded"
if [ -n "$FAILED" ]; then
    echo "error: pipeline job(s) failed:$FAILED" >&2
    exit 1
fi

BASE_REPORTS=""
EXP_REPORTS=""
for SEED in "${SEEDS[@]}"; do
    BASE_REPORTS="$BASE_REPORTS,$OUT/report_base_$SEED.json"
    EXP_REPORTS="$EXP_REPORTS,$OUT/report_expanded_$SEED.json"
done

phenotag aggregate \
    --group "base=${BASE_REPORTS#,}" \
    --group "expanded=${EXP_REPORTS#,}" \
    --out "$OUT/results.tsv"

phenotag errors --gold "$TEST" --pred "$OUT/pred_expanded_${SEEDS[0]}.jsonl" \
    --out "$OUT/errors.tsv"

echo "pipeline complete; results in $OUT"
