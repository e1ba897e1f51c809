"""Guards on the shape of the source tree, read with ``ast``."""

import ast
import sys
from pathlib import Path

import phenotag

PACKAGE = Path(phenotag.__file__).resolve().parent


class _CallSites(ast.NodeVisitor):
    """Records the dotted scope of every call to one function name."""

    def __init__(self, module: str, name: str):
        self.scope = [module]
        self.name = name
        self.found: set[str] = set()

    def visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def call_sites(name: str) -> set[str]:
    found: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        visitor = _CallSites(module, name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    return found


def test_text_becomes_ids_in_one_place():
    # Training, evaluation and prediction all go through encode_corpus; only
    # the tokenize command shows raw pieces.
    assert call_sites("tokenize") == {
        "phenotag.corpus.encode_corpus",
        "phenotag.cli.cmd_tokenize",
    }


def test_one_training_loop():
    # Pre-training and fine-tuning share one loop: the only optimizer, the
    # only update step, and with them the one finite-loss check and trace.
    loop = {"phenotag.encoder.training._train"}
    assert call_sites("Adam") == loop
    assert call_sites("step") == loop


def test_one_thread_pool_and_one_runner():
    # Training and prediction share the process's one pool, and only
    # _run_all hands its threads work: a second pool or policy has to be
    # argued for.
    assert call_sites("ThreadPoolExecutor") == {"phenotag.encoder.model._pool"}
    assert call_sites("submit") == {"phenotag.encoder.model._run_all"}


def test_every_checkpoint_consumer_checks_the_vocabulary():
    # A public encoder function given both a model and a vocabulary must
    # reject a vocabulary other than the model's: it calls check_vocab, or a
    # function that does (predict_corpus through predict).
    functions = {}
    for path in sorted((PACKAGE / "encoder").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node

    def names(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def called(node) -> set[str]:
        return {
            c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
            for c in ast.walk(node) if isinstance(c, ast.Call)
        }

    checking = {"check_vocab"}
    while more := {n for n, node in functions.items() if called(node) & checking} - checking:
        checking |= more
    consumers = {
        name for name, node in functions.items()
        if not name.startswith("_")
        and {"Checkpoint", "Vocabulary"} <= set().union(
            *(names(a.annotation) for a in node.args.args if a.annotation))
    }
    assert "predict_corpus" in consumers
    assert sorted(consumers - checking) == []


def test_no_module_reads_blas_thread_variables():
    # The encoder holds numpy's BLAS at one thread itself; what it does must
    # not depend on the caller's thread settings.
    names = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
    found = sorted(
        (path.name, node.value)
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    )
    assert not found, found


def test_tag_layout_is_known_only_to_the_codec():
    # encode_bio and decode_bio speak tag ids; which id is B-, I- or O of
    # which label is corpus.py's business alone.
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found |= {(path.name, n) for n in names if n in ("TAGS", "TAG_TO_ID")}
    assert not found, sorted(found)


def test_every_definition_is_used():
    # A function, method or class that nothing in the package refers to is
    # dead code or exists only for its tests. An import or an ``__all__``
    # string is not a use; dunder methods are called by Python itself.
    # masked_accuracy is the one exception: acceptance criterion 6 measures
    # pre-training with it, and no command reports it.
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.add("masked_accuracy")
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, unused


def test_every_traced_function_resolves(monkeypatch):
    # benchmark/tracing.py wraps these names with owner.__dict__[attr]; a
    # renamed or moved function would crash every traced benchmark run.
    import importlib.util

    path = PACKAGE.parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("phenotag_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclass
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, attr in tracing.TARGETS + tracing.CLI_TARGETS:
        owner, key = tracing._resolve(module, attr)
        if not callable(owner.__dict__.get(key)):
            missing.append(name)
    assert not missing, missing


def test_cli_defines_no_on_off_flag():
    # --config turns every line into --key value; an on/off flag would need
    # a true/false mapping there again, and has to be argued for.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "BooleanOptionalAction")
        or (isinstance(node, ast.Constant) and node.value in ("store_true", "store_false"))
    )
    assert not found, found
