"""The package's public surface: every exported name resolves, the
names the shared random-map spec, the single covariance, the one run
function, the one stream input, the whole flip pairs and the one read
of the class rows replaced stay gone, the factor has one interface, a
train block is checked once and folded through one call, the
shrinkage checks test the kernel finalize runs, no module imports a name
it never uses, and no test hides where pytest cannot collect it."""

import ast
import inspect
import textwrap
from dataclasses import fields
from pathlib import Path

import randumb
from randumb import classifier, fourier, harness, precision, reference, streaming


def test_every_exported_name_resolves():
    for name in randumb.__all__:
        assert getattr(randumb, name) is not None, name


def test_one_random_map_spec():
    for module in (randumb, classifier, fourier):
        for gone in ("RPSpec", "num_bases_for_embed_dim", "PRECISION_VARIANTS",
                     "EMBEDDED_VARIANTS"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert randumb.RandomReluMap is classifier.RandomReluMap
    assert issubclass(randumb.RandomReluMap, randumb.FeatureMap)
    assert tuple(randumb.VARIANTS) == ("randumb", "kernel_ncm", "slda", "ncm", "rp_relu")


def test_one_checkpoint_kind():
    """Checkpoints belong to the classifier; the estimator only holds the
    arrays they store."""
    from randumb import StreamingClassifier, StreamingEstimator

    for gone in ("save", "load", "_state", "_from_state"):
        assert not hasattr(StreamingEstimator, gone), gone
    assert not hasattr(streaming, "ClassStats")
    for kept in ("save", "load", "_state", "_from_state"):
        assert hasattr(StreamingClassifier, kept), kept


def test_one_covariance():
    """The pooled within-class scatter over n - 1 is the only estimator:
    the centering modes and the options that chose them are gone."""
    for gone in ("MODES", "MODE_POOLED", "MODE_GLOBAL"):
        assert not hasattr(streaming, gone), gone
    assert [f.name for f in fields(randumb.ModelVariant)] == [
        "variant", "num_classes", "embedding", "ridge", "input_dim",
    ]


def test_one_run_entry_point():
    """run_on_dataset is the run: it builds the stream and the model
    from its keywords, with no config-level steps in between."""
    for module in (randumb, harness):
        for gone in ("run_benchmark", "build_model_config"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert list(inspect.signature(randumb.run_on_dataset).parameters) == [
        "data", "variant", "embed_dim", "gamma", "ridge", "seed", "augment",
        "classes_per_task", "eval_every", "memory_cap_bytes",
    ]


def test_one_stream_input():
    """make_stream cuts the RawDataset it is handed: no stream spec sits
    between the run's keywords and it, and the dataset's sample counts are
    the lengths of its arrays, not descriptor fields."""
    for module in (randumb, harness):
        assert not hasattr(module, "StreamSpec"), module.__name__
    assert list(inspect.signature(randumb.make_stream).parameters) == [
        "data", "classes_per_task", "augment", "seed", "cut_every",
    ]
    names = {f.name for f in fields(randumb.DatasetDescriptor)}
    assert not names & {"train_count", "test_count"}, names


def test_one_flip_fact():
    """Steps 2i and 2i + 1 of a flip stream are an image and its mirror,
    so a flip block carries its originals and the image width: the
    per-step source rows, flip flags and origin labels are gone."""
    from randumb import data_io

    assert [f.name for f in fields(randumb.StreamBlock)] == [
        "start", "indices", "features", "labels", "mirror_width",
    ]
    assert list(inspect.signature(randumb.StreamingClassifier.observe).parameters) == [
        "self", "x_raw", "labels", "mirror_width",
    ]
    assert not hasattr(fourier, "mirror_halves")
    for gone in ("ORIGIN_ORIGINAL", "ORIGIN_FLIPPED"):
        assert not hasattr(data_io, gone), gone


def test_one_read_of_the_class_rows():
    """class_rows() is the estimator's one read: C counts and C mean rows,
    a count of 0 marking a class not seen yet.  The dict views, the spent
    flag (a consumed accumulator is None) and the single-pair kernel
    oracle are gone."""
    for gone in ("classes_seen", "class_means", "class_counts"):
        assert not hasattr(randumb.StreamingEstimator, gone), gone
    estimator = randumb.StreamingEstimator(3, 2)
    assert not hasattr(estimator, "_consumed")
    estimator.observe([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]], [1, 1])
    estimator.scatter_state(consume=True)
    assert not hasattr(estimator, "_consumed")
    assert not hasattr(reference, "exact_rbf_kernel")


def test_one_factor_interface():
    """PrecisionModel's representation follows from the state it is
    handed: the in-place shrink, the ``low_rank``, ``max_rank`` and
    ``num_rhs`` arguments, the pivoted Cholesky's RFP column reader and
    finalize's copy of the rule are gone, and the factor form's finalize
    forms no Gram and factors no inner matrix."""
    assert not hasattr(precision, "shrink_packed")
    assert not hasattr(precision, "_rfp_column")
    assert not hasattr(classifier, "low_rank_fits")
    parameters = inspect.signature(precision.PrecisionModel).parameters
    assert not {"low_rank", "max_rank", "num_rhs"} & set(parameters)
    assert not {"dsyrk", "dpotrf", "dpotrs"} & set(vars(precision))


def test_the_rule_is_called_where_the_form_is_picked():
    """``low_rank_fits`` is called in two places only: where the
    estimator picks the scatter's form, and in the memory cap that
    counts it."""
    root = Path(__file__).resolve().parent.parent / "src/randumb"
    callers = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "low_rank_fits":
                    callers.add((path.stem, func.name))
    assert callers == {("streaming", "__init__"), ("harness", "check_memory_cap")}


def _called_names(node: ast.AST) -> list[str]:
    """The names of the functions and methods ``node`` calls, in order."""
    return [
        call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        for call in ast.walk(node) if isinstance(call, ast.Call)
    ]


def test_one_block_check():
    """A train block's labels are checked in one function of the
    estimator, and the classifier's observe folds every intake path
    (phi, [phi, Q phi] or [x, P x], and s counted twice) through one
    ``_fold`` call, never through the estimator's own observe."""
    root = Path(__file__).resolve().parent.parent / "src/randumb"
    checkers = {}
    for stem in ("streaming", "classifier"):
        tree = ast.parse((root / f"{stem}.py").read_text(encoding="utf-8"))
        checkers[stem] = {
            func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            and "refuse_fractional_labels" in _called_names(func)
        }
    assert checkers == {"streaming": {"_check_labels"}, "classifier": set()}
    observe = ast.parse(textwrap.dedent(inspect.getsource(classifier.StreamingClassifier.observe)))
    called = _called_names(observe)
    assert called.count("_fold") == 1, called
    assert called.count("_check_labels") == called.count("_check_rows") == 1, called
    assert "observe" not in called and "_observe" not in called, called
    assert not hasattr(streaming.StreamingEstimator, "_observe")


def test_shrinkage_checks_call_the_packed_kernel():
    """The verify OAS check and the acceptance shrinkage gate test
    packed_shrinkage, which finalize runs, never the full-matrix
    oas_shrink."""
    root = Path(__file__).resolve().parent.parent
    for path in (root / "src/randumb/reference.py", root / "tests/test_acceptance.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = set(_called_names(tree))
        assert "oas_shrink" not in called, path.name
        assert "packed_shrinkage" in called, path.name


# Imported names a module keeps without using them, each with its reason.
UNUSED_IMPORTS_ALLOWED = {
    ("classifier", "RandomReluMap"): "perfbench/spans.py wraps it by this path",
}


def test_no_dead_imports():
    """Every name a src/randumb module imports is used in it, exported in
    its __all__, or allowed above with a reason (nothing lints the
    package, and deletions leave imports behind)."""
    dead = []
    for path in sorted(Path(randumb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead += [
            f"{path.stem}.{name}" for name in sorted(imported - used - exported)
            if (path.stem, name) not in UNUSED_IMPORTS_ALLOWED
        ]
    assert dead == []


def test_no_test_nested_in_a_function():
    """pytest collects only module- and class-level tests: a test_* def
    inside a function (say, indented under a helper, after its return) is
    never run, and nothing reports it."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    hidden = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if isinstance(outer, functions):
                hidden.update(
                    f"{path.name}:{node.lineno} {node.name}"
                    for node in ast.walk(outer)
                    if node is not outer and isinstance(node, functions)
                    and node.name.startswith("test_")
                )
    assert sorted(hidden) == []
