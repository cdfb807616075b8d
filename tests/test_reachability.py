"""Every public function, class and method in `src/convflow` is reached,
and so is every defaulted parameter of one and every field of a public
dataclass or NamedTuple.

A name is reached when `src/convflow` (not counting the `__init__.py`
re-exports) or `demos/` refers to it outside its own definition; a method
or property only through an attribute read (`x.name`) or an import, so a
local variable of the same name does not reach it. A
defaulted parameter is reached when a call there passes it: by keyword,
by position, or through `*args`/`**kwargs`. A field is reached when code
there reads it as an attribute (`result.field`); passing it to the
constructor does not count. Names are matched by spelling only, so a
method sharing its name with another (`dict.get`) reads as reached: the
check finds dead surface, it cannot prove a name live.

Every keyword a call in `bench/` passes to a function or dataclass of
`src/convflow` must still be one of its parameters or fields, so a renamed
or removed parameter fails here and not only in the benchmark's replay.

Two lists hold the exceptions, each entry with a one-line reason. An entry
is a name, `name(a=, b=)` for defaulted parameters of `name`, or
`Class.field` for a field.
- BENCH_ONLY: what only `bench/` reaches today. `bench/` must still use
  each entry, so an entry fails as stale once the benchmark stops.
- ALLOWED: what stays although nothing reaches it; at most 4 entries.
An entry that is now reached, or no longer exists, fails the test.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convflow"

BENCH_ONLY = {
    "agglomerative": "ROADMAP item 4: deleted with the bench's agglomerative path, or wired into extract",
    "cut": "ROADMAP item 4: goes with agglomerative",
    "dendrogram_to_text": "ROADMAP item 4: goes with agglomerative",
    "assignment": "ROADMAP item 4: bench/verify.py checks the agglomerative cut through Clustering.assignment",
    "train_toy(soft=)": "ROADMAP item 1: bitwise redundant (tau_label=1e-4 trains the hard loss); only bench/replay.py's soft=True keeps it",
    "kmeans(return_history=)": "ROADMAP item 1 slice C: the iteration count becomes a trace counter",
    "init_toy_encoder(m=)": "ROADMAP item 1 slice C: only the bench replay's train_toy path passes it",
    "planted_flow(min_len=, max_len=)": "the workloads' fixed-length dialogs, which ROADMAP item 3's seed check uses",
    "save_embeddings": "bench/workloads.py writes the JSONL and binary embedding files that eval and extract read",
    "load_embeddings(format=)": "ROADMAP item 3 slice B: the bench replay names the format the command detects",
    "vectors": "ROADMAP item 3 slice B: EmbeddingStore.vectors is the store itself; only bench/verify.py reads store.vectors[uid]",
}
ALLOWED = {
    "TrainResult.loss_curve": "ROADMAP item 3 slice C: becomes a trace note, and train_toy returns the encoder",
    "planted_flow(max_dispersion_deg=)": "the spread of the planted action clusters, a knob of the fixture",
    "graded_label_rows(per_variant_train=, per_variant_eval=)": "the golden sweep corpus uses 30 of each",
    "main(argv=)": "cli.main, the console-script entry point, which is called with no argument",
}


def _parse(paths) -> list[tuple[pathlib.Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _paths(folder: pathlib.Path) -> list[pathlib.Path]:
    return sorted(p for p in folder.glob("*.py") if p.name != "__init__.py")


def _entries(listed) -> set[str]:
    """`name(a=, b=)` entries as one `name(a=)` entry per parameter."""
    out = set()
    for entry in listed:
        name, _, params = entry.partition("(")
        out |= {f"{name}({p.strip()})" for p in params.rstrip(")").split(",")} if params else {name}
    return out


def definitions(trees):
    """(path, node, member) for each public top-level function or class
    (member False) and each public method of a public class (member True)."""
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node, False
                for item in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item, True


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def references(trees):
    """(path, line, name, bare) for every name (bare True), attribute and
    import, and the calls of each callee name."""
    refs, calls = [], {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, True))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, False))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name.rsplit(".", 1)[-1], False))
            elif isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    return refs, calls


def _passed(call: ast.Call, positional: list[str]) -> set[str]:
    """The parameters a call passes, given the positional ones in order."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return set(positional)  # *args or **kwargs may pass any of them
    return set(positional[: len(call.args)]) | {kw.arg for kw in call.keywords}


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> tuple[list[str], list[str]]:
    """A call's positional parameters in order, and the defaulted parameters."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if is_method else 0 :]
    with_default = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    return positional, with_default + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def unreached(src_paths, demo_paths) -> set[str]:
    """Each name, each `name(param=)` and each `Class.field` that no
    reference, call or attribute read in `src_paths` or `demo_paths`
    reaches."""
    defined = _parse(src_paths)
    trees = defined + _parse(demo_paths)
    refs, calls = references(trees)
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for path, node, member in definitions(defined):
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and not (member and bare) and not (p == path and line in inside)
                   for p, line, name, bare in refs):
            found.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            positional, with_default = _defaulted(node, member and not static)
            passed = set().union(*(_passed(call, positional) for call in calls.get(node.name, [])))
            found |= {f"{node.name}({p}=)" for p in with_default if p not in passed}
        elif _is_dataclass(node) or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases):
            found |= {f"{node.name}.{f}" for f in _fields(node) if f not in read and not f.startswith("_")}
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> set[str]:
    """The names a class body annotates: a dataclass's or NamedTuple's fields."""
    return {item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def accepted_keywords(trees) -> dict[str, set[str] | None]:
    """The keywords each top-level function and dataclass takes: its
    parameters or fields, merged over same-named definitions; None when
    a `**kwargs` takes any."""
    out: dict[str, set[str] | None] = {}
    for _, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = None if args.kwarg else {a.arg for a in args.args + args.kwonlyargs}
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names = _fields(node)
            else:
                continue
            known = out.get(node.name, set())
            out[node.name] = None if names is None or known is None else known | names
    return out


def stale_keywords(src_paths, bench_paths) -> set[str]:
    """Each `name(kw=)` a call in `bench_paths` passes that the function or
    dataclass `name` of `src_paths` does not take. Names that `bench_paths`
    defines itself are its own and are skipped."""
    accepted = accepted_keywords(_parse(src_paths))
    bench = _parse(bench_paths)
    own = {node.name for _, tree in bench for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    _, calls = references(bench)
    return {
        f"{name}({kw.arg}=)"
        for name, found in calls.items()
        if accepted.get(name) is not None and name not in own
        for call in found
        for kw in call.keywords
        if kw.arg is not None and kw.arg not in accepted[name]
    }


def test_every_public_name_and_defaulted_parameter_is_reached():
    found = unreached(_paths(SRC), _paths(ROOT / "demos"))
    listed = _entries(BENCH_ONLY) | _entries(ALLOWED)
    assert found - listed == set(), "unreached: delete it, or list it with a reason"
    assert listed - found == set(), "listed, but reached now or gone: take it off its list"


def test_lists_are_short_and_give_reasons():
    assert len(ALLOWED) <= 4
    assert not _entries(BENCH_ONLY) & _entries(ALLOWED)
    assert all(reason.strip() for reason in [*BENCH_ONLY.values(), *ALLOWED.values()])


def test_bench_still_uses_every_bench_only_entry():
    refs, calls = references(_parse(_paths(ROOT / "bench")))
    used = {name for _, _, name, _ in refs}
    used |= {f"{name}({kw.arg}=)" for name, found in calls.items() for call in found for kw in call.keywords}
    assert _entries(BENCH_ONLY) - used == set(), "bench/ no longer uses these: delete them"


def test_unreached_reports_dead_names_parameters_and_spares_live_ones(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def live(a, b=1, c=2, *, d=3):\n    shadowed = a\n    return dead_recursive(shadowed)\n\n"
        "def dead_recursive(x, y=0):\n    return dead_recursive(x - 1) if x else 0\n\n"
        "class Box:\n    def used(self, n=1):\n        return n\n    def unused(self):\n        return 0\n"
        "    @property\n    def shadowed(self):\n        return 0\n\n"
        "def _private(q=0):\n    return q\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text("from mod import live, Box\nlive(0, 5)\nBox().used(n=2)\n")
    # a local variable named like a method does not reach the method
    assert unreached([module], [demo]) == {"live(c=)", "live(d=)", "unused", "shadowed", "dead_recursive(y=)"}


def test_unreached_reports_fields_no_attribute_read_reaches(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
        "@dataclass(frozen=True)\nclass Result:\n    mean: float\n    history: list\n    _cache: int = 0\n\n"
        "@dataclass\nclass Box:\n    size: int\n\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
        "def make():\n    return Result(mean=1.0, history=[]), Pair(1, right=2), Box(size=3)\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text("from mod import make\nresult, pair, box = make()\nbox.size = 4\nprint(result.mean, pair.left)\n")
    # a constructor keyword and an assignment are not reads
    assert unreached([module], [demo]) == {"Result.history", "Pair.right", "Box.size"}


def test_bench_passes_only_keywords_src_takes():
    assert stale_keywords(_paths(SRC), _paths(ROOT / "bench")) == set()


def test_stale_keywords_checks_functions_and_dataclass_fields(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass\nfrom typing import final\n\n"
        "def fit(x, *, rate=1):\n    return x\n\n"
        "def loose(**kwargs):\n    return kwargs\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    label: str = ''\n\n"
        "@final\nclass Plain:\n    def __init__(self, n=0):\n        self.n = n\n\n"
        "def report(a):\n    return a\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text(
        "import mod\n\n"
        "def report(a, style=None):\n    return a\n\n"
        "mod.fit(1, rate=2, epochs=3)\nmod.loose(anything=1)\n"
        "mod.Box(size=1, label='x', colour='red')\nmod.Plain(n=1)\nreport(1, style='x')\nmod.fit(**{'rate': 1})\n"
    )
    assert stale_keywords([module], [bench]) == {"fit(epochs=)", "Box(colour=)"}
