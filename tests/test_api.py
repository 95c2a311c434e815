import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import quivermotive
from quivermotive import engine, fflab, lrat, partitions, points, series

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
SRC = Path(quivermotive.__file__).parent


def test_exports_resolve_and_are_documented():
    readme = README.read_text(encoding="utf-8")
    assert len(set(quivermotive.__all__)) == len(quivermotive.__all__)
    for name in quivermotive.__all__:
        assert hasattr(quivermotive, name), name
        assert f"`{name}`" in readme, name


def test_readme_module_lists_name_their_attributes():
    # each bullet "- `quivermotive.X`: `name`, ..." names attributes of module X
    readme = README.read_text(encoding="utf-8")
    bullets = re.findall(r"^- `quivermotive\.(\w+)`: (.*?)(?=^\S|\Z)", readme, re.M | re.S)
    assert len(bullets) >= 3
    for module, text in bullets:
        home = importlib.import_module(f"quivermotive.{module}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", text):
            assert hasattr(home, name), (module, name)


def test_readme_library_snippet_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(snippet, namespace)
    # a line `expression   # value ...` states the value of the expression
    stated = re.findall(r"^(\S.*?)\s+# (\(.*?\)|-?\d+)", snippet, re.MULTILINE)
    assert len(stated) == 2
    for expression, value in stated:
        assert eval(expression, namespace) == ast.literal_eval(value), expression
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_lazy_exports_are_their_home_objects():
    # the exports the engine does not run load on first access; each is the
    # object of its home module, by attribute and through a star import,
    # and so is the engine's tuples_with_sizes
    homes = {
        "EnumerationBudgetError": fflab,
        "centralizer_order": fflab,
        "count_moment_fiber": fflab,
        "count_stable_fiber": points,
        "kappa_oracle": fflab,
        "L": lrat,
        "LRat": lrat,
        "MSeries": series,
        "Partition": partitions,
        "pairing": partitions,
        "partitions_of": partitions,
        "tuples_with_sizes": partitions,
    }
    assert set(quivermotive._LAZY) == set(homes)
    namespace = {}
    exec("from quivermotive import *", namespace)
    for name, home in homes.items():
        assert getattr(quivermotive, name) is getattr(home, name), name
        assert namespace[name] is getattr(home, name), name
    assert engine.tuples_with_sizes is partitions.tuples_with_sizes
    for module in (quivermotive, engine):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name


def test_private_names_cited_in_src_are_defined():
    # a docstring or comment naming a private helper must not outlive it; a
    # subscript such as X_t, lam'_i or [e choose f]_L is no citation
    cited_name = re.compile(r"(?<![\w')\]])_[A-Za-z]\w*")
    defined, cited = set(), set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                doc = ast.get_docstring(node) or ""
                cited.update((path.name, name) for name in cited_name.findall(doc))
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                cited.update((path.name, name) for name in cited_name.findall(token.string))
    assert len(cited) > 30
    assert sorted((path, name) for path, name in cited if name not in defined) == []


def test_every_name_defined_in_src_is_named_elsewhere():
    # a top-level function, class, method or assignment of src/ that
    # nothing names but its own definition is dead code; the names are
    # counted as words of src/, tests/, perfbench/ and README.md
    texts = [README, *SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py")]
    texts += (ROOT / "perfbench").rglob("*.py")
    words = Counter(
        word for path in texts for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    defined = Counter()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined.update(name for name in names if not name.startswith("__"))
    assert len(defined) > 200
    # a name defined k times is named elsewhere when it occurs more than k times
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []
