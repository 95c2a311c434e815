import ast
import re
from pathlib import Path

import quivermotive

README = Path(__file__).parent.parent / "README.md"


def test_exports_resolve_and_are_documented():
    readme = README.read_text(encoding="utf-8")
    assert len(set(quivermotive.__all__)) == len(quivermotive.__all__)
    for name in quivermotive.__all__:
        assert hasattr(quivermotive, name), name
        assert f"`{name}`" in readme, name


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
