"""The package's public surface: the README's Library example runs against it."""

import ast
import re
from pathlib import Path

import orbev

README = Path(__file__).parent.parent / "README.md"
CLI = Path(orbev.__file__).parent / "cli.py"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs(capsys):
    code = library_snippet()
    exec(compile(code, str(README), "exec"), {})
    # the snippet's comment gives the output it documents
    documented = [line.removeprefix("# ") for line in code.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == documented


def test_every_exported_name_is_documented_or_used_by_the_cli():
    text = README.read_text(encoding="utf-8") + CLI.read_text(encoding="utf-8")
    for name in orbev.__all__:
        assert hasattr(orbev, name)
        assert re.search(rf"\b{re.escape(name)}\b", text), name


def test_no_assert_statements_in_the_package():
    """Exactness checks raise the package's errors: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(orbev.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
