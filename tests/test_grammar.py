"""Every module of the package, of its tests and of the benchmark parses under
the grammar of the oldest Python that requires-python admits.  This checks
syntax only: the suite itself runs on the interpreter at hand."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_module_parses_under_the_oldest_supported_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    paths = [path for folder in ("src/splitflow", "tests", "bench")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(paths) > 20 and any(path.parent.name == "bench" for path in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
