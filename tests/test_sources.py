import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no file may use a
    # later grammar (an `except*` clause, a `type` statement, PEP 695 generics).
    paths = [p for d in ("src/gpbt", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
