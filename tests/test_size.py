"""Size of src/twotime/*.py, split as ROADMAP item 5 counts it, against pinned budgets.

A docstring's lines are counted by its AST node (a module, class or function docstring, from its first line to its
last), a comment by a line that holds only a comment, and a blank line outside a docstring; every other line is
code. The test fails when a file's code lines or its ``wc -l`` exceed the budget pinned below, so growth shows as an
explicit change to this table. ``python tests/test_size.py`` prints the split.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twotime"

# (code, total) lines per file, at most.
BUDGETS = {
    "__init__.py": (57, 67),
    "cli.py": (276, 376),
    "correlators.py": (109, 230),
    "dynamics.py": (27, 55),
    "gaussian.py": (56, 108),
    "qcore.py": (293, 483),
    "realism.py": (64, 130),
    "spinlab.py": (137, 275),
}


def split(text: str) -> dict:
    """Lines of one source file as code, docstrings, comments and blank, with their total."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts = {"code": 0, "docstrings": len(docstring), "comments": 0, "blank": 0, "total": len(lines)}
    for number, line in enumerate(lines, 1):
        if number not in docstring:
            counts["blank" if not line.strip() else "comments" if line.lstrip().startswith("#") else "code"] += 1
    return counts


def splits() -> dict:
    return {path.name: split(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_file_is_within_its_budget():
    over = [f"{name}: {counts['code']} code lines (budget {BUDGETS[name][0]}), {counts['total']} in all "
            f"(budget {BUDGETS[name][1]})" for name, counts in splits().items()
            if name not in BUDGETS or counts["code"] > BUDGETS[name][0] or counts["total"] > BUDGETS[name][1]]
    assert over == [] and set(BUDGETS) == set(splits())


def test_the_split_adds_up_and_counts_a_docstring_by_its_node():
    text = '"""Module.\n\nMore."""\n\nimport os  # a trailing comment is code\n\n\ndef f():\n    # only a comment\n' \
           '    """One line."""\n    x = """not a docstring\n\n"""\n    return x\n'
    # Line 12 is blank inside a string that is no docstring, so it counts as blank.
    assert split(text) == {"code": 5, "docstrings": 4, "comments": 1, "blank": 4, "total": 14}
    for counts in splits().values():
        assert counts["code"] + counts["docstrings"] + counts["comments"] + counts["blank"] == counts["total"]


if __name__ == "__main__":
    table = splits()
    table["all"] = {key: sum(counts[key] for counts in table.values()) for key in ("code", "docstrings", "comments", "blank", "total")}
    print(f"{'file':<16}{'code':>6}{'doc':>6}{'comment':>9}{'blank':>7}{'total':>7}")
    for name, counts in table.items():
        print(f"{name:<16}{counts['code']:>6}{counts['docstrings']:>6}{counts['comments']:>9}{counts['blank']:>7}{counts['total']:>7}")
