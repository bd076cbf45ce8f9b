"""No library code that only tests use.

Every public module-level function and class of ``cmpr``, and every public
method and property of those classes, needs a caller outside the tests.
This is a source-text heuristic, not an import graph.  A name counts as
called when it appears as a whole word (an attribute access, ``.name``, for
a method or property) in ``src/cmpr/*.py`` outside its own definition, or
anywhere in ``cmprbench/*.py``.  A match inside the definition of a name
that itself has no caller does not count, so dead code that only dead code
calls is found too.  The text match cannot tell a call from a comment or
from another object's attribute of the same name, so it misses some dead
names.  It also flags a live name that is only read by ``getattr`` with a
computed name; ``BY_NAME`` lists those, with their reader.

Names that only tests call for now, because the code that will call them
is not written yet, are listed in ``TEST_ONLY`` with the ROADMAP item that
gives them a caller.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "build_cohort": "ROADMAP item 3",
    "r_squared": "ROADMAP item 3",
    "roc_auc": "ROADMAP item 3",
    "LossReport.to_json_line": "ROADMAP item 3",
    "LossReport.from_json_line": "ROADMAP item 3",
    "MetricReport.csv_rows": "ROADMAP item 3",
}

BY_NAME = {
    "CohortSample.fundus": "synthdata.stream_members, through a STREAMS side name",
}


def _public_definitions():
    """(module file, qualified name, pattern, first line, last line) for each
    public module-level def or class and each public method of a class."""
    found = []
    for path in sorted((ROOT / "src" / "cmpr").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((path, node.name, rf"\b{node.name}\b",
                          node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found.append((path, f"{node.name}.{item.name}",
                                      rf"\.{item.name}\b",
                                      item.lineno, item.end_lineno))
    return found


def _names_without_caller():
    """Qualified names with no caller, found by dropping the definitions of
    uncalled names from the searched text until nothing more drops out."""
    defs = _public_definitions()
    lines = {path: path.read_text().splitlines() for path, *_ in defs}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "cmprbench").glob("*.py")))
    dead: set[str] = set()
    while True:
        hidden = {(path, i) for path, name, _, lo, hi in defs if name in dead
                  for i in range(lo, hi + 1)}
        newly = set()
        for path, name, pattern, lo, hi in defs:
            if name in dead:
                continue
            regex = re.compile(pattern)
            called = regex.search(bench) or any(
                regex.search(line)
                for other, text in lines.items()
                for i, line in enumerate(text, 1)
                if (other, i) not in hidden
                and not (other == path and lo <= i <= hi)
            )
            if not called:
                newly.add(name)
        if not newly:
            return dead
        dead |= newly


def test_every_public_name_has_a_caller_outside_the_tests():
    dead = _names_without_caller()
    listed = set(TEST_ONLY) | set(BY_NAME)
    assert sorted(dead - listed) == []
    # an entry whose name gained a textual caller, or is gone, leaves its list
    assert sorted(listed - dead) == []
