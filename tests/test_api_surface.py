"""No library code that only tests use.

Every public module-level function and class of ``cmpr``, and every public
method and property of those classes, needs a caller outside the tests.
This is a source-text heuristic, not an import graph.  A name counts as
called when it appears as a whole word (an attribute access, ``.name``, for
a method or property) in ``src/cmpr/*.py`` outside its own definition, or
anywhere in ``cmprbench/*.py``.  A match inside the definition of a name
that itself has no caller does not count, so dead code that only dead code
calls is found too.  String literals and comments are blanked out of the
searched text first (the definitions are still read from the raw text), so
a name in a docstring, a message or an op-kind table is no caller.  The
text match still cannot tell a call from another object's attribute of the
same name, so it misses some dead names: ``math.log`` or ``np.log`` would
keep a dead ``log`` alive.  It also flags a live name that is only read by
``getattr`` with a computed name; ``BY_NAME`` lists those, with their
reader.

Names that only tests call for now, because the code that will call them
is not written yet, are listed in ``TEST_ONLY`` with the ROADMAP item that
gives them a caller.
"""

import ast
import io
import re
import tokenize
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


# string and comment tokens; from Python 3.12 an f-string's literal text
# is an FSTRING_MIDDLE token, and its expressions are code
_BLANKED = {tokenize.STRING, tokenize.COMMENT,
            getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _code_only(text: str) -> str:
    """``text`` with its string literals and comments turned into spaces;
    line breaks stay, so line numbers still match ``ast``'s."""
    lines = [list(line) for line in text.split("\n")]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _BLANKED:
            continue
        (first, start), (last, end) = tok.start, tok.end
        for row in range(first, last + 1):
            chars = lines[row - 1]
            lo = start if row == first else 0
            hi = end if row == last else len(chars)
            chars[lo:hi] = " " * (hi - lo)
    return "\n".join("".join(chars) for chars in lines)


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
    lines = {path: _code_only(path.read_text()).split("\n") for path, *_ in defs}
    bench = "\n".join(_code_only(p.read_text())
                      for p in sorted((ROOT / "cmprbench").glob("*.py")))
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
