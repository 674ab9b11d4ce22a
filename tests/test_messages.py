"""Every ValueError message of the package is raised from one statement.

A rule written out by hand in two places drifts: one copy changes its bound
or its text, or is checked after a cache is read while the other is checked
before.  A message, a literal or the template of an f-string, that two raise
statements build fails here; the rule belongs in one named check.
"""

import ast
from collections import Counter
from pathlib import Path

import satotate

MODULES = sorted(Path(satotate.__file__).parent.glob("*.py"))


def _messages(tree: ast.Module):
    """The message text of each ``raise ValueError(message)``, an f-string as its source template."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        call = node.exc
        if not (isinstance(call.func, ast.Name) and call.func.id == "ValueError" and call.args):
            continue
        message = call.args[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            yield message.value
        elif isinstance(message, ast.JoinedStr):
            yield ast.unparse(message)


def test_no_value_error_message_is_raised_from_two_statements():
    counts = Counter(text for path in MODULES for text in _messages(ast.parse(path.read_text(encoding="utf-8"))))
    assert counts["f'{name} must be >= {least}'"] == 1  # check_least's, read as its source template
    assert [text for text, n in counts.items() if n > 1] == []
