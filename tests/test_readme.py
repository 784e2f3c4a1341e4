"""The README's library quick start runs and gives its commented results."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_values() -> dict:
    """Run the quick-start block; map each bare expression's source to its
    value."""
    text = README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_library_quick_start():
    values = _quick_start_values()
    verdict = values["nl.classify_obstruction(cantor, 3).verdict"]
    assert verdict.value == "MatchesObstructionForm"
    assert values["nl.incommensurable_slope_witness(cantor, 2)"] == (True, 1)
    assert values["nl.is_pisot([1, -1, -1]).is_pisot"] is True
