"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_reaches_its_stop_cost(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quickstart", "exec"), namespace)
    trace = namespace["trace"]
    assert trace.stop_reason == "stop_cost"
    assert trace.final_cost <= 1e-8
    assert capsys.readouterr().out.split()[1] == "stop_cost"
