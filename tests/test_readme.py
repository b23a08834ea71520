"""The README's examples run as written."""

import re
from pathlib import Path

from leangrape import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_reaches_its_stop_cost(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quickstart", "exec"), namespace)
    trace = namespace["trace"]
    assert trace.stop_reason == "stop_cost"
    assert trace.final_cost <= 1e-8
    assert capsys.readouterr().out.split()[1] == "stop_cost"


def _is_model_field(key):
    return key.startswith("model.") and key != "model.kind"


def test_key_table_names_exactly_the_schema_keys():
    # the model.<field> keys are exempt: the table covers them by example
    text = README.read_text()
    table = text[text.index("Key groups"):].split("\n\n")[1]
    rows = [line.split("|")[2] for line in table.splitlines()[2:]]
    documented = {key for row in rows for key in re.findall(r"`([^`]+)`", row)}
    schema = set(cli._SCHEMA)
    assert {k for k in documented if not _is_model_field(k)} == {
        k for k in schema if not _is_model_field(k)
    }
