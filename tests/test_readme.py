"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_recovers_full(capsys):
    text = README.read_text()
    section = text[text.index("## Python quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    status, err = lines[1].split()
    assert status == "full"
    assert float(err) < 1e-8
