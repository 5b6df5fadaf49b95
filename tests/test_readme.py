"""The README's Python quick start and CLI walkthrough run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_cli_walkthrough_recovers_full(tmp_path):
    text = README.read_text()
    section = text[text.index("## CLI walkthrough") :]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    # `oqsident` runs the CLI from the source tree; `python3` is the
    # interpreter running the tests
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "oqsident"
    shim.write_text(
        "#!/bin/sh\n"
        f'exec "{sys.executable}" -c "import sys; from oqsident.cli import main; '
        'sys.exit(main())" "$@"\n'
    )
    shim.chmod(0o755)
    (bin_dir / "python3").symlink_to(sys.executable)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=pythonpath)
    run = subprocess.run(
        ["bash", "-e", "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "recovery status: full" in run.stdout
