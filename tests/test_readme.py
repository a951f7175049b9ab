"""The README's Python quick start and CLI commands run as written."""

import re
import shlex
from pathlib import Path

from roughvix import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def _readme_commands() -> list:
    """The ``roughvix`` commands of the README's bash block, continuations joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if re.search(r"^roughvix ", b, re.M)]
    lines = [line for line in block.splitlines() if not line.lstrip().startswith("#")]
    joined = re.sub(r"\\\n\s*", " ", "\n".join(lines))
    return [shlex.split(line) for line in joined.splitlines() if line.strip()]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 6
    for index, argv in enumerate(commands):
        assert argv[0] == "roughvix"
        out = tmp_path / str(index)
        out.mkdir()
        monkeypatch.chdir(out)
        monkeypatch.setenv("ROUGHVIX_OUTPUT_DIR", str(out))
        assert cli.main(argv[1:]) == 0, argv
        (results,) = [p.name for p in out.iterdir() if not p.name.endswith(".manifest.json")]
        assert sorted(p.name for p in out.iterdir()) == [results, results + ".manifest.json"]
