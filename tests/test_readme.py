"""The README's config schema and CLI commands run as written."""

import json
import re
import shlex
from pathlib import Path

from tylerlaw import ExperimentConfig
from tylerlaw.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """Body of the first ``lang`` code block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(heading):], re.S).group(1)


def test_config_schema_and_cli_commands_run(tmp_path, monkeypatch):
    schema = json.loads(readme_block("### Config schema", "json"))
    ExperimentConfig.from_dict(schema)
    monkeypatch.chdir(tmp_path)
    # the CLI block's cfg.json is the schema example
    (tmp_path / "cfg.json").write_text(json.dumps(schema), encoding="utf-8")
    commands = [shlex.split(line) for line in readme_block("## CLI", "bash").splitlines()
                if line.strip() and not line.startswith("#")]
    assert commands
    for argv in commands:
        assert argv[0] == "tylerlaw"
        assert main(argv[1:]) == 0, argv
