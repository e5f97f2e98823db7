"""The README's command lines stay in step with the parser and the configs.

Every ``bardina-strip ...`` line in a code block parses with the CLI's own
parser (nothing runs), names a known suite if it has one, and its config
loads; the config-key table lists every key with its default.
"""

import re
import shlex
from pathlib import Path

import pytest

from bardina_strip.cli import _build_parser
from bardina_strip.runio import KNOWN_KEYS, load_config, parse_config_text
from bardina_strip.verification import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CODE_LINES = [line.split("#", 1)[0].strip()
              for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.S | re.M)
              for line in block.splitlines()]
CLI_LINES = [line for line in CODE_LINES if line.startswith("bardina-strip ")]


def test_readme_has_command_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses_and_its_config_loads(line, monkeypatch):
    args = _build_parser().parse_args(shlex.split(line)[1:])
    # the parser takes any suite name; verify refuses an unknown one
    assert getattr(args, "suite", SUITE_NAMES[0]) in SUITE_NAMES
    monkeypatch.chdir(ROOT)
    load_config(args.config, allow_gamma_override=args.override_gamma)


def test_key_table_lists_every_key_with_its_default():
    table = README.split("| key | default | what it sets |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (.*?) \|", table, re.M)
    assert sorted(key for key, _ in rows) == sorted(KNOWN_KEYS)
    defaults = parse_config_text("")
    for key, default in rows:
        value = default.strip("`") if default.startswith("`") else ""
        assert parse_config_text(f"{key} = {value}") == defaults, key
