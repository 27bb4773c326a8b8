"""README's config and library examples run as written, so that they cannot drift
from the config grammar or the library's names unnoticed."""

import json
import os
import re

from splitflow.config import config_from_dict

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(language):
    """The one fenced code block of README in the given language."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```%s\n(.*?)^```" % language, fh.read(), re.M | re.S)
    assert len(blocks) == 1, "README has %d %s blocks" % (len(blocks), language)
    return blocks[0]


def test_readme_config_example_loads():
    raw = json.loads(_block("json"))
    assert config_from_dict(raw).to_dict() == raw


def test_readme_library_example_runs(capsys):
    exec(compile(_block("python"), README, "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) < 1e-8  # the final fp_residual
