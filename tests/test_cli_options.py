"""Every option a command accepts changes what it prints.

For each (command, option) pair two settings of the option must give
different output: the stdout bytes of a table command (CSV unless the option
is --format), and the `checks` list of the `verify` report, so an option that
is only echoed back does not count.  A knob that changes nothing fails here
instead of being accepted, validated and ignored.
"""

import json

import pytest
from click.testing import CliRunner

from qps.cli import cli

#: each command's other options
BASE = {
    "poly": ["--n", "2", "--grid-points", "8"],
    "theta": ["--grid-points", "8"],
    "angle-dist": ["--n", "1", "--grid-points", "8"],
    "action-dist": ["--n", "1", "--m-range", "0:3"],
    "wigner": ["--n", "1", "--m", "1", "--grid-points", "8"],
    "verify": ["--n", "3"],
}
#: the deformation, added unless the option under test is itself a knob; theta_3
#: reads --tol only on its Fourier branch, mu >= pi/2
KNOB = {"theta": ["--mu", "3"], "angle-dist": ["--mu", "3"]}
KNOBS = {"--q", "--mu", "--mu-list"}

#: two settings of each option; [] leaves it at its default, and a repeated
#: option takes its last value, so a setting overrides BASE
SETTINGS = {
    "--q": (["--q", "0.5"], ["--q", "0.7"]),
    "--mu": (["--mu", "0.3"], ["--mu", "0.6"]),
    "--mu-list": (["--mu-list", "0.3"], ["--mu-list", "0.3,0.6"]),
    "--n": (["--n", "2"], ["--n", "3"]),
    "--grid-points": (["--grid-points", "8"], ["--grid-points", "512"]),
    "--tol": (["--tol", "1e-3"], ["--tol", "1e-300"]),
    "--format": (["--format", "csv"], ["--format", "json"]),
    "--out": ([], ["--out", "table.out"]),
    "--m-range": (["--m-range", "0:3"], ["--m-range", "0:4"]),
    "--m": (["--m", "1"], ["--m", "2"]),
}

#: accepted options that change nothing, each with the reason it stays:
#: the benchmark's action cells pass --grid-points (ROADMAP open item 1)
UNREAD = {("action-dist", "--grid-points")}

PAIRS = sorted(
    (name, flag)
    for name, command in cli.commands.items()
    for flag, _ in command.options
    if (name, flag) not in UNREAD
)


def observed(command: str, argv: list[str]):
    result = CliRunner().invoke(cli, [command, *argv], catch_exceptions=False)
    if command != "verify":
        assert result.exit_code == 0, result.output
        return result.stdout
    # a failing check is a report too: --tol is the pass threshold
    assert result.exit_code in (0, 1), result.output
    return json.loads(result.stdout)["checks"] if result.stdout else None


def test_every_command_is_covered():
    assert set(BASE) == set(cli.commands)
    assert {option for _, option in PAIRS} <= set(SETTINGS)
    for pair in UNREAD:
        name, option = pair
        assert option in [flag for flag, _ in cli.commands[name].options], pair


@pytest.mark.parametrize("command,option", PAIRS, ids=[f"{c} {o}" for c, o in PAIRS])
def test_option_changes_output(command, option, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    knob = [] if option in KNOBS else KNOB.get(command, ["--q", "0.5"])
    a, b = (observed(command, [*knob, *BASE[command], *s]) for s in SETTINGS[option])
    assert a != b
