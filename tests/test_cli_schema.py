"""The CLI's flag schema: the parser keeps its pinned shape, and every
out-of-range value of a shared flag exits 2 with one ``error:`` line."""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

import pytest

from repro.cli import FLAG_SCHEMA, build_parser, main

PINNED = Path(__file__).with_name("cli_parser_pinned.json")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


def parser_shape(parser: argparse.ArgumentParser) -> dict:
    """Every subcommand's actions, keyed by first option string (or dest
    for positionals): everything that shapes parsing, help text excluded."""
    shape = {}
    for name, sub in _subparsers(parser).items():
        actions = {}
        for action in sub._actions:
            key = action.option_strings[0] if action.option_strings else action.dest
            actions[key] = {
                "action": type(action).__name__,
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
                "type": None if action.type is None else action.type.__name__,
                "required": action.required,
                "const": action.const,
            }
        shape[name] = actions
    return shape


def test_parser_matches_pinned_shape():
    pinned = json.loads(PINNED.read_text())
    # One JSON round trip so tuples compare equal to the fixture's lists.
    assert json.loads(json.dumps(parser_shape(build_parser()))) == pinned


#: Out-of-range values for every numeric schema flag (test data, not a
#: range table: the checks live in the value objects).
OUT_OF_RANGE = {
    "cores": ["0"], "flows": ["0"], "packets": ["0"], "seed": ["-1"],
    "tenants": ["0"], "tenant_quota": ["0"], "loss_rate": ["1.5", "-0.1"],
    "trace_sample": ["2", "-1"], "reps": ["0"], "jobs": ["0", "-3"],
}
#: Arguments a case needs besides the flag under test; ``{tmp}`` is a
#: scratch directory that must stay empty.
REQUIRED = {"synthesize": ["--out", "{tmp}/t.scrt"],
            "validate": ["--program", "ddos"], "reproduce": ["6g"]}
WITH = {"trace_sample": ["--telemetry", "{tmp}/tele"]}


def _numeric_flags(sub: argparse.ArgumentParser):
    for action in sub._actions:
        for option in action.option_strings:
            dest = option[2:].replace("-", "_")
            if dest in FLAG_SCHEMA and action.type in (int, float):
                yield option, dest


def _out_of_range_cases():
    for name, sub in _subparsers(build_parser()).items():
        for option, dest in _numeric_flags(sub):
            for value in OUT_OF_RANGE[dest]:
                argv = [name, *REQUIRED.get(name, []), *WITH.get(dest, []),
                        option, value]
                yield pytest.param(argv, id=f"{name}{option}={value}")


def test_every_numeric_flag_has_out_of_range_values():
    numeric = {dest for dest, flag in FLAG_SCHEMA.items()
               if flag.kwargs.get("type") in (int, float)}
    assert numeric == set(OUT_OF_RANGE)


def _one_error_line(argv, tmp_path):
    out = io.StringIO()
    code = main([arg.format(tmp=tmp_path) for arg in argv], out=out)
    lines = out.getvalue().splitlines()
    assert code == 2, lines
    assert len(lines) == 1 and "error: " in lines[0], lines
    assert not any(tmp_path.iterdir()), "wrote output for a rejected flag"
    return lines[0]


@pytest.mark.parametrize("argv", _out_of_range_cases())
def test_out_of_range_shared_flag_exits_2(argv, tmp_path):
    _one_error_line(argv, tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["mlffr", "--trace-sample", "0.5"], "--trace-sample needs --telemetry"),
    (["sweep", "--trace-sample", "0.05"], "--trace-sample needs --telemetry"),
    (["hardware", "--rows", "0"], "need at least one history row"),
    (["bench", "--reps", "0"], "--reps"),
    (["sweep", "--jobs", "0"], "error: --jobs: jobs must be >= 1"),
    (["bench", "--suite", "bogus"], "error: unknown suite"),
    (["reproduce", "99z"], "error: unknown figure"),
])
def test_flag_errors_name_the_problem(argv, message, tmp_path):
    assert message in _one_error_line(argv, tmp_path)


if __name__ == "__main__":  # re-record: python -m tests.test_cli_schema
    PINNED.write_text(json.dumps(parser_shape(build_parser()), indent=1,
                                 sort_keys=True) + "\n")
