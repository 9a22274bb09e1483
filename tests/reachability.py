"""Reachability audit: the src/ functions that Tier-1 reaches only through
tests other than test_cli.py and test_scripts.py, the two that drive
deskbench as a user does, through the CLI and the practice scripts.

A pytest plugin over sys.setprofile; its name does not match test_*, so
Tier-1 never loads it. Run it over Tier-1 with

    PYTHONPATH=src:tests python -m pytest -q -p reachability

The report ends pytest's output: the functions to delete, make an oracle
of, or keep with a reason; then those no test runs in its own process,
which are dead or run only in forked children, as CV folds and parse
ranges do (the profile does not follow a fork); then those on KEPT, with
their reasons. What importing deskbench.cli calls counts as reached by
all; what importing the test modules calls counts for none.
"""

import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
USER_TESTS = {"test_cli.py", "test_scripts.py"}

# module.qualname: why it stays though only other tests reach it
KEPT = {
    "deskbench.evaluation.run_plan": "paper-named: the five-instance plan",
    "deskbench.textfeat.sentiment_tag": "paper-named: the TextBlob-style polarity tag",
    "deskbench.prep.BacktranslationParaphraser.__init__":
        "paper-named: the back-translation augmenter",
    "deskbench.prep.BacktranslationParaphraser.__call__":
        "paper-named: the back-translation augmenter",
    "deskbench.mlp.loss_and_gradients": "acceptance criterion 02 calls it",
    "deskbench.dataio._formatted_range": "a forked child's body",
    "deskbench.dataio._parsed_range": "a forked child's body",
    "deskbench.evaluation._pickled_folds": "a forked child's body",
    "deskbench.forks._send": "a forked child's body",
    "deskbench.distbench.codec.params_frame_size": "perfbench counts frame bytes with it",
    "deskbench.distbench.codec.update_frame_size": "perfbench counts frame bytes with it",
    "deskbench.distbench.codec._fixed_size": "perfbench counts frame bytes with it",
}

# the code objects that importing deskbench.cli calls, that USER_TESTS call
# and that the other tests call
_reached = {"import": set(), "user": set(), "other": set()}
_current = [_reached["import"]]


def _profile(frame, event, arg):
    if event == "call":
        _current[0].add(frame.f_code)


sys.setprofile(_profile)
threading.setprofile(_profile)
import deskbench.cli  # noqa: E402,F401
_current[0] = set()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _current[0] = _reached["user" if item.path.name in USER_TESTS else "other"]
    yield
    _current[0] = set()


def _names(codes) -> set:
    """module.qualname of each src/ function among codes (no module or class
    bodies, lambdas or comprehensions)."""
    names = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if (path.is_relative_to(SRC) and code.co_flags & inspect.CO_OPTIMIZED
                and not code.co_name.startswith("<")):
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            names.add(module.removesuffix(".__init__") + "." + code.co_qualname)
    return names


def _defined() -> set:
    """module.qualname of every function src/ defines."""
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")
             for path in Path(SRC).rglob("*.py")]
    for code in codes:  # the list grows by the nested code objects
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return _names(codes)


def pytest_terminal_summary(terminalreporter):
    sys.setprofile(None)
    threading.setprofile(None)
    imported, user, other = (_names(codes) for codes in _reached.values())
    sections = {
        f"only tests other than {sorted(USER_TESTS)} reach": other - user - imported,
        "no test runs in its own process": _defined() - user - other - imported,
    }
    write = terminalreporter.write_line
    terminalreporter.write_sep("=", "reachability")
    for heading, names in sections.items():
        listed = sorted(names - KEPT.keys())
        write(f"{len(listed)} src/ functions {heading}:")
        for name in listed:
            write(f"- {name}")
    write("kept, with their reasons:")
    for name in sorted(KEPT.keys() & set().union(*sections.values())):
        write(f"- {name}: {KEPT[name]}")
