"""README's examples stay runnable, and its lists of builder caches and of
check ids current.

The python block of "Library tour" is executed as written, and each command
of the CLI block runs through ``cli.main`` in a directory holding the
``T1.csv`` and ``T2.json`` files that its ``eval`` example names.
"""

import re
import shlex
from pathlib import Path

import pytest

from orbsemi.cli import main
from orbsemi.orbital import AXIOM_IDS, DERIVED_IDS, SampleConfig
from orbsemi.representation import RepresentationBuilder, represent
from orbsemi.tables import TableAlgebra

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _cli_commands():
    section = README.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("orbsemi ")]


def test_readme_has_the_examples():
    assert len(_blocks("python")) == 1
    assert len(_cli_commands()) == 8


def test_python_block_runs(capsys):
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    assert "A1: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "T1.csv").write_text("x1,x2\na,b\nb,a\n")
    (tmp_path / "T2.json").write_text('{"schema": ["x3"], "rows": [["a"]]}\n')
    monkeypatch.chdir(tmp_path)
    # the mutant example is a failing replay: its check finds a counterexample
    want = 1 if "--mutate" in argv else 0
    assert main(argv) == want
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_readme_names_every_builder_cache():
    section = README.split("\n### Representation and depth truncation\n", 1)[1]
    section = section.split("\n#", 1)[0]
    documented = re.findall(r"^- `(_\w+)`", section, re.M)
    builder = RepresentationBuilder(TableAlgebra({"a"}))
    builder.build_H()
    # the symbols' print names are a dict too, but not a cache
    caches = [name for name, value in vars(builder).items()
              if isinstance(value, dict) and name != "_symbol_names"]
    assert sorted(documented) == sorted(caches)


def test_readme_names_every_check_id():
    # every id that a report can carry: the axioms, the derived properties and
    # whatever ``represent`` reports (rep-*, L1-L4, quotient-*, emb-*), with
    # the quasi/ and full/ level prefixes taken off
    section = README.split("\n### Check identifiers\n", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"`([\w-]+)`", section))
    for prefix, lo, hi in re.findall(r"`([A-Z])(\d+)`-`\1(\d+)`", section):
        documented.update(f"{prefix}{i}" for i in range(int(lo), int(hi) + 1))
    report = represent(TableAlgebra({"a"}), SampleConfig(cases=20))
    ids = {c.check_id.rpartition("/")[2] for c in report.checks}
    assert {"rep-membership", "L4", "quotient-exchange", "emb-bounds"} <= ids
    assert set(AXIOM_IDS) | set(DERIVED_IDS) | ids <= documented
