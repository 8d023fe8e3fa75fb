"""Format version 1 model files stay loadable, byte-stable and checked against --context.

``fixtures/v1/events.tsv`` is ``conftest.write_events(path, with_category=True)``.
Each model file was trained on it with

    itals train --input events.tsv --output <file> <flags> \\
        --k 4 --epochs 2 --lambda 0.1 --seed 3 --split-ts 2332800

and the flags listed in ``FIXTURES`` (``--algo ica`` for the iCA file).
"""

import json
from pathlib import Path

import pytest

from itals import load_model, save_model
from itals.cli import main

from conftest import DAY

V1 = Path(__file__).parent / "fixtures" / "v1"

# file, its own context, a context that does not match it
FIXTURES = [
    ("timeband-itals.itals", "timeband:uniform:6", "sequence:2:0.5"),
    ("sequence-itals.itals", "sequence:2:0.5", "timeband:uniform:4"),
    ("timeband-ica.itals", "timeband:uniform:6", "timeband:uniform:4"),
]


@pytest.mark.parametrize("name, context, other", FIXTURES)
def test_v1_model_file(name, context, other, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ITALS_LOG", "warning")
    path = V1 / name
    copy = tmp_path / name
    save_model(load_model(path), copy)
    assert copy.read_bytes() == path.read_bytes()

    def evaluate(ctx):
        argv = ["eval", "--model", path, "--input", V1 / "events.tsv", "--split-ts", 27 * DAY]
        return main([str(a) for a in argv + ["--context", ctx, "--exclude-seen"]])

    assert evaluate(context) == 0
    assert json.loads(capsys.readouterr().out)["users"] > 0
    assert evaluate(other) == 1
    assert capsys.readouterr().out == ""
