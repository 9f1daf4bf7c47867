"""The CLI contract under mangled input files.

Hypothesis mutates the bytes of a tiny valid config, a CSV pair and a trained
``model.txt``: it truncates a file, flips a byte, inserts bytes that are not
UTF-8 or replaces a cell with a non-finite literal.  Each mutant goes through
``main`` for ``train``, ``eval`` and ``export-embeddings``.  The exit status is
0, 1 or 2; a failure prints one ``saflab: error:`` line (argparse usage for
exit 1) and no traceback; a mutant refused at load leaves no ``--out``.  A run
that diverges names the step or the evaluation and may leave a partial run
directory behind.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflab.cli import main
from saflab.data import DomainSpec, gen_two_moons, save_csv

# [data] comes last and names no default file, so a truncated config either
# fails to find its data or keeps every line: no mutant trains for the
# default 3000 steps
CONFIG = """[train]
iterations = 4
batch_size = 4
eval_every = 2
base_lr = 0.004

[model]
backbone = mdd
f_widths = 5,4
bottleneck_dim = 3
saf_dim = 3
dropout = 0.1

[data]
source = src.csv
target = tgt.csv
"""

FILES = {"config": "lab.cfg", "source": "src.csv", "target": "tgt.csv", "model": "model.txt"}
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
NON_FINITE = [b"nan", b"inf", b"-inf", b"1e999", b"-1e999"]
DIVERGED = re.compile(r"train step \d+: |evaluation at iteration \d+: ")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a 16-row CSV pair and the model a 4-step run trained on them."""
    d = tmp_path_factory.mktemp("inputs")
    save_csv(gen_two_moons(DomainSpec(n_samples=16, seed=0)), d / FILES["source"])
    save_csv(gen_two_moons(DomainSpec(n_samples=16, seed=0, rotation_deg=35.0)),
             d / FILES["target"])
    (d / FILES["config"]).write_text(CONFIG, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(d / FILES["config"]), "--out", str(d / "run")]) == 0
    shutil.copy(d / "run" / "seed_0" / "model.txt", d / FILES["model"])
    return {name: (d / file).read_bytes() for name, file in FILES.items()}


def mutate(raw: bytes, mutation) -> bytes:
    kind, at, what = mutation
    pos = int(at * len(raw))
    if kind == "truncate":
        return raw[:pos]
    if kind == "flip":
        return raw[:pos] + bytes([raw[pos] ^ what]) + raw[pos + 1:] if pos < len(raw) else raw
    if kind == "insert":
        return raw[:pos] + what + raw[pos:]
    cells = list(re.finditer(rb"[^,\s=]+", raw))  # "cell": replace one token
    cell = cells[int(at * len(cells)) % len(cells)]
    return raw[:cell.start()] + what + raw[cell.end():]


MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1), st.none()),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.floats(0, 1), st.sampled_from(NOT_UTF8)),
    st.tuples(st.just("cell"), st.floats(0, 1), st.sampled_from(NON_FINITE)),
)


def run(command: str, d: Path) -> tuple[int, str]:
    argv = [command, "--config", str(d / FILES["config"])]
    if command != "train":
        argv += ["--model", str(d / FILES["model"]), "--source", str(d / FILES["source"]),
                 "--target", str(d / FILES["target"])]
    if command != "eval":
        argv += ["--out", str(d / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("file, command", [
    (file, command) for file in FILES for command in ("train", "eval", "export-embeddings")
    if (file, command) != ("model", "train")  # train reads no model
])
@settings(max_examples=40, deadline=None)
@given(mutation=MUTATIONS)
def test_a_mutant_exits_with_a_message_or_runs(inputs, file, command, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, raw in inputs.items():
            (d / FILES[name]).write_bytes(mutate(raw, mutation) if name == file else raw)
        code, err = run(command, d)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("saflab: error: ") and err.count("\n") == 1, err
            assert not (d / "out").exists() or DIVERGED.search(err), err
        elif code == 1:
            assert err.startswith("usage: "), err
