"""The CLI contract under mangled input files.

Hypothesis mutates the bytes of a tiny valid config, a CSV pair and a trained
``model.txt``: it truncates a file, flips a byte, inserts bytes that are not
UTF-8 or replaces a cell with a non-finite literal or an integer too large
for a label array.  Each mutant goes through ``main`` for ``train``, ``eval``
and ``export-embeddings``.  The exit status is
0, 1 or 2; a failure prints one ``saflab: error:`` line (argparse usage for
exit 1) and no traceback; a mutant refused at load leaves no ``--out``.  A run
that diverges names the step or the evaluation and may leave a partial run
directory behind.  An extreme argument value (a seed span too large for a
list, a sample count or shift beyond what the generator can build, a model
size or run length beyond the config's caps, a config key set twice, a
negative non-finite float in either argument form) is refused the same way,
before anything is allocated or written, and so is an oversized label under
all four commands that load data.
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
from saflab.data import DomainSpec, csv_text, gen_two_moons, write_atomic

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
OVERSIZED = b"100000000000000000000000"  # beyond intp, so only a label cell fails
CELLS = [b"nan", b"inf", b"-inf", b"1e999", b"-1e999", OVERSIZED]
DIVERGED = re.compile(r"train step \d+: |evaluation at iteration \d+: ")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a 16-row CSV pair and the model a 4-step run trained on them."""
    d = tmp_path_factory.mktemp("inputs")
    write_atomic(d / FILES["source"], csv_text(gen_two_moons(DomainSpec(n_samples=16, seed=0))))
    write_atomic(d / FILES["target"],
                 csv_text(gen_two_moons(DomainSpec(n_samples=16, seed=0, rotation_deg=35.0))))
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
    st.tuples(st.just("cell"), st.floats(0, 1), st.sampled_from(CELLS)),
)


def run(command: str, d: Path) -> tuple[int, str]:
    argv = [command, "--config", str(d / FILES["config"])]
    if command in ("eval", "export-embeddings"):
        argv += ["--model", str(d / FILES["model"]), "--source", str(d / FILES["source"]),
                 "--target", str(d / FILES["target"])]
    if command != "eval":
        argv += ["--out", str(d / "out")]
    return call(argv)


def call(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit status and stderr; stdout is dropped."""
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


HUGE_SPAN = "0.." + str(10**30)
SHIFTS = [("--noise", "noise_sd"), ("--rotation", "rotation_deg"),
          ("--translate-x", "translation"), ("--translate-y", "translation")]
FLOATS = [*SHIFTS, ("--scale", "scale")]
NEGATIVE_NON_FINITE = ["-inf", "-Infinity", "-NaN"]
# name -> (text, what the refusal names) of configs a command must refuse
# before it builds a model; in argv the name stands in for the file's path
CONFIGS = {
    "wide.cfg": (f"[model]\nbottleneck_dim = {10**30}\n", "model.bottleneck_dim"),
    "cap.cfg": ("[model]\nsaf_dim = 4097\n", "model.saf_dim"),
    "deep.cfg": (f"[model]\nf_widths = 8,{10**30}\n", "model.f_widths"),
    "many.cfg": ("[model]\nsaf_bottlenecks = 65\n", "model.saf_bottlenecks"),
    "twice.cfg": ("[train]\niterations = 4\n\n[train]\niterations = 6\n",
                  "line 5: train.iterations is already set on line 2"),
    "long.cfg": (f"[train]\niterations = {10**23}\n", "train.iterations"),
    # every width at its own cap: 1,191,485,441 parameters, 8.9 GiB per float64 vector
    "huge.cfg": ("[model]\ninput_dim = 4096\nf_widths = 4096,4096\nbottleneck_dim = 4096\n"
                 "saf_dim = 4096\nnum_classes = 4096\nsaf_bottlenecks = 64\n", "model.saf_dim"),
}
# a run too long to end and a model above the parameter cap, each refused by all four
# commands that read a config; their rows come last in the table below, so the ids of
# the rows above do not depend on them
LONG, HUGE = "long.cfg", "huge.cfg"

LOADED = ["--model", "model.txt", "--source", "src.csv", "--target", "tgt.csv"]


@pytest.mark.parametrize("argv, names", [
    (["train", "--config", "lab.cfg", "--seeds", HUGE_SPAN], "--seeds"),
    (["ablate", "--config", "lab.cfg", "--seeds", HUGE_SPAN], "--seeds"),
    (["gen-data", "--samples", str(10**20)], "n_samples"),
    (["gen-data", "--kind", "gaussian_blobs", "--samples", str(10**23)], "n_samples"),
    (["gen-data", "--scale", "1e308"], "scale"),
    (["gen-data", "--seed", "-1"], "seed"),
    *((["gen-data", f"{flag}={sign}1e308"], field) for flag, field in SHIFTS for sign in "+-"),
    *((["gen-data", flag, "-1e308"], field) for flag, field in SHIFTS),
    *(([command, "--config", cfg], CONFIGS[cfg][1]) for command in ("train", "ablate")
      for cfg in CONFIGS if cfg not in (LONG, HUGE)),
    *(([command, "--config", cfg, *LOADED], CONFIGS[cfg][1])
      for command in ("eval", "export-embeddings") for cfg in ("wide.cfg", "twice.cfg")),
    # spaced or joined, one refusal naming the field, not a usage error
    *((["gen-data", *form], f"{field} must be finite") for flag, field in FLOATS
      for value in NEGATIVE_NON_FINITE for form in ([flag, value], [f"{flag}={value}"])),
    *(([command, "--config", cfg, *(LOADED if command in ("eval", "export-embeddings") else [])],
       CONFIGS[cfg][1]) for cfg in (LONG, HUGE)
      for command in ("train", "ablate", "eval", "export-embeddings")),
])
def test_an_extreme_value_exits_with_one_message(tmp_path, argv, names):
    # every value here fails before any array or seed list is allocated
    out = tmp_path / "out"
    for name, (text, _) in CONFIGS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in CONFIGS else arg for arg in argv]
    code, err = call([*argv, *([] if argv[0] == "eval" else ["--out", str(out)])])
    lines = err.splitlines()
    assert code in (1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("saflab: error: "), err
    else:
        assert lines[0].startswith("usage: ") and sum("error:" in ln for ln in lines) == 1, err
    assert names in lines[-1], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "export-embeddings"])
def test_an_oversized_label_exits_two_at_load(inputs, tmp_path, command):
    for name, raw in inputs.items():
        (tmp_path / FILES[name]).write_bytes(raw)
    src = tmp_path / FILES["source"]
    header, first, rest = src.read_bytes().split(b"\n", 2)
    src.write_bytes(b"\n".join([header, first.rsplit(b",", 1)[0] + b"," + OVERSIZED, rest]))
    code, err = run(command, tmp_path)
    assert code == 2 and err.count("\n") == 1, (code, err)
    assert err.startswith(f"saflab: error: {src}: row 2: label {OVERSIZED.decode()} is not in ")
    assert not (tmp_path / "out").exists()
