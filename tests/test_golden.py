"""Golden bytes: the sha256 of every CLI output on small seeded fixtures.

The digests pin the exact report bytes, so a refactor that changes any
number, key, format or line ending fails here.  ``scale`` rows carry
wall-clock timings; those two columns are removed before hashing.
"""

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from splitrel.cli import main

TIMING_COLUMNS = ("split_seconds", "total_seconds")
BATTERY = ("battery", "--inputs", "t0.csv", "t1.csv", "t2.csv", "--weights")
SIMULATE = ("simulate", "--model", "D3", "--N", "40", "--n", "9", "--seed", "5",
            "--output", "sim.csv")
SCALE = ("scale", "--model", "D3", "--sizes", "40,9", "60,10", "--seed", "3")

# name -> (argv, sha256 of the output).  The file named after "@" is
# hashed instead of stdout.
GOLDEN = {
    "split.json": (("split", "--input", "m.csv"),
                   "70aba02782fb8699a39c3044b7c793a54c95aad6a08f04b6629296f82bf452de"),
    "split.csv": (("split", "--input", "m.csv", "--format", "csv"),
                  "c25788fc4bf92cd4383e78b99280eabda828e4daecb562cab88224d763810f72"),
    "split-product.json": (("split", "--input", "m.csv", "--criterion", "product"),
                           "a098f3bb92f93f368497e52ea9606f2832f0d8596082a473f176f607bb6310b8"),
    "split-policy-all.json": (("split", "--input", "m.csv", "--policy", "all",
                               "--max-iter", "3"),
                              "6ba1f28f088bbf076e5aee248bbd5bad512065a061e5077f6ea26e7ccbcd1711"),
    "reliability.json": (("reliability", "--input", "m.csv", "--bin-width", "3"),
                         "c6b98d671fe6062df00d2294653fd0d7fef36aad651ca49494736e9906aae84f"),
    "truescore.json": (("truescore", "--input", "m.csv", "--percentile-of", "12"),
                       "a73d5614168da6fb7cbb4a00cef5a7eb25bab293d445e277bdd442dfed492e44"),
    "truescore.csv": (("truescore", "--input", "m.csv", "--format", "csv"),
                      "2f4245ffd91727e77f70851c30c9e268ca10d46f58befc28b484b6721c02234f"),
    "battery-optimal.json": (BATTERY + ("optimal",),
                             "8fd61a1ba43574ef2e774700a35f2c1a6470f361691347f6be25fb9b561a7204"),
    "battery-nonneg.json": (BATTERY + ("nonneg",),
                            "6373587925a39c0c4e7adffa33f7091ee0dc5a2382e078fb7d570bc301a0ba7e"),
    "battery-eigen-cov.json": (BATTERY + ("eigen-cov",),
                               "a4cdde5682f0065c80e3df87c5c78cd14d4b3e35bf83245e8a184e1a2687e8b5"),
    "battery-eigen-corr.json": (BATTERY + ("eigen-corr",),
                                "ef98748c505f0d1c05bd93b50d80608aa7b8bdb40faf876cf0be07c90f0b7051"),
    "battery-equal.json": (BATTERY + ("equal",),
                           "fba209ccb93291dbdeab3f2cac14b52536cef6fac950f319e66d0dc14197c3d8"),
    "simulate.csv": (SIMULATE + ("@sim.csv",),
                     "695e48fc7289752cb8078df9ce10729030e2ab6ec4737c6e04d1ea3ecfae727a"),
    "simulate.meta.json": (SIMULATE + ("@sim.csv.meta.json",),
                           "55bb22a24df55883fe3ca04b0b4ff7de706a9a9d81e86b04e99f72dc41d7dcc2"),
    "scale.json": (SCALE,
                   "bb4e8ca0dd090bb9f254620c085f248d10729cab7350ba1ac476e52a80596c53"),
    "scale.csv": (SCALE + ("--format", "csv"),
                  "0279fb1927b2bb7bb08f69aedb168eb03b367d193a8709a7d1e894bc0cf853bc"),
    # a constant g half: null r_gh, F statistics and differences, plus warnings
    "reliability-null.json": (("reliability", "--input", "c.csv"),
                              "14fbb22f54d377a6c62d4d5b4606448b3ec12090ad7fcc270ede0394f34b5dc0"),
    "truescore-null.json": (("truescore", "--input", "c.csv"),
                            "0e090db195200cb01123035b944fc41392c684f09c6fa57ca913c77859d7f6db"),
}


def _write_matrix(path: Path, entries: np.ndarray) -> None:
    # plain text, so the fixtures do not depend on the writer under test
    path.write_text("".join(",".join(str(int(v)) for v in row) + "\n" for row in entries))


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    """Seeded score matrices in the working directory, named by relative path
    so the input digests in each envelope do not depend on tmp_path."""
    rng = np.random.default_rng(2015)
    ability = rng.random(60)
    _write_matrix(tmp_path / "m.csv", rng.random((60, 21)) < ability[:, None])
    for i, n_items in enumerate((12, 15, 10)):
        _write_matrix(tmp_path / f"t{i}.csv", rng.random((60, n_items)) < ability[:, None])
    (tmp_path / "c.csv").write_text("1,0,1,1\n1,0,1,1\n1,0,0,0\n1,0,0,0\n0,1,1,1\n0,1,0,0\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _without_timings(name: str, text: str) -> str:
    if name.endswith(".json"):
        doc = json.loads(text)
        for row in doc["report"]["rows"]:
            for key in TIMING_COLUMNS:
                del row[key]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, col in enumerate(rows[0]) if col not in TIMING_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def cli_output(name: str, argv: tuple[str, ...]) -> bytes:
    target = None
    if argv[-1].startswith("@"):
        argv, target = argv[:-1], argv[-1][1:]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    if target is not None:
        return Path(target).read_bytes()
    text = out.getvalue()
    if argv[0] == "scale":
        text = _without_timings(name, text)
    return text.encode("utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(name, fixtures):
    argv, digest = GOLDEN[name]
    assert hashlib.sha256(cli_output(name, argv)).hexdigest() == digest
