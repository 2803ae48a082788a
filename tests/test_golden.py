"""Golden bytes: the sha256 of every CLI output on small seeded fixtures.

The digests pin the exact report bytes, so a refactor that changes any
number, key, format or line ending fails here.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from splitrel.cli import main

BATTERY = ("battery", "--inputs", "t0.csv", "t1.csv", "t2.csv", "--weights")
SIMULATE = ("simulate", "--model", "D3", "--N", "40", "--n", "9", "--seed", "5",
            "--output", "sim.csv")

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
                         "109e56eaddaf3956994b047a361edcdf45dea6dd02ccaaca47f3b2d547bbed9d"),
    "truescore.json": (("truescore", "--input", "m.csv", "--percentile-of", "12"),
                       "dea8d0408b373b2fe82c3124aa64090cce7e5c429f1354cefdf3e4eb75046502"),
    "truescore.csv": (("truescore", "--input", "m.csv", "--format", "csv"),
                      "84a71a8fd6afdf407d86b0238fb0a034b3033a5f1c6d4be1b322411d3e89e7e8"),
    "battery-optimal.json": (BATTERY + ("optimal",),
                             "efd70c4241bbc432724f93b877e4ffa5051cdd0ef4e6170ea5d0de26036e415c"),
    "battery-nonneg.json": (BATTERY + ("nonneg",),
                            "f6026249c6f829a151190badec8ccba10c9ab5506fd0470b1a6a7421050089a2"),
    "battery-eigen-cov.json": (BATTERY + ("eigen-cov",),
                               "49a333303afeb4d645f9cfd08e3e3da859db377d8d938fc790090a52988ca743"),
    "battery-eigen-corr.json": (BATTERY + ("eigen-corr",),
                                "f5aad5ad360ce45d3d8485a849c830d765bb310e8aa9ac229e226d13b0936713"),
    "battery-equal.json": (BATTERY + ("equal",),
                           "6b5f7a0c47b63123e4a787b5c43ac2e07bb025d201a5282f4b0212d4b75cc483"),
    "simulate.csv": (SIMULATE + ("@sim.csv",),
                     "695e48fc7289752cb8078df9ce10729030e2ab6ec4737c6e04d1ea3ecfae727a"),
    "simulate.meta.json": (SIMULATE + ("@sim.csv.meta.json",),
                           "55bb22a24df55883fe3ca04b0b4ff7de706a9a9d81e86b04e99f72dc41d7dcc2"),
    # a constant g half: null r_gh, F statistics and differences, plus warnings
    "reliability-null.json": (("reliability", "--input", "c.csv"),
                              "14fbb22f54d377a6c62d4d5b4606448b3ec12090ad7fcc270ede0394f34b5dc0"),
    "truescore-null.json": (("truescore", "--input", "c.csv"),
                            "77933843408cec3f30c9c43daca50ba1586fde42d0d3663d64a59e52dbaad1f2"),
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


def cli_output(argv: tuple[str, ...]) -> bytes:
    target = None
    if argv[-1].startswith("@"):
        argv, target = argv[:-1], argv[-1][1:]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    if target is not None:
        return Path(target).read_bytes()
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(name, fixtures):
    argv, digest = GOLDEN[name]
    assert hashlib.sha256(cli_output(argv)).hexdigest() == digest
