"""CLI reports pinned byte for byte.

report_golden.json holds the sha256 of the stdout of every CLI call
below, and of each file a call writes besides its drawing (the domain
files save_domain writes and the pack --trace certificate).  The calls
run in a scratch directory with relative paths, so the reports, which
name their input files, are the same on every machine.  Regenerate it
only when a report is meant to change:

    PYTHONPATH=src:tests python tests/test_report_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from echtoric import ToricDomain, save_domain
from echtoric.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "report_golden.json"

# files the calls read, made in the scratch directory by save_domain
DOMAINS = {
    "e1_300.json": ToricDomain.ellipsoid(1, 300),
    "e1_3000.json": ToricDomain.ellipsoid(1, 3000),
    "e1_200.json": ToricDomain.ellipsoid(1, 200),
    "e1_33_10.json": ToricDomain.ellipsoid(1, "33/10"),
    "ball3.json": ToricDomain.ball(3, kind="convex"),
}
# files the calls read, copied from tests/data
COPIED = ("omega1.json", "omega2.json", "square.json", "delta2.json")

CALLS = {
    "embed omega1 omega2 --report 12 --scale-search 1/100":
        ["embed", "omega1.json", "omega2.json", "--report", "12",
         "--scale-search", "1/100"],
    "embed E(1,300) B(3) --report 8 --scale-search 1/1000":
        ["embed", "e1_300.json", "ball3.json", "--report", "8",
         "--scale-search", "1/1000"],
    "embed E(1,33/10) square --scale-search 1/1000":
        ["embed", "e1_33_10.json", "square.json", "--scale-search", "1/1000"],
    "--approx embed omega1 omega2 --report 6 --scale-search 1/64":
        ["--approx", "embed", "omega1.json", "omega2.json", "--report", "6",
         "--scale-search", "1/64"],
    "--approx embed E(1,300) B(3)":
        ["--approx", "embed", "e1_300.json", "ball3.json"],
    "pack 5 3,2,2,1,2/3,2/3,1/3,1/3 --trace":
        ["pack", "--target", "5", "--balls", "3,2,2,1,2/3,2/3,1/3,1/3",
         "--trace", "cert.json"],
    "--approx pack 1 1,1/2":
        ["--approx", "pack", "--target", "1", "--balls", "1,1/2"],
    "weights E(1,3000) --svg":
        ["weights", "e1_3000.json", "--svg", "w.svg"],
    "--approx weights omega1":
        ["--approx", "weights", "omega1.json"],
    "caps square --k 12 --oracle":
        ["caps", "square.json", "--k", "12", "--oracle"],
    "--approx caps delta2 --k 8 --oracle":
        ["--approx", "caps", "delta2.json", "--k", "8", "--oracle"],
    "svg E(1,200) --approximation 1/12":
        ["svg", "e1_200.json", "a.svg", "--approximation", "1/12"],
    "svg omega2 --approximation 1/12":
        ["svg", "omega2.json", "a.svg", "--approximation", "1/12"],
}
# files a call writes, hashed after it
WRITES = {"pack 5 3,2,2,1,2/3,2/3,1/3,1/3 --trace": "cert.json"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_hashes(workdir: Path) -> dict[str, str]:
    """case -> sha256, with every call run in workdir."""
    table = {}
    for name, dom in DOMAINS.items():
        save_domain(dom, workdir / name)
        table[f"save_domain {name}"] = _sha((workdir / name).read_bytes())
    for name in COPIED:
        shutil.copyfile(DATA / name, workdir / name)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv in CALLS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, case
            table[case] = _sha(out.getvalue().encode("utf-8"))
            if case in WRITES:
                written = (workdir / WRITES[case]).read_bytes()
                table[f"{case} {WRITES[case]}"] = _sha(written)
    finally:
        os.chdir(old)
    return table


def test_every_report_matches_its_golden_hash(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = report_hashes(tmp_path)
    assert sorted(seen) == sorted(golden)
    bad = [case for case in golden if seen[case] != golden[case]]
    assert not bad, bad


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = report_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{len(table)} reports -> {GOLDEN}")
