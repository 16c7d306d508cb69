"""Bit-identity of the library's outputs: ``scripts/identity_digest.py
--seed 1`` prints one sha256 per section of seeded outputs, and this test
compares it with the recorded ``identity_digest_seed1.txt``.

A change that moves any output bit on purpose re-records the file
(``PYTHONPATH=src python scripts/identity_digest.py --seed 1 >
tests/identity_digest_seed1.txt``) and names the sections that moved.  The
digest was recorded on x86-64 Linux with glibc's libm; another libm may
round a sine differently and move a section without any change to the
code."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identity_digest_seed_1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "identity_digest.py"), "--seed", "1"],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    want = (Path(__file__).parent / "identity_digest_seed1.txt").read_text()
    assert run.stdout.splitlines() == want.splitlines()
