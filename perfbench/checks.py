"""Output checks for one op.

- exact outputs (rationals, graph files, graphon, coupling and CSV text)
  must match the stored reference digest byte for byte;
- `spectrum` lines must match numpy.linalg.eigvalsh of the kernel matrix
  within 1e-9;
- a Monte Carlo mean must lie within 5 standard errors of the exact density
  stored in the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

SPECTRUM_TOL = 1e-9
MC_SIGMAS = 5.0


def digest(stdout: str, out_file: bytes | None) -> str:
    h = hashlib.sha256(stdout.encode())
    if out_file is not None:
        h.update(b"\0" + out_file)
    return h.hexdigest()[:32]


def check_spectrum(graphon_text: str, stdout: str) -> str | None:
    import numpy as np

    data = json.loads(graphon_text)
    w = np.array([float(Fraction(x)) for x in data["weights"]])
    v = np.array([[float(Fraction(x)) for x in row] for row in data["values"]])
    d = np.sqrt(w)
    expect = np.sort(np.linalg.eigvalsh(np.outer(d, d) * v))
    try:
        got = [float(line) for line in stdout.split()]
    except ValueError:
        return "spectrum output is not one number per line"
    if len(got) != len(expect):
        return f"spectrum has {len(got)} eigenvalues, expected {len(expect)}"
    for a, b in zip(got, got[1:]):
        if abs(b) > abs(a) + SPECTRUM_TOL:
            return "eigenvalues are not in order of descending magnitude"
    err = float(np.max(np.abs(np.sort(got) - expect)))
    if err > SPECTRUM_TOL:
        return f"eigenvalues differ from eigvalsh by {err:.3e}"
    return None


_MC_LINE = re.compile(r"^(\S+) ± (\S+) \((\d+)\)$")


def check_mc(exact: str, samples: int, stdout: str) -> str | None:
    m = _MC_LINE.match(stdout.strip())
    if not m:
        return f"unparseable Monte Carlo output {stdout.strip()[:60]!r}"
    mean, stderr, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
    if n != samples:
        return f"Monte Carlo used {n} samples, asked for {samples}"
    gap = abs(mean - float(Fraction(exact)))
    if not math.isfinite(mean) or gap > MC_SIGMAS * stderr:
        return f"Monte Carlo mean {mean} is {gap:.3e} from the exact {exact} (stderr {stderr:.3e})"
    return None


def check_output(op, ref: dict, stdout: str, out_file: bytes | None) -> str | None:
    """None when the op's output is right, else what is wrong."""
    if op.check == "spectrum":
        return check_spectrum(op.files["h.json"], stdout)
    if op.check == "mc":
        return check_mc(ref["exact"], int(op.argv[op.argv.index("--mc") + 1]), stdout)
    if digest(stdout, out_file) != ref["sha"]:
        shown = stdout.strip()[:60]
        return f"output differs from the reference (got {shown!r})"
    return None
