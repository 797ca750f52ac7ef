"""Rewrite the golden files that soqd's tests pin.

    python3 tools/regen_golden.py [--out DIR]

Writes the 12 preset panels, ``figures/fig{1,2}{a..f}.csv`` and ``.svg``,
through the production sweep path (they pin byte-level determinism), and
``derived_values.json``: the dense oracle's F(0, 2) at the preset
couplings for sectors 1 and 10 and for the coherent state (0, sqrt 10)
(Poisson mixture, cutoff 120), and the closed-form 1/e decay times of
coherent states at n = 10, 100 and 10^4, which only the closed form
reaches.  The default output is this checkout's ``tests/golden``.

Pin rule: LAPACK and BLAS promise no bits, so the oracle's re and im move
by a few ULP under other kernels.  A fresh re or im within 1e-14 of the
value already pinned in DIR keeps the pinned value, so a regeneration on
another host leaves those bytes as they were.  Every other value, and
every panel byte, is written as computed.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from soqd import (  # noqa: E402
    CoherentState,
    decoherence_factor_oracle_coherent,
    decoherence_factor_oracle_fock,
    decoherence_time,
)
from soqd.cli import FIGURE_PARAMS, PANEL_SETTINGS, reproduce_figure  # noqa: E402

#: a regenerated oracle re or im this close to the pinned one keeps its pin
ORACLE_PIN_TOL = 1e-14


def pinned_parts(path: str) -> dict:
    """{(key, "re" or "im"): float} already pinned at ``path``; {} without a readable file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return {(key, part): value for key, entry in json.load(fh).items()
                    for part, value in entry.items()
                    if part in ("re", "im") and isinstance(value, float)}
    except (FileNotFoundError, ValueError, AttributeError):
        return {}


def regenerate_golden(out_dir: str) -> list:
    """Write every golden file under ``out_dir``; returns the panel CSV
    paths and the derived-values path."""
    fig_dir = os.path.join(out_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    written = [reproduce_figure(figure, panel, fig_dir)["csv"]
               for figure in (1, 2) for panel in PANEL_SETTINGS]

    p = FIGURE_PARAMS
    m22_ref = decoherence_factor_oracle_fock(p, 1, 0.0, 2.0)[0]
    fock10_ref = decoherence_factor_oracle_fock(p, 10, 0.0, 2.0)[0]
    coherent_ref = decoherence_factor_oracle_coherent(
        p, complex(math.sqrt(10)), 0.0, 2.0, cutoff=120)
    tau_decay = {
        str(n): decoherence_time(p, CoherentState(0j, complex(math.sqrt(n))), 0.0)
        for n in (10, 100, 10_000)
    }
    derived = {
        "m22_preset_t0_tp2": {
            "pinned_by": "dense oracle, sector 1",
            "re": m22_ref.real, "im": m22_ref.imag,
        },
        "fock10_f_preset_t0_tp2": {
            "pinned_by": "dense oracle, sector 10",
            "re": fock10_ref.real, "im": fock10_ref.imag,
        },
        "coherent_sqrt10_f_preset_t0_tp2": {
            "pinned_by": "dense oracle, Poisson mixture, cutoff 120",
            "re": coherent_ref.value[0].real, "im": coherent_ref.value[0].imag,
            "tail_bound": coherent_ref.tail_bound,
        },
        "coherent_tau_decay_t0": {
            "pinned_by": "closed-form threshold search (1/e)",
            "values": tau_decay,
        },
    }
    derived_path = os.path.join(out_dir, "derived_values.json")
    for (key, part), old in pinned_parts(derived_path).items():
        if abs(derived.get(key, {}).get(part, math.inf) - old) <= ORACLE_PIN_TOL:
            derived[key][part] = old
    with open(derived_path, "w", encoding="utf-8") as fh:
        json.dump(derived, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return written + [derived_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "tests", "golden"),
                        help="directory to write (default: this checkout's tests/golden)")
    args = parser.parse_args(argv)
    for path in regenerate_golden(args.out):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
