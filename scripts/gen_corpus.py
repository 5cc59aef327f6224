#!/usr/bin/env python3
"""Regenerate the interchange-format corpus under corpus/.

The fixtures are ``corpus_fixtures`` in ``tests/helpers.py``.  The files
are goldens: the acceptance suite rebuilds each fixture and
requires byte equality, so run this after intentionally changing a
constructor or an emitter and commit the result.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import corpus_fixtures  # noqa: E402
from opetope_kit import emit_dsl, emit_json  # noqa: E402


def main() -> None:
    out_dir = ROOT / "corpus"
    out_dir.mkdir(exist_ok=True)
    for name, complex_ in corpus_fixtures().items():
        (out_dir / f"{name}.dsl").write_text(emit_dsl(complex_), encoding="utf-8")
        (out_dir / f"{name}.json").write_text(emit_json(complex_) + "\n",
                                              encoding="utf-8")
        print(f"wrote {name} ({len(complex_)} faces)")


if __name__ == "__main__":
    main()
