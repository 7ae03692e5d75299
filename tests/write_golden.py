"""Write this machine's entry of ``tests/golden.json``.

    PYTHONPATH=src:tests python tests/write_golden.py

runs ``verify --checks all`` on the configs of ``helpers.GOLDEN_CONFIGS``,
``construct --precision 200`` on the headline and the runs of
``helpers.GOLDEN_RUNS`` (the ``--artifacts`` verify reads that construct),
in a temporary directory, and stores the digests of their outputs under
``helpers.golden_key()`` (mpmath version and backend), keeping the other
keys.  ``test_cli.py::TestGolden`` compares every later run with them.
Run it only where the outputs are meant to change, and say in CHANGES.md
which fields changed and why.
"""

import json
import tempfile
from pathlib import Path

from lacunary.cli import main

from helpers import (
    GOLDEN, GOLDEN_CONFIGS, GOLDEN_CONSTRUCT, GOLDEN_CONSTRUCT_FILES, GOLDEN_RUNS,
    GOLDEN_VERIFY_FILES, golden_key, golden_run, golden_verify, output_digests
)


def digests(root: Path) -> dict:
    entry = {}
    for name, payload in GOLDEN_CONFIGS.items():
        config = root / f"{name}.json"
        config.write_text(json.dumps(payload))
        out = root / name
        main(["verify", "--config", str(config), "--out", str(out), "--checks", "all"])
        entry[golden_verify(name)] = output_digests(out, GOLDEN_VERIFY_FILES)
    out = root / "construct"
    main(["construct", "--config", str(root / "headline.json"), "--out", str(out), "--precision", "200"])
    entry[GOLDEN_CONSTRUCT] = output_digests(out, GOLDEN_CONSTRUCT_FILES)
    for name, (_, _, files) in GOLDEN_RUNS.items():
        entry[name] = output_digests(golden_run(root, name, out)[1], files)
    return entry


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        table[golden_key()] = digests(Path(root))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {golden_key()} to {GOLDEN}")
