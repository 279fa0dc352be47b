"""Recompute perfbench/digests.json from the current galmod sources.

    python3 perfbench/make_digests.py

The stored digests pin the exact bytes of every wide_modules round trip
and padic_towers datum and decomposition, as the galmod CLI writes them.
Regenerate them only for a change that is meant to alter those bytes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    items = [("roundtrip", q) for q in workloads.WIDE_ROUNDTRIPS]
    items += [("tower", t) for t in workloads.TOWERS]
    digests = {
        workloads.item_key(item): workloads.output_digest(*workloads.datum_outputs(item))
        for item in items
    }
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests")


if __name__ == "__main__":
    main()
