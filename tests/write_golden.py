"""Rewrite ``tests/golden/<label>.json`` from the current code and print each moved key path.

Run from the repository root: ``PYTHONPATH=src python tests/write_golden.py``.
A change that moves report bytes runs it and quotes its output; the tests
only read the files.
"""

from test_golden import GOLDEN, GOLDEN_DIR, key_diff, render_golden


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for label in GOLDEN:
        path = GOLDEN_DIR / f"{label}.json"
        new = render_golden(label)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if new == old:
            continue
        if old is None:
            print(f"{label}: new file")
        else:
            print(f"{label}:", *key_diff(old, new), sep="\n  ")
        path.write_text(new, encoding="utf-8")


if __name__ == "__main__":
    main()
