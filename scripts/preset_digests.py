#!/usr/bin/env python
"""One sha256 per preset run directory, and the test that a change moved
only the outputs it declares (of presets, or of any `<sha256> <name>`
listing, such as the benchmark workloads' digests at one seed).

    python scripts/preset_digests.py digest RUN_DIR...
        prints `<sha256> <name>` for each run directory: every file, by its
        path in the directory and its bytes, with manifest.json hashed
        without its wall_time_s.

    python scripts/preset_digests.py compare PARENT_DIGESTS DIGESTS CHANGES_MD PARENT_CHANGES_MD
        compares two `digest` listings, the parent commit's and this one's.
        CHANGES_MD must be PARENT_CHANGES_MD with lines appended (the newest
        entry); an appended line that starts with `OUTPUT CHANGE:` declares
        the presets it lists after the tag, separated by commas:

            OUTPUT CHANGE: neumann-logistic, fig-s4f2-D0.5

        Exits 1, one line per fault, when a preset's digest moved (or it is
        in one listing only) and no such line names it, when a named preset
        did not move, or when CHANGES_MD does not start with
        PARENT_CHANGES_MD.
"""

import hashlib
import json
import sys
from pathlib import Path

DECLARATION = "OUTPUT CHANGE:"


def digest(out: Path) -> str:
    """The run directory's sha256, as the module docstring says."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def read_digests(path) -> dict[str, str]:
    """{preset: digest} from a `digest` listing."""
    rows = (line.split() for line in Path(path).read_text().splitlines())
    return {name: value for value, name in rows}


def declared(names, changes: str, parent_changes: str) -> set[str]:
    """The presets of `names` that the `OUTPUT CHANGE:` lines appended to
    `parent_changes` in `changes` list."""
    if not changes.startswith(parent_changes):
        raise ValueError("CHANGES.md does not start with the parent commit's CHANGES.md; "
                         "an entry may only be appended")
    listed = {name.strip() for line in changes[len(parent_changes):].splitlines()
              if line.startswith(DECLARATION)
              for name in line.removeprefix(DECLARATION).split(",")}
    return listed & set(names)


def compare(parent: dict[str, str], current: dict[str, str], named: set[str]) -> list[str]:
    """One line per fault: a moved preset not named, a named preset not moved."""
    moved = {name for name in parent.keys() | current.keys()
             if parent.get(name) != current.get(name)}
    return ([f"{name}: output differs from the parent commit's, "
             f"and no {DECLARATION} line names it" for name in sorted(moved - named)]
            + [f"{name}: named by an {DECLARATION} line, "
               f"but its output equals the parent commit's" for name in sorted(named - moved)])


def main(argv=None) -> int:
    command, *args = sys.argv[1:] if argv is None else argv
    if command == "digest":
        for out in map(Path, args):
            print(digest(out), out.name)
        return 0
    if command != "compare" or len(args) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    parent_list, current_list, changes, parent_changes = args
    parent, current = read_digests(parent_list), read_digests(current_list)
    try:
        named = declared(parent.keys() | current.keys(), Path(changes).read_text(),
                         Path(parent_changes).read_text())
    except ValueError as err:
        print(f"output comparison failed: {err}", file=sys.stderr)
        return 1
    faults = compare(parent, current, named)
    for line in faults:
        print(f"output comparison failed: {line}", file=sys.stderr)
    if not faults:
        moved = ", ".join(sorted(named)) or "none"
        print(f"{len(current)} outputs compared with the parent commit; declared changes: {moved}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
