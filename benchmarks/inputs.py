"""Generate one workload's inputs from its config text and a seed.

Usage: python3 benchmarks/inputs.py SRC WORKLOAD SEED OUTDIR

SRC is the directory holding the ``normalvo`` package. For ``lawnmower``
and ``frontend`` OUTDIR receives a dataset directory (``dataset/``) written
by ``write_dataset``; for ``ab-sweep`` it receives the experiment config
(``experiment.txt``), since ``normalvo experiment`` simulates its own scenes.
Prints the SHA-256 digest of everything written, so that two commits can be
shown to have been measured on byte-identical inputs. Runs as its own
process so that the simulator's memory does not count toward the peak RSS
of the measured process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("lawnmower", "frontend", "ab-sweep")


def ab_seeds(seed: int) -> tuple:
    """The two scene seeds the ab-sweep experiment runs for one --seed."""
    return (seed, seed + 1)


def files_digest(root: Path, files) -> str:
    """SHA-256 over the names (relative to root) and bytes of the files."""
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_digest(path: Path) -> str:
    """Digest of one file, or of every file under a directory."""
    if path.is_file():
        return files_digest(path.parent, [path])
    return files_digest(path, (p for p in path.rglob("*") if p.is_file()))


def generate(workload: str, seed: int, outdir: Path) -> Path:
    """Write the workload's inputs under outdir; returns the input path."""
    import normalvo

    text = (CONFIG_DIR / f"{workload}.txt").read_text(encoding="utf-8")
    cfg = normalvo.parse_config(text, source=f"{workload}.txt")
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "ab-sweep":
        cfg = dataclasses.replace(cfg, seeds=ab_seeds(seed))
        path = outdir / "experiment.txt"
        normalvo.save_config(cfg, path)
        return path
    cfg = dataclasses.replace(cfg, scene=dataclasses.replace(cfg.scene, seed=seed))
    path = outdir / "dataset"
    normalvo.write_dataset(path, normalvo.generate_sequence(cfg.scene), cfg)
    return path


def main(argv) -> int:
    if len(argv) != 4 or argv[1] not in WORKLOADS:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    sys.path.insert(0, argv[0])
    path = generate(argv[1], int(argv[2]), Path(argv[3]))
    print(tree_digest(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
