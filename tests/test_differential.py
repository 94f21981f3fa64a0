import json
import os
import random
import subprocess
import sys
from pathlib import Path

import corpus
import ologkit
from ologkit import bundled_schema, bundled_text, serialize_instance

ROOT = Path(__file__).resolve().parent.parent


def test_the_differential_worker_reads_alike_under_two_hash_seeds(tmp_path):
    # A few cases of every slice of scripts/differential.py, read by its
    # worker in two processes whose string hashing differs: no outcome,
    # report line or canonical byte may move with the hash seed.
    rng = random.Random(0)
    bonded_2 = serialize_instance(corpus.chain(ologkit, bundled_schema(), "bonded", "protein", 2))
    schema_edits = (corpus.SCHEMA_EDITS, corpus.SCHEMA_PIECES)
    instance_edits = (corpus.INSTANCE_EDITS, corpus.INSTANCE_PIECES)
    cases = {
        "documents": [
            corpus.mutate(bundled_text("paper.olog"), corpus.edits(rng, *schema_edits))
            for _ in range(3)
        ],
        "instance-documents": [
            corpus.mutate(base, corpus.edits(rng, *instance_edits))
            for base in (bonded_2, corpus.HAND_WRITTEN)
            for _ in range(2)
        ],
        "built": [corpus.schema(rng) for _ in range(3)],
        "presentations": [list(corpus.multi_box(rng)) for _ in range(3)],
        "iso": {
            "pairs": [corpus.random_pair(rng) for _ in range(3)],
            "twins": [["ductile", 5, 1, None], ["bonded", 4, None, 2]],
        },
        "instances": [["ductile", "protein", 2], ["bonded", "social", 2]],
        "edited": [["ductile", "social", 2, "drop", 3], ["bonded", "protein", 3, "rewire", 4]],
        "simulate": [["bonded", "protein", 2], ["social-msg-ll", "social", 2]],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(cases), encoding="utf-8")
    workers = {}
    for seed in ("0", "4242"):
        work = tmp_path / seed
        work.mkdir()
        (work / "paper.olog").write_text(bundled_text("paper.olog"), encoding="utf-8")
        workers[seed] = subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / "differential.py"), "--worker",
             str(tmp_path / "corpus.json"), str(work / "out.json"), str(ROOT)],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
        )
    assert all(worker.wait(timeout=120) == 0 for worker in workers.values())
    first, second = (
        json.loads((tmp_path / seed / "out.json").read_text(encoding="utf-8")) for seed in workers
    )
    assert all(first[name] for name in first)
    assert first == second
