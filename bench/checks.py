"""Checks on the files each CLI command writes.

Every check returns a list of problems; an empty list means the output is
correct. A call whose exit code is not 0 or whose output has a problem
counts as one failed operation.
"""

import os
import re

SENTENCE = re.compile(
    r"Based on the item (?P<query>\S+) you are currently browsing, we "
    r"recommend you to try (?P<item>\S+) instead because it comes with: "
    r"(?P<listing>.+)\.")
QUALITY_KEYS = ("HR@10", "NDCG@10", "ATC")


def read_manifest(out_dir: str) -> dict:
    """corpus.manifest as name -> count; empty when the file is missing."""
    path = os.path.join(out_dir, "corpus.manifest")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        pairs = (line.strip().split("=", 1) for line in fh if "=" in line)
        return {name: int(value) for name, value in pairs if value.isdigit()}


def check_prepare(out_dir: str) -> list:
    problems = []
    if not os.path.isfile(os.path.join(out_dir, "prepared.npz")):
        problems.append("prepare wrote no prepared.npz")
    counts = read_manifest(out_dir)
    for key in ("users", "items", "attributes", "train_triplets",
                "test_triplets"):
        if counts.get(key, 0) < 1:
            problems.append(f"corpus.manifest: {key} missing or zero")
    return problems


def check_train(out_dir: str) -> list:
    path = os.path.join(out_dir, "model.ckpt")
    if not os.path.isfile(path):
        return ["train wrote no model.ckpt"]
    with open(path, "rb") as fh:
        if fh.read(8) != b"A2CFCKPT":
            return ["model.ckpt: bad magic"]
    return []


def read_metrics(out_dir: str, chance_hr: float) -> tuple:
    """Parse metrics.txt into (name -> value, problems). A model whose HR@10
    is not above `chance_hr`, the HR@10 of a random ranking, fails."""
    path = os.path.join(out_dir, "metrics.txt")
    if not os.path.isfile(path):
        return {}, ["evaluate wrote no metrics.txt"]
    values = {}
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            name, sep, raw = line.strip().partition("=")
            try:
                value = float(raw)
            except ValueError:
                value = None
            if not sep or value is None:
                problems.append(f"metrics.txt:{lineno}: not name=value")
                continue
            if not 0.0 <= value <= 1.0:
                problems.append(f"metrics.txt: {name}={value} outside [0, 1]")
            values[name] = value
    problems += [f"metrics.txt: no {key}" for key in QUALITY_KEYS
                 if key not in values]
    if values.get("HR@10", 1.0) <= chance_hr:
        problems.append(f"HR@10={values['HR@10']} is not above the "
                        f"{chance_hr:.4f} of a random ranking")
    return values, problems


def read_recs(out_dir: str, user: str, query: str, top_k: int) -> tuple:
    """Parse recs.tsv into (items, problems): top_k rows for this request,
    ranks 1..k, distinct items other than the query, scores non-increasing."""
    path = os.path.join(out_dir, "recs.tsv")
    if not os.path.isfile(path):
        return [], ["recommend wrote no recs.tsv"]
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if len(rows) != top_k or any(len(r) != 5 for r in rows):
        return [], [f"recs.tsv: expected {top_k} rows of 5 fields"]
    problems = []
    items = [r[3] for r in rows]
    try:
        scores = [float(r[4]) for r in rows]
    except ValueError:
        return items, ["recs.tsv: score is not a number"]
    if [r[2] for r in rows] != [str(k) for k in range(1, top_k + 1)]:
        problems.append("recs.tsv: ranks are not 1..k")
    if any(r[0] != user or r[1] != query for r in rows):
        problems.append("recs.tsv: rows for another request")
    if len(set(items)) != top_k or query in items:
        problems.append("recs.tsv: duplicate items or the query recommended")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("recs.tsv: scores increase down the list")
    return items, problems


def check_explain(out_dir: str, user: str, query: str, items: list,
                  top_attrs: int) -> list:
    """One templated sentence per recommended item, in ranking order, each
    naming top_attrs attributes."""
    path = os.path.join(out_dir, "explanations.txt")
    if not os.path.isfile(path):
        return ["explain wrote no explanations.txt"]
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if [r[2] if len(r) == 4 else None for r in rows] != items:
        return ["explanations.txt: items differ from the recommendation"]
    problems = []
    for row in rows:
        match = SENTENCE.fullmatch(row[3])
        if (row[0] != user or row[1] != query or match is None
                or match["query"] != query or match["item"] != row[2]):
            problems.append(f"explanations.txt: malformed line for {row[2]}")
            continue
        parts = re.split(r", and |, ", match["listing"])
        if len(parts) != top_attrs or not all(
                re.fullmatch(r"(better|comparable) \S+", p) for p in parts):
            problems.append(f"explanations.txt: bad attribute list for {row[2]}")
    return problems
