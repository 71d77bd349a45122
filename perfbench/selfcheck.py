#!/usr/bin/env python3
"""Self-check of the benchmark's output checks.

Usage: python3 perfbench/selfcheck.py   (from the root of a source checkout)

For each workload, runs one operation of every kind through revcheck's CLI,
confirms the real output passes its check, then corrupts the output in
several ways and confirms the check rejects every corrupted copy. Also
confirms BENCHMARK.json names exactly the workloads and metrics run.py
produces. Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import inputs
import run

ROOT = run.ROOT


def _mutations(op, text):
    """(label, corrupted output) pairs for one operation's real output."""
    if op.kind == "size_study":
        def with_rejections(i, count):
            texts = list(text)
            payload = json.loads(texts[i])
            payload["rejections"] = count
            payload["rejection_rate"] = count / payload["replications"]
            texts[i] = json.dumps(payload)
            return texts

        naive = json.loads(text[0])["rejections"]
        inconsistent = text[0].replace('"rejections": ', '"rejections": 1')
        return [
            ("naive rate at 0.4", with_rejections(0, 400)),
            ("coefficient rate at 0.1", with_rejections(2, 100)),
            ("corrected rate equal to naive", with_rejections(1, naive)),
            ("rate not rejections/replications", [inconsistent, *text[1:]]),
        ]

    payload = json.loads(text)
    out = []

    def mutate(label, change):
        changed = copy.deepcopy(payload)
        change(changed)
        out.append((label, json.dumps(changed)))

    def flip(side):
        side["direction"] = -side["direction"] or 1

    def nudge(entry):
        entry["p_value"] = entry["p_value"] * 1.01 + 1e-7

    mutate("conditional direction flipped", lambda p: flip(p["conditional"]))
    mutate("marginal p off by 1%", lambda p: nudge(p["marginal"]))
    others = ["Case1Trustworthy", "Case2Untrustworthy", "Indeterminate", "NoReversal"]
    mutate("verdict replaced", lambda p: p.update(verdict=others[(others.index(p["verdict"]) + 1) % 4]))

    def status_against_p(p):
        for side in ("marginal", "conditional"):
            for entry in p["assumptions"][side].values():
                if entry["p_value"] is not None:
                    entry["status"] = "pass" if entry["status"] == "fail" else "fail"
                    return

    mutate("assumption status contradicts its p", status_against_p)
    if op.kind == "table":
        mutate("homogeneity p off by 1%", lambda p: nudge(p["assumptions"]["marginal"]["[2] constant mean"]))
    return out


def main() -> int:
    from revcheck import cli

    import checks

    runner = run.Runner(cli)
    failures = []
    workdir = os.path.join(ROOT, ".perfbench", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in inputs.WORKLOADS:
            ops = inputs.build_round(workload, 1, workdir, threads=2)
            seen = set()
            for op in ops:
                key = "berkeley" if op.data.get("name") == "berkeley" else op.kind
                if key in seen:
                    continue
                seen.add(key)
                ok, output = runner.run(op)
                if not ok:
                    failures.append(f"{workload} {key}: the operation failed")
                    continue
                real = checks.check(op, output)
                if real:
                    failures.append(f"{workload} {key}: real output rejected: {real}")
                for label, corrupted in _mutations(op, output):
                    caught = checks.check(op, corrupted)
                    print(f"{workload:14s} {key:15s} {label:38s} {'rejected' if caught else 'ACCEPTED'}")
                    if not caught:
                        failures.append(f"{workload} {key}: corrupted output ({label}) accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(inputs.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from inputs.WORKLOADS")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end metrics differ from run.END_TO_END_UNITS")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        failures.append("BENCHMARK.json per_layer metrics differ from run.per_layer_units()")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    sys.exit(main())
