"""Record the fingerprints of every pool cohort of a workload.

Usage (from the root of a checkout):

    python3 perfbench/record.py --workload fit-ci [--scale full|smoke]

Runs each cohort of the pool through the workload's command sequence and
writes perfbench/fingerprints/<scale>-<workload>.json: each command's
fingerprint.  Run it only when the expected answers change on purpose: the
benchmark checks every run against these files.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = ap.parse_args()
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", f"record-{args.workload}-{args.scale}")
    os.makedirs(workdir, exist_ok=True)
    recorded = {}
    for seed in range(workloads.POOL[args.scale]):
        res = run.run_cohort(root, workdir, args.workload, args.scale, seed, f"c{seed}",
                             recording=True)
        entry = {}
        for out in res["commands"]:
            if out["rc"] != 0:
                print(f"cohort {seed} {out['name']}: exit {out['rc']}: {out['stderr']}",
                      file=sys.stderr)
                return 1
            entry[out["name"]] = workloads.extract(out["kind"], out["output"])
        recorded[str(seed)] = entry
        times = ", ".join(f"{o['name']} {o['wall_s']:.2f} s" for o in res["commands"])
        print(f"cohort {seed}: {times}", flush=True)
    os.makedirs(workloads.FINGERPRINTS, exist_ok=True)
    with open(workloads.fingerprint_path(args.scale, args.workload), "w",
              encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
