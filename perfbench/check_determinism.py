"""Check that a workload's deterministic outputs ignore the hash seed.

Usage, from the root of a checkout::

    python3 perfbench/check_determinism.py --seed 1 [--workload NAME ...]

For each workload, runs one unit under two ``PYTHONHASHSEED`` values
(``run.py --fingerprint``) and compares the digest of its simulated-time
outputs, events per request, messages per request and Python frames per
request.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = ("0", "4242")


def fingerprint(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--fingerprint",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload",
        nargs="*",
        default=["warm-call", "tenant-overload", "repository-faults", "mega-population"],
    )
    args = parser.parse_args(argv)

    failed = False
    for workload in args.workload:
        first, second = (fingerprint(workload, args.seed, h) for h in HASH_SEEDS)
        same = first == second
        failed |= not same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} across "
              f"PYTHONHASHSEED {HASH_SEEDS}: {json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"  vs {json.dumps(second, sort_keys=True)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
