import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, os.pardir, "tools", "output_digest.py")


def digests(seed):
    """{workload: sha256} from a fresh process over 2 inputs of every workload."""
    cmd = [sys.executable, TOOL, "--workload", "all", "--seed", str(seed), "--inputs", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["seed"], r["inputs"]) for r in lines] == [(seed, 2)] * 3
    return {r["workload"]: r["sha256"] for r in lines}


class TestOutputDigest:
    def test_seed_fixes_the_digest(self):
        first = digests(1)
        assert list(first) == ["analyze", "certify", "transport"]
        assert digests(1) == first
        other = digests(2)
        assert all(other[name] != first[name] for name in first)
