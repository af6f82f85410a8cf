"""Run-provenance collection and machine identity."""

import subprocess

from repro.obs.provenance import (
    collect_provenance,
    numpy_version,
    same_machine,
)


class TestCollect:
    def test_has_all_fields(self):
        prov = collect_provenance()
        for key in ("git_rev", "hostname", "platform", "machine",
                    "python", "numpy", "cpu_count"):
            assert key in prov, key
        assert isinstance(prov["cpu_count"], int)
        assert prov["python"].count(".") >= 1

    def test_git_rev_matches_repo(self):
        prov = collect_provenance()
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   capture_output=True, text=True)
            want = head.stdout.strip()
            if dirty.stdout.strip():
                want += "-dirty"
            assert prov["git_rev"] == want

    def test_numpy_version_is_string(self):
        assert isinstance(numpy_version(), str)

    def test_json_safe(self):
        import json
        json.dumps(collect_provenance())


class TestSameMachine:
    def test_identical_is_same(self):
        prov = collect_provenance()
        assert same_machine(prov, dict(prov))

    def test_different_host_is_not(self):
        a = collect_provenance()
        b = dict(a)
        b["hostname"] = a["hostname"] + "-other"
        assert not same_machine(a, b)

    def test_different_cpu_count_is_not(self):
        a = collect_provenance()
        b = dict(a)
        b["cpu_count"] = int(a["cpu_count"]) + 64
        assert not same_machine(a, b)
